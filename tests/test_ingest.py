import json
import re

import pytest

from wifiprox import ingest
from wifiprox.core import Fingerprint
from wifiprox.ingest import (
    DatasetManifest,
    ManifestError,
    ParseError,
    load_canonical,
    load_manifest,
    load_wide_csv,
    save_canonical,
    split_all_sub_bursts,
)

from conftest import bss, make_fp


@pytest.fixture
def canonical_file(tmp_path):
    fps = [
        make_fp(id="a", readings={bss(1): -42.0, bss(2): -61.0}, position=(1.5, 2.0)),
        make_fp(id="b", readings={bss(2): -70.0}, position=(3.0, 4.0)),
    ]
    path = tmp_path / "fps.jsonl"
    save_canonical(fps, path)
    return path, fps


class TestCanonical:
    def test_round_trip(self, canonical_file):
        path, fps = canonical_file
        loaded = load_canonical(path)
        assert loaded == fps

    def test_save_is_stable(self, canonical_file, tmp_path):
        path, _ = canonical_file
        again = tmp_path / "again.jsonl"
        save_canonical(load_canonical(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(
            {
                "id": "x",
                "dataset": "d",
                "building": "0",
                "floor": "0",
                "x_m": 0.0,
                "y_m": 0.0,
                "device": "ph",
                "burst": None,
                "scan": None,
                "aps": [{"bssid": bss(1), "rssi": -50.0}],
            }
        )
        path.write_text(good + "\n" + "{not json\n")
        with pytest.raises(ParseError, match=":2"):
            load_canonical(path)

    def test_duplicate_bssid_rejected(self, tmp_path):
        rec = {
            "id": "x",
            "dataset": "d",
            "building": "0",
            "floor": "0",
            "x_m": 0.0,
            "y_m": 0.0,
            "device": "ph",
            "burst": None,
            "scan": None,
            "aps": [
                {"bssid": "aa:bb:cc:dd:ee:ff", "rssi": -50.0},
                {"bssid": "aa:bb:cc:dd:ee:ff", "rssi": -55.0},
            ],
        }
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=re.escape(
            f"{path}:1: duplicate BSSID aa:bb:cc:dd:ee:ff in one scan"
        )):
            load_canonical(path)


    @pytest.mark.parametrize("scan", [1.7, "1", True])
    def test_non_integer_scan_rejected(self, tmp_path, scan):
        # int() would read 1.7 as scan 1
        fp = make_fp(id="x", burst_id="b", scan_index=1)
        path = tmp_path / "scans.jsonl"
        save_canonical([fp], path)
        assert load_canonical(path) == [fp]
        rec = json.loads(path.read_text())
        path.write_text(json.dumps({**rec, "scan": scan}) + "\n")
        with pytest.raises(ParseError, match=re.escape(
            f"{path}:1: bad record (scan {scan!r} is not an integer)"
        )):
            load_canonical(path)

    @pytest.mark.parametrize("field, value, found", [
        ("x_m", True, "bool"),
        ("y_m", "3", "str"),
        ("rssi", "-50", "str"),
        ("rssi", True, "bool"),
        ("id", 7, "int"),
        ("device", None, "NoneType"),
        ("burst", 5, "int"),
        ("bssid", 1, "int"),
    ])
    def test_field_of_another_type_rejected(self, tmp_path, field, value, found):
        # float() would read true as 1.0 and "3" as 3.0; str() would read 7 as "7"
        fp = make_fp(id="x", burst_id="b", scan_index=0)
        path = tmp_path / "types.jsonl"
        save_canonical([fp], path)
        rec = json.loads(path.read_text())
        if field in ("rssi", "bssid"):
            rec["aps"][0][field] = value
        else:
            rec[field] = value
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=re.escape(
            f"{path}:1: bad record (x_m, y_m and rssi must be numbers, "
            f"ids and names strings; found {found})"
        )):
            load_canonical(path)

    def test_integer_numbers_load_as_floats(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        fp = make_fp(id="x", readings={bss(1): -50.0}, position=(1.0, 2.0))
        save_canonical([fp], path)
        path.write_text(path.read_text().replace(".0", ""))
        assert '"rssi":-50' in path.read_text()
        assert load_canonical(path) == [fp]


class TestWideCsv:
    def write_csv(self, tmp_path, text):
        path = tmp_path / "wide.csv"
        path.write_text(text)
        return path

    def manifest(self, path, **kw):
        return DatasetManifest(
            dataset_id="uji", format="wide_csv", path=str(path), **kw
        )

    def test_basic_load_with_sentinel(self, tmp_path):
        path = self.write_csv(
            tmp_path,
            "WAP001,WAP002,LONGITUDE,LATITUDE\n"
            "-50,100,1.0,2.0\n"
            "100,100,3.0,4.0\n"
            "-61,-72,5.0,6.0\n",
        )
        fps, report = load_wide_csv(self.manifest(path))
        assert report.rows_read == 3
        assert report.loaded == 2
        assert report.skipped_empty == 1
        assert fps[0].readings == {bssid_col(1): -50.0}
        assert fps[1].readings == {bssid_col(1): -61.0, bssid_col(2): -72.0}

    def test_non_numeric_rssi_is_error(self, tmp_path):
        path = self.write_csv(
            tmp_path, "WAP001,LONGITUDE,LATITUDE\nabc,1.0,2.0\n"
        )
        with pytest.raises(ParseError, match=":2:"):
            load_wide_csv(self.manifest(path))

    def test_unit_scale(self, tmp_path):
        path = self.write_csv(
            tmp_path, "WAP001,LONGITUDE,LATITUDE\n-40,100.0,200.0\n"
        )
        fps, _ = load_wide_csv(self.manifest(path, unit_scale_to_m=0.01))
        assert fps[0].position == (1.0, 2.0)

    def test_device_and_floor_columns(self, tmp_path):
        path = self.write_csv(
            tmp_path,
            "WAP001,LONGITUDE,LATITUDE,FLOOR,BUILDINGID,PHONEID\n"
            "-40,1.0,2.0,2,1,13\n",
        )
        fps, _ = load_wide_csv(
            self.manifest(
                path,
                floor_column="FLOOR",
                building_column="BUILDINGID",
                device_column="PHONEID",
            )
        )
        assert fps[0].floor_key == ("uji", "1", "2")
        assert fps[0].device_model == "13"


def bssid_col(i: int) -> str:
    """What the adapter assigns to WAP column number i."""
    from wifiprox.core import bssid_from_int

    return bssid_from_int(i)


class TestManifest:
    def test_round_trip(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("WAP001,LONGITUDE,LATITUDE\n")
        doc = {"dataset_id": "d", "format": "wide_csv", "path": "data.csv"}
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(doc))
        m = load_manifest(mpath)
        assert m.dataset_id == "d"
        assert str(m.path) == str(data)

    def test_unknown_key_rejected(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(
            json.dumps(
                {"dataset_id": "d", "format": "wide_csv", "path": "x", "bogus": 1}
            )
        )
        with pytest.raises(ManifestError, match="bogus"):
            load_manifest(mpath)

    def test_missing_data_file_rejected(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(
            json.dumps({"dataset_id": "d", "format": "wide_csv", "path": "nope.csv"})
        )
        with pytest.raises(ManifestError, match="nope.csv"):
            load_manifest(mpath)


def make_burst(n, *, burst="b0", base_rssi=-50.0, extra=None):
    """A burst of n scans at one position; scan i sees AP1 at base_rssi - i."""
    scans = []
    for i in range(n):
        readings = {bss(1): base_rssi - i}
        if extra and i in extra:
            readings.update(extra[i])
        scans.append(
            make_fp(
                id=f"{burst}:{i}",
                readings=readings,
                burst_id=burst,
                scan_index=i,
            )
        )
    return scans


class TestSubBursts:
    def test_split_uses_first_eight_scans(self):
        # AP2 appears only in the ninth scan: it must not appear anywhere
        subs, _ = split_all_sub_bursts(make_burst(9, extra={8: {bss(2): -30.0}}))
        assert len(subs) == 2
        for sub in subs:
            assert bss(2) not in sub.readings

    def test_median_aggregation(self):
        # AP1 over scans 0..3: -50, -51, -52, -53 -> median -51.5
        (first, second), _ = split_all_sub_bursts(make_burst(9))
        assert first.readings[bss(1)] == -51.5
        assert second.readings[bss(1)] == -55.5

    def test_ap_missing_from_some_scans(self):
        # AP2 detected in scans 1 and 2 only: median over detections
        (first, _), _ = split_all_sub_bursts(
            make_burst(9, extra={1: {bss(2): -80.0}, 2: {bss(2): -84.0}})
        )
        assert first.readings[bss(2)] == -82.0

    def test_pseudo_ids_distinct_and_traceable(self):
        (first, second), _ = split_all_sub_bursts(make_burst(9))
        assert first.id != second.id
        # the id names the floor subset, the burst and the half
        assert (first.id, second.id) == ("ds:0:0:b0:sub0", "ds:0:0:b0:sub1")

    def test_too_short_burst_rejected(self):
        # a 7-scan burst yields no pseudo-fingerprint; it is counted, not fatal
        pseudos, report = split_all_sub_bursts(make_burst(7))
        assert pseudos == []
        assert (report.bursts_seen, report.bursts_too_short) == (1, 1)

    def test_split_all_counts_short_bursts(self):
        scans = make_burst(9, burst="b0") + make_burst(5, burst="b1")
        pseudos, report = split_all_sub_bursts(scans)
        assert len(pseudos) == 2
        assert report.bursts_seen == 2
        assert report.bursts_too_short == 1

    def test_burst_metadata_required(self):
        with pytest.raises(ValueError, match=re.escape("fingerprint 'x' lacks burst_id/scan_index")):
            split_all_sub_bursts([make_fp(id="x")])

    @staticmethod
    def _scans(indices):
        return [make_fp(id=f"s{i}", burst_id="b", scan_index=i) for i in indices]

    def test_scan_indices_must_be_contiguous(self):
        with pytest.raises(ValueError, match=re.escape(
            "burst 'b': scan indices [0, 2] not contiguous from 0"
        )):
            split_all_sub_bursts(self._scans((0, 2)))
        with pytest.raises(ValueError, match="not contiguous"):
            split_all_sub_bursts(self._scans((0, 1, 1)))

    def test_valid_burst(self):
        # three contiguous scans pass the checks; the burst is then too short
        pseudos, report = split_all_sub_bursts(self._scans(range(3)))
        assert (pseudos, report.bursts_seen, report.bursts_too_short) == ([], 1, 1)
        pseudos, _ = split_all_sub_bursts(self._scans(range(8)))
        assert len(pseudos) == 2

    def test_position_must_agree(self):
        a = make_fp(id="s0", burst_id="b", scan_index=0)
        b = make_fp(id="s1", burst_id="b", scan_index=1, position=(9.0, 9.0))
        with pytest.raises(ValueError, match=re.escape("burst 'b': scans disagree on position")):
            split_all_sub_bursts([a, b])

    def test_device_must_agree(self):
        a = make_fp(id="s0", burst_id="b", scan_index=0)
        b = make_fp(id="s1", burst_id="b", scan_index=1, device="nokia-7")
        with pytest.raises(ValueError, match=re.escape("burst 'b': scans disagree on device")):
            split_all_sub_bursts([a, b])
