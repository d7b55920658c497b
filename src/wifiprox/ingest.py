"""Fingerprint loading: canonical JSONL, a wide-CSV adapter, burst handling.

The canonical on-disk format is line-delimited JSON, one scan per line:

    {"id": str, "dataset": str, "building": str, "floor": str,
     "x_m": num, "y_m": num, "device": str, "burst": str|null,
     "scan": int|null, "aps": [{"bssid": str, "rssi": num}, ...]}

Values are read as saved, never coerced or rewritten: each ``bssid`` must be
in canonical form (``"0a:1b:2c:3d:4e:5f"``), as :func:`save_canonical`
writes it.

Every command that reads fingerprints loads this format itself.  The
wide-CSV adapter, described by a :class:`DatasetManifest`, turns
one-row-per-scan matrix datasets (AP columns sharing a prefix, a "not
detected" sentinel value) into the same in-memory model.  Rows whose AP
cells are all sentinel carry no information and are skipped; skips are
always counted, never silent.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Optional

from .core import Fingerprint, FloorKey, bssid_from_int, open_utf8


class ParseError(ValueError):
    """Malformed input file; message carries file/line context."""


class ManifestError(ValueError):
    """Bad or incomplete dataset manifest."""


@dataclass
class SkipReport:
    """Counts of rows read, loaded and dropped during ingestion. Never silent."""

    rows_read: int = 0
    loaded: int = 0
    skipped_empty: int = 0


@dataclass
class BurstReport:
    """Counts of bursts seen and dropped as too short for sub-bursts. Never silent."""

    bursts_seen: int = 0
    bursts_too_short: int = 0


#: the values each annotated manifest field accepts (annotations are strings here)
_MANIFEST_KINDS = {"str": str, "Optional[str]": (str, type(None)), "float": (int, float)}


@dataclass(frozen=True)
class DatasetManifest:
    """Where a wide-CSV survey lives and which of its columns hold what.

    ``format`` must read ``"wide_csv"``.  ``path`` is taken relative to the
    manifest file when loaded with :func:`load_manifest`; the coordinate unit
    scale converts dataset units into meters.  A survey without a device,
    building or floor column gets ``"unknown"``, ``"0"`` and ``"0"``.
    """

    dataset_id: str
    format: str
    path: Path
    not_detected_sentinel: float = 100.0
    ap_column_prefix: str = "WAP"
    x_column: str = "LONGITUDE"
    y_column: str = "LATITUDE"
    unit_scale_to_m: float = 1.0
    device_column: Optional[str] = None
    building_column: Optional[str] = None
    floor_column: Optional[str] = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value, kinds = getattr(self, f.name), _MANIFEST_KINDS.get(f.type)
            if kinds and (not isinstance(value, kinds) or isinstance(value, bool)):
                raise ManifestError(f"{f.name} must be {f.type}, got {value!r}")
        if self.format != "wide_csv":
            raise ManifestError(f"format must be 'wide_csv', got {self.format!r} "
                                "(canonical JSONL needs no ingest: give it to pairs --in)")
        if self.unit_scale_to_m <= 0:
            raise ManifestError("unit_scale_to_m must be > 0")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read a JSON manifest; its data path is joined to the manifest's directory.

    The join (``<manifest dir as given>/<path as written>``) is not resolved,
    so the same invocation from two directories records the same path.
    """
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # JSONDecodeError and UnicodeDecodeError too
        raise ManifestError(f"{p}: not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise ManifestError(f"{p}: manifest must be a JSON object")
    known = set(DatasetManifest.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ManifestError(f"{p}: unknown manifest keys {sorted(unknown)}")
    for key in ("dataset_id", "format", "path"):
        if key not in doc:
            raise ManifestError(f"{p}: missing required key {key!r}")
    doc = dict(doc)
    try:
        doc["path"] = p.parent / doc["path"]
        manifest = DatasetManifest(**doc)
    except (ManifestError, TypeError) as e:
        raise ManifestError(f"{p}: {e}") from None
    if not manifest.path.exists():
        raise ManifestError(f"{p}: data file {manifest.path} does not exist")
    return manifest


# ---------------------------------------------------------------------------
# Canonical JSONL
# ---------------------------------------------------------------------------

def _fingerprint_from_record(rec: dict, where: str) -> Fingerprint:
    try:
        aps = rec["aps"]
        bssids = [ap["bssid"] for ap in aps]
        rssis = [ap["rssi"] for ap in aps]
        scan, burst = rec.get("scan"), rec.get("burst")
        # as saved: neither 1.7, "1" nor true passes for scan 1
        if scan is not None and type(scan) is not int:
            raise ValueError(f"scan {scan!r} is not an integer")
        # as saved: numbers are int or float (true is not 1), names are strings
        names = [rec["id"], rec["dataset"], rec["building"], rec["floor"], rec["device"], *bssids]
        if burst is not None:
            names.append(burst)
        odd = (set(map(type, (rec["x_m"], rec["y_m"], *rssis))) - {int, float}
               | set(map(type, names)) - {str})
        if odd:
            raise ValueError(
                "x_m, y_m and rssi must be numbers, ids and names strings; found "
                + ", ".join(sorted(t.__name__ for t in odd))
            )
        readings = dict(zip(bssids, map(float, rssis)))
        if len(readings) < len(bssids):
            dup = next(b for i, b in enumerate(bssids) if b in bssids[:i])
            raise ParseError(f"{where}: duplicate BSSID {dup} in one scan")
        return Fingerprint(
            id=rec["id"],
            readings=readings,
            position=(float(rec["x_m"]), float(rec["y_m"])),
            floor_key=(rec["dataset"], rec["building"], rec["floor"]),
            device_model=rec["device"],
            burst_id=burst,
            scan_index=scan,
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"{where}: bad record ({e})") from e


def load_canonical(path: str | Path) -> list[Fingerprint]:
    """Load a canonical JSONL fingerprint file.

    Any malformed line, invariant violation or repeated fingerprint id raises
    :class:`ParseError` naming the offending line; an empty file yields an
    empty list.
    """
    out: list[Fingerprint] = []
    line_of: dict[str, int] = {}
    p = Path(path)
    with open_utf8(p) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError as e:  # also an integer past Python's digit limit
                raise ParseError(f"{p}:{lineno}: malformed JSON ({e})") from e
            fp = _fingerprint_from_record(rec, f"{p}:{lineno}")
            if line_of.setdefault(fp.id, lineno) != lineno:
                raise ParseError(f"{p}:{lineno}: repeats id {fp.id!r} from line {line_of[fp.id]}")
            out.append(fp)
    return out


def _record_from_fingerprint(fp: Fingerprint) -> dict:
    return {
        "id": fp.id,
        "dataset": fp.floor_key[0],
        "building": fp.floor_key[1],
        "floor": fp.floor_key[2],
        "x_m": fp.position[0],
        "y_m": fp.position[1],
        "device": fp.device_model,
        "burst": fp.burst_id,
        "scan": fp.scan_index,
        "aps": [{"bssid": b, "rssi": fp.readings[b]} for b in sorted(fp.readings)],
    }


def save_canonical(fps: Iterable[Fingerprint], path: str | Path) -> None:
    """Write fingerprints in canonical JSONL; deterministic field and AP order."""
    with open(path, "w", encoding="utf-8") as fh:
        for fp in fps:
            fh.write(json.dumps(_record_from_fingerprint(fp), separators=(",", ":")))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Wide-CSV adapter
# ---------------------------------------------------------------------------

def _ap_column_bssid(name: str, prefix: str, ordinal: int) -> str:
    suffix = name[len(prefix):]
    if suffix.isdigit():
        return bssid_from_int(int(suffix))
    return bssid_from_int(ordinal)


def load_wide_csv(manifest: DatasetManifest) -> tuple[list[Fingerprint], SkipReport]:
    """Load a wide-matrix CSV dataset per its manifest.

    Each row becomes one fingerprint; AP cells equal to the sentinel mean
    "not detected".  Rows with no detected AP are skipped and counted.
    """
    report = SkipReport()
    fps: list[Fingerprint] = []
    with open_utf8(manifest.path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{manifest.path}: empty CSV (no header)") from None
        header = [h.strip() for h in header]
        col_index = {name: i for i, name in enumerate(header)}

        ap_cols: list[tuple[int, str]] = []
        ordinal = 0
        for i, name in enumerate(header):
            if name.startswith(manifest.ap_column_prefix):
                ordinal += 1
                ap_cols.append((i, _ap_column_bssid(name, manifest.ap_column_prefix, ordinal)))
        if not ap_cols:
            raise ManifestError(
                f"{manifest.path}: no columns with AP prefix {manifest.ap_column_prefix!r}"
            )

        def require(col: Optional[str], what: str) -> Optional[int]:
            if col is None:
                return None
            if col not in col_index:
                raise ManifestError(f"{manifest.path}: missing configured {what} column {col!r}")
            return col_index[col]

        ix = require(manifest.x_column, "x")
        iy = require(manifest.y_column, "y")
        idev = require(manifest.device_column, "device")
        ibld = require(manifest.building_column, "building")
        iflr = require(manifest.floor_column, "floor")

        sentinel = float(manifest.not_detected_sentinel)
        for rowno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{manifest.path}:{rowno}: expected {len(header)} cells, got {len(row)}"
                )
            report.rows_read += 1
            readings: dict[str, float] = {}
            for i, bssid in ap_cols:
                cell = row[i].strip()
                if not cell:
                    continue
                try:
                    rssi = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{manifest.path}:{rowno}: non-numeric RSSI cell {cell!r}"
                    ) from None
                if rssi != sentinel:
                    readings[bssid] = rssi
            if not readings:
                report.skipped_empty += 1
                continue
            floor_key: FloorKey = (
                manifest.dataset_id,
                row[ibld].strip() if ibld is not None else "0",
                row[iflr].strip() if iflr is not None else "0",
            )
            try:
                fp = Fingerprint(
                    id=f"{manifest.dataset_id}:{rowno}",
                    readings=readings,
                    position=(
                        float(row[ix]) * manifest.unit_scale_to_m,
                        float(row[iy]) * manifest.unit_scale_to_m,
                    ),
                    floor_key=floor_key,
                    device_model=row[idev].strip() if idev is not None else "unknown",
                )
            except ValueError as e:  # a coordinate cell that does not parse
                raise ParseError(f"{manifest.path}:{rowno}: {e}") from None
            fps.append(fp)
            report.loaded += 1
    return fps, report


# ---------------------------------------------------------------------------
# Bursts and pseudo-fingerprints
# ---------------------------------------------------------------------------

SUB_BURST_SIZE = 4


def split_all_sub_bursts(fps: Iterable[Fingerprint]) -> tuple[list[Fingerprint], BurstReport]:
    """Aggregate every burst into two 4-scan pseudo-fingerprints.

    Scans are grouped into bursts by (floor_key, burst_id) and ordered by
    scan_index.  Every scan must carry burst metadata, and a burst's scans
    must share position and device and be numbered 0..n-1.  Bursts shorter
    than 8 scans are counted and skipped; scans past the eighth are unused.
    A pseudo-fingerprint holds every AP its four scans detected at the median
    of their readings (even counts average the middle two, hence float RSSI);
    its id names the burst and the half (``...:<burst>:sub0``/``sub1``).
    """
    groups: dict[tuple[FloorKey, str], list[Fingerprint]] = {}
    for fp in fps:
        if fp.burst_id is None or fp.scan_index is None:
            raise ValueError(f"fingerprint {fp.id!r} lacks burst_id/scan_index")
        groups.setdefault((fp.floor_key, fp.burst_id), []).append(fp)
    report = BurstReport()
    pseudos: list[Fingerprint] = []
    for (fk, burst_id), scans in sorted(groups.items()):
        scans.sort(key=lambda fp: fp.scan_index)
        first = scans[0]
        for fp in scans:
            if fp.position != first.position:
                raise ValueError(f"burst {burst_id!r}: scans disagree on position")
            if fp.device_model != first.device_model:
                raise ValueError(f"burst {burst_id!r}: scans disagree on device")
        indices = [fp.scan_index for fp in scans]
        if indices != list(range(len(scans))):
            raise ValueError(f"burst {burst_id!r}: scan indices {indices} not contiguous from 0")
        report.bursts_seen += 1
        if len(scans) < 2 * SUB_BURST_SIZE:
            report.bursts_too_short += 1
            continue
        for half in (0, 1):
            by_ap: dict[str, list[float]] = {}
            for fp in scans[half * SUB_BURST_SIZE : (half + 1) * SUB_BURST_SIZE]:
                for bssid, rssi in fp.readings.items():
                    by_ap.setdefault(bssid, []).append(rssi)
            pseudos.append(Fingerprint(
                id=f"{fk[0]}:{fk[1]}:{fk[2]}:{burst_id}:sub{half}",
                readings={b: float(statistics.median(v)) for b, v in by_ap.items()},
                position=first.position,
                floor_key=fk,
                device_model=first.device_model,
                burst_id=burst_id,
                scan_index=half,
            ))
    return pseudos, report
