"""Pair enumeration, distance gates, class sampling, persistence."""

import math
import re

import pytest

from wifiprox.core import FingerprintPair, ProximityClass
from wifiprox.pairing import (
    CLOSE_MAX_M,
    FAR_MAX_M,
    FAR_MIN_M,
    PairingConfig,
    enumerate_pairs,
    holdout,
    load_pairs,
    make_pair,
    pair_distance,
    sample_training_set,
    save_pairs,
)

from conftest import bss, make_fp


class TestConfig:
    def test_defaults(self):
        assert (CLOSE_MAX_M, FAR_MIN_M, FAR_MAX_M) == (2.25, 3.25, 20.0)

    @pytest.mark.parametrize(
        "d,expected",
        [
            (0.0, ProximityClass.CLOSE),
            (2.25, ProximityClass.CLOSE),  # boundary is inclusive
            (2.2500001, None),
            (3.2499999, None),
            (3.25, ProximityClass.FAR),  # boundary is inclusive
            (10.0, ProximityClass.FAR),
            (20.0, ProximityClass.FAR),
            (20.0000001, None),
            (-1.0, None),
        ],
    )
    def test_classify_gates(self, d, expected):
        assert PairingConfig().classify(d) is expected


class TestDistanceAndOrder:
    def test_pair_distance_euclidean(self):
        a = make_fp(id="a", position=(0.0, 0.0))
        b = make_fp(id="b", position=(3.0, 4.0))
        assert pair_distance(a, b) == 5.0

    def test_pair_distance_cross_floor_rejected(self):
        a = make_fp(id="a", floor=("ds", "0", "0"))
        b = make_fp(id="b", floor=("ds", "0", "1"))
        with pytest.raises(ValueError, match="across floors"):
            pair_distance(a, b)

    def test_make_pair_is_the_pair_constructor(self):
        assert make_pair is FingerprintPair

    def test_make_pair_puts_fewer_aps_first(self):
        small = make_fp(id="z-small", readings={bss(1): -50.0})
        big = make_fp(id="a-big", readings={bss(1): -50.0, bss(2): -60.0})
        pair = make_pair(big, small, 1.0, ProximityClass.CLOSE)
        assert pair.a.id == "z-small"
        assert pair.b.id == "a-big"

    def test_make_pair_breaks_ap_ties_by_id(self):
        first = make_fp(id="aaa")
        second = make_fp(id="bbb")
        assert first.ap_count == second.ap_count
        pair = make_pair(second, first, 1.0, ProximityClass.CLOSE)
        assert pair.key == ("aaa", "bbb")


class TestEnumerate:
    def _grid(self):
        # Three fingerprints on floor 0 at x = 0, 2, 10 and one on floor 1.
        # Distances: (f0, f1)=2 CLOSE, (f0, f2)=10 FAR, (f1, f2)=8 FAR.
        return [
            make_fp(id="f0", position=(0.0, 0.0)),
            make_fp(id="f1", position=(2.0, 0.0)),
            make_fp(id="f2", position=(10.0, 0.0)),
            make_fp(id="g0", position=(0.0, 0.0), floor=("ds", "0", "1")),
        ]

    def test_labels_and_no_cross_floor(self):
        pairs = enumerate_pairs(self._grid())
        keys = {p.key: p.label for p in pairs}
        assert keys == {
            ("f0", "f1"): ProximityClass.CLOSE,
            ("f0", "f2"): ProximityClass.FAR,
            ("f1", "f2"): ProximityClass.FAR,
        }

    def test_gap_between_gates_is_dropped(self):
        fps = [
            make_fp(id="f0", position=(0.0, 0.0)),
            make_fp(id="f1", position=(2.75, 0.0)),  # between 2.25 and 3.25
        ]
        assert enumerate_pairs(fps) == []

    def test_beyond_far_gate_is_dropped(self):
        fps = [
            make_fp(id="f0", position=(0.0, 0.0)),
            make_fp(id="f1", position=(25.0, 0.0)),
        ]
        assert enumerate_pairs(fps) == []

    def test_empty_fingerprints_not_admitted(self):
        fps = self._grid() + [make_fp(id="empty", readings={}, position=(1.0, 0.0))]
        pairs = enumerate_pairs(fps)
        assert all("empty" not in p.key for p in pairs)

    def test_order_is_deterministic(self):
        fps = self._grid()
        assert [p.key for p in enumerate_pairs(fps)] == [
            p.key for p in enumerate_pairs(list(reversed(fps)))
        ]

    def test_same_burst_pairs_included_by_default(self):
        fps = [
            make_fp(id="s0", burst_id="b0", scan_index=0),
            make_fp(id="s1", position=(1.0, 0.0), burst_id="b0", scan_index=1),
        ]
        assert len(enumerate_pairs(fps)) == 1

    def test_distance_recorded(self):
        pairs = enumerate_pairs(self._grid())
        by_key = {p.key: p.distance_m for p in pairs}
        assert math.isclose(by_key[("f0", "f2")], 10.0)


def _labeled_pool(n_close=8, n_far=8):
    fps = [make_fp(id=f"c{i}", position=(0.1 * i, 0.0)) for i in range(n_close + 1)]
    fps += [make_fp(id=f"r{i}", position=(100.0 + 4.0 * i, 0.0)) for i in range(n_far)]
    pairs = enumerate_pairs(fps)
    # keep a flat pool with exactly the requested class counts
    close = [p for p in pairs if p.label is ProximityClass.CLOSE][:n_close]
    far = [p for p in pairs if p.label is ProximityClass.FAR][:n_far]
    return close + far


class TestSampling:
    def test_counts_and_determinism(self):
        pool = _labeled_pool()
        picked = sample_training_set(pool, 3, 5, seed=11)
        assert sum(p.label is ProximityClass.CLOSE for p in picked) == 3
        assert sum(p.label is ProximityClass.FAR for p in picked) == 5
        again = sample_training_set(pool, 3, 5, seed=11)
        assert [p.key for p in picked] == [p.key for p in again]
        other = sample_training_set(pool, 3, 5, seed=12)
        assert [p.key for p in picked] != [p.key for p in other]

    def test_selection_preserves_input_order(self):
        pool = _labeled_pool()
        picked = sample_training_set(pool, 4, 4, seed=3)
        positions = [pool.index(p) for p in picked]
        assert positions == sorted(positions)

    def test_requesting_too_many_raises(self):
        pool = _labeled_pool(n_close=2, n_far=2)
        with pytest.raises(ValueError, match="Close"):
            sample_training_set(pool, 3, 1, seed=0)
        with pytest.raises(ValueError, match="Far"):
            sample_training_set(pool, 1, 3, seed=0)

    def test_holdout_is_the_complement(self):
        pool = _labeled_pool()
        picked = sample_training_set(pool, 3, 3, seed=7)
        rest = holdout(pool, picked)
        assert len(rest) == len(pool) - 6
        assert {p.key for p in rest} | {p.key for p in picked} == {p.key for p in pool}
        assert {p.key for p in rest} & {p.key for p in picked} == set()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        fps = [
            make_fp(id="f0", position=(0.0, 0.0)),
            make_fp(id="f1", position=(2.0, 0.0)),
            make_fp(id="f2", position=(10.0, 0.0)),
        ]
        pairs = enumerate_pairs(fps)
        path = tmp_path / "pairs.jsonl"
        save_pairs(pairs, path)
        loaded = load_pairs(path, fps)
        assert [(p.key, p.label, p.distance_m) for p in loaded] == [
            (p.key, p.label, p.distance_m) for p in pairs
        ]

    def test_save_is_byte_stable(self, tmp_path):
        fps = [make_fp(id="f0"), make_fp(id="f1", position=(1.0, 0.0))]
        pairs = enumerate_pairs(fps)
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_pairs(pairs, p1)
        save_pairs(pairs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unresolved_reference_reports_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(
            '{"a":"f0","b":"f1","distance_m":1.0,"label":"Close"}\n'
            '{"a":"f0","b":"ghost","distance_m":1.0,"label":"Close"}\n'
        )
        fps = [make_fp(id="f0"), make_fp(id="f1", position=(1.0, 0.0))]
        with pytest.raises(ValueError, match=":2:"):
            load_pairs(path, fps)

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"a":"f0","b":"f1","distance_m":1.0,"label":"Near"}\n')
        fps = [make_fp(id="f0"), make_fp(id="f1", position=(1.0, 0.0))]
        with pytest.raises(ValueError, match=":1:"):
            load_pairs(path, fps)

    @pytest.mark.parametrize("record, reason", [
        ('{"a":"f0","b":"f1","distance_m":-1.0,"label":"Close"}', "negative pair distance"),
        ('{"a":"f0","b":"f1","distance_m":NaN,"label":"Close"}', "non-finite pair distance nan"),
        ('{"a":"f0","b":"f1","distance_m":Infinity,"label":"Close"}',
         "non-finite pair distance inf"),
        ('{"a":"f0","b":"f0","distance_m":0.0,"label":"Close"}',
         "cannot pair a fingerprint with itself"),
        # the band between the gates is never trained on
        ('{"a":"f0","b":"f2","distance_m":2.8,"label":"Close"}',
         "Close at 2.8 m, where the gates give no label"),
        ('{"a":"f0","b":"f1","distance_m":1.0,"label":"Far"}',
         "Far at 1.0 m, where the gates give Close"),
        ('{"a":"f0","b":"f3","distance_m":25.0,"label":"Far"}',
         "Far at 25.0 m, where the gates give no label"),
        # the record must say how far apart its fingerprints are
        ('{"a":"f0","b":"f2","distance_m":1.0,"label":"Close"}',
         "distance_m 1.0, but the fingerprints are 2.8 m apart"),
        # as saved: a number, which neither a string nor true is
        ('{"a":"f0","b":"f1","distance_m":"1.0","label":"Close"}',
         "distance_m '1.0' is not a number"),
        ('{"a":"f0","b":"f1","distance_m":true,"label":"Close"}',
         "distance_m True is not a number"),
    ], ids=["negative-distance", "nan-distance", "inf-distance", "self-pair",
            "close-between-gates", "far-inside-close-gate", "far-beyond-far-gate",
            "distance-contradicts-positions", "string-distance", "bool-distance"])
    def test_rejected_pair_reports_line(self, tmp_path, record, reason):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"a":"f0","b":"f1","distance_m":1.0,"label":"Close"}\n' + record + "\n")
        fps = [make_fp(id="f0"), make_fp(id="f1", position=(1.0, 0.0)),
               make_fp(id="f2", position=(2.8, 0.0)), make_fp(id="f3", position=(25.0, 0.0))]
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad pair record (") + reason):
            load_pairs(path, fps)

    def test_duplicate_fingerprint_ids_rejected(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"a":"f0","b":"f1","distance_m":1.0,"label":"Close"}\n')
        fps = [make_fp(id="f0"), make_fp(id="f0")]
        with pytest.raises(ValueError, match="not unique"):
            load_pairs(path, fps)

    def test_load_restores_canonical_order(self, tmp_path):
        # A record written with the ids swapped still loads canonically.
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"a":"f1","b":"f0","distance_m":1.0,"label":"Close"}\n')
        fps = [make_fp(id="f0"), make_fp(id="f1", position=(1.0, 0.0))]
        (pair,) = load_pairs(path, fps)
        assert pair.key == ("f0", "f1")
