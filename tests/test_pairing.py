"""Pair enumeration, distance gates, class sampling, persistence."""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def enumerate_pairs_oracle(fps):
    """The combination loop that ``enumerate_pairs`` replaced: one pair object
    per kept combination, labeled by ``math.dist`` and ``classify``."""
    by_floor = {}
    for fp in fps:
        if fp.readings:
            by_floor.setdefault(fp.floor_key, []).append(fp)
    gates = PairingConfig()
    out = []
    for floor_key in sorted(by_floor):
        group = sorted(by_floor[floor_key], key=lambda fp: fp.id)
        for a, b in itertools.combinations(group, 2):
            d = math.dist(a.position, b.position)
            label = gates.classify(d)
            if label is not None:
                out.append(FingerprintPair(a, b, d, label))
    return out


def sample_oracle(pairs, n_close, n_far, seed):
    """The list-based per-class sample that ``sample_training_set`` replaced."""
    close_idx = [i for i, p in enumerate(pairs) if p.label is ProximityClass.CLOSE]
    far_idx = [i for i, p in enumerate(pairs) if p.label is ProximityClass.FAR]
    rng = random.Random(seed)
    chosen = sorted(rng.sample(close_idx, n_close) + rng.sample(far_idx, n_far))
    return [pairs[i] for i in chosen]


def _facts(pairs):
    return [(p.key, p.distance_m, p.label) for p in pairs]


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
        assert list(enumerate_pairs(fps)) == []

    def test_beyond_far_gate_is_dropped(self):
        fps = [
            make_fp(id="f0", position=(0.0, 0.0)),
            make_fp(id="f1", position=(25.0, 0.0)),
        ]
        assert list(enumerate_pairs(fps)) == []

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
    # one two-fingerprint floor per pair gives exactly the requested class counts
    fps = []
    for k, apart in enumerate([1.0] * n_close + [4.0] * n_far):
        floor = ("ds", "0", f"{k:02d}")
        fps += [make_fp(id=f"p{k}a", floor=floor),
                make_fp(id=f"p{k}b", position=(apart, 0.0), floor=floor)]
    pool = enumerate_pairs(fps)
    assert sum(p.label is ProximityClass.CLOSE for p in pool) == n_close
    assert len(pool) == n_close + n_far
    return pool


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


def _ulps(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


_GATES = (CLOSE_MAX_M, FAR_MIN_M, FAR_MAX_M)


class TestAgainstCombinationLoop:
    """``enumerate_pairs`` gives the pairs, distances and labels of the old loop."""

    @pytest.mark.parametrize("gate", _GATES)
    @pytest.mark.parametrize("steps", [-1, 0, 1])
    def test_gate_distances_label_as_math_dist_and_classify(self, gate, steps):
        d = _ulps(gate, steps)
        fps = [make_fp(id="a"), make_fp(id="b", position=(d, 0.0)),
               make_fp(id="c", position=(0.0, -d))]
        pairs = enumerate_pairs(fps)
        assert _facts(pairs) == _facts(enumerate_pairs_oracle(fps))
        want = PairingConfig().classify(d)
        got = {p.key: (p.distance_m, p.label) for p in pairs}
        assert [got.get(k) for k in (("a", "b"), ("a", "c"))] == (
            [(d, want)] * 2 if want is not None else [None, None])

    def test_coincident_fingerprints_are_close(self):
        fps = [make_fp(id="a", position=(1.5, -2.0)), make_fp(id="b", position=(1.5, -2.0))]
        assert _facts(enumerate_pairs(fps)) == [(("a", "b"), 0.0, ProximityClass.CLOSE)]

    def test_off_axis_pairs_at_the_gates_label_as_the_loop(self):
        # pairs a gate apart in random directions from random points: a
        # vectorized distance rounds differently from math.dist on some of them
        rng = random.Random(20261020)
        fps = []
        for k in range(1500):
            gate, floor = _GATES[k % 3], ("ds", "gate", f"{k:04d}")
            x, y, theta = rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0, 2 * math.pi)
            fps += [make_fp(id=f"{k}a", position=(x, y), floor=floor),
                    make_fp(id=f"{k}b", position=(x + gate * math.cos(theta),
                                                  y + gate * math.sin(theta)), floor=floor)]
        want = enumerate_pairs_oracle(fps)
        for g in range(len(_GATES)):  # each gate keeps some of its pairs and drops the rest
            assert 0 < sum(int(p.a.floor_key[2]) % 3 == g for p in want) < 500
        assert _facts(enumerate_pairs(fps)) == _facts(want)

    @given(st.lists(
        st.tuples(
            st.sampled_from([("ds", "0", "0"), ("ds", "0", "1"), ("other", "1", "0")]),
            st.one_of(st.floats(-25, 25), st.sampled_from([0.0, *_GATES, -2.25, 1e-310]),
                      st.floats(allow_nan=False, allow_infinity=False)),
            st.one_of(st.floats(-25, 25), st.sampled_from([0.0, *_GATES, -20.0])),
            st.booleans(),
        ),
        max_size=40,
    ), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_loop(self, specs, shuffle):
        fps = [make_fp(id=f"f{k:02d}", floor=floor, position=(x, y),
                       readings={bss(1): -50.0} if seen else {})
               for k, (floor, x, y, seen) in enumerate(specs)]
        shuffle.shuffle(fps)
        pairs = enumerate_pairs(fps)
        want = enumerate_pairs_oracle(fps)
        assert len(pairs) == len(want)
        assert _facts(pairs) == _facts(want)
        assert [_facts([pairs[k]]) for k in range(-len(pairs), 0)] == [_facts([p]) for p in want]
        assert _facts(pairs[1::2]) == _facts(want[1::2])
        n_close = sum(p.label is ProximityClass.CLOSE for p in want)
        n_far = len(want) - n_close
        for c, f in ((n_close, n_far), (n_close // 2, n_far // 3)):
            picked = sample_training_set(pairs, c, f, seed=len(specs))
            assert _facts(picked) == _facts(sample_oracle(want, c, f, seed=len(specs)))
            taken = {p.key for p in picked}
            assert _facts(holdout(pairs, picked)) == _facts(p for p in want if p.key not in taken)

    def test_repeated_id_on_a_floor_fails_as_the_loop_does(self):
        fps = [make_fp(id="a"), make_fp(id="b", position=(1.0, 0.0)),
               make_fp(id="a", position=(2.0, 0.0))]
        with pytest.raises(ValueError) as want:
            enumerate_pairs_oracle(fps)
        with pytest.raises(ValueError) as got:
            enumerate_pairs(fps)
        assert str(got.value) == str(want.value) == "cannot pair a fingerprint with itself"

    def test_repeated_id_outside_the_gates_is_dropped_as_by_the_loop(self):
        fps = [make_fp(id="a"), make_fp(id="b", position=(1.0, 0.0)),
               make_fp(id="a", position=(2.75, 0.0))]
        assert _facts(enumerate_pairs(fps)) == _facts(enumerate_pairs_oracle(fps))

    def test_large_floor_matches_the_loop(self):
        # more fingerprints than one block of rows holds
        rng = random.Random(5)
        fps = [make_fp(id=f"f{k:04d}", position=(rng.uniform(0, 40), rng.uniform(0, 25)))
               for k in range(600)]
        assert _facts(enumerate_pairs(fps)) == _facts(enumerate_pairs_oracle(fps))
