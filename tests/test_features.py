"""Feature registry, calibration, correlation kernels, extraction, tables."""

import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import os
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from wifiprox import features
from wifiprox.core import ProximityClass
from wifiprox.features import (
    FEATURE_NAMES,
    MONOTONE_INVARIANT_NAMES,
    N_FEATURES,
    VARIANTS,
    FeatureTable,
    FeatureVector,
    NonFiniteFeatureError,
    extract,
    extract_many,
    fit_least_squares,
    identical_devices,
    read_feature_table,
    table_from_vectors,
    write_feature_table,
)
from wifiprox.pairing import enumerate_pairs, make_pair
from wifiprox.synth import generate_site, site_config_for_density

from conftest import bss, make_fp, pair_of, random_readings
from feature_oracles import (
    ap_detection_features,
    extract_oracle,
    kendall,
    one_row,
    read_feature_table_oracle,
    write_feature_table_oracle,
)
from test_golden import _dense_pairs as _golden_dense_pairs
from test_golden import _fuzz_pairs

GOLDEN = Path(__file__).parent / "data" / "feature_names.txt"


# ---------------------------------------------------------------------------
# Oracles: feature families computed directly on raw fingerprints,
# independently of the vectorized per-variant block in features.py
# ---------------------------------------------------------------------------

def _shared_readings(a, b):
    ids = sorted(set(a.readings) & set(b.readings))
    return [a.readings[i] for i in ids], [b.readings[i] for i in ids]


def manhattan_euclidean(a, b):
    """L1 and L2 distances over the shared-AP RSSI vectors; (0, 0) if none."""
    x, y = _shared_readings(a, b)
    l1 = sum(abs(u - v) for u, v in zip(x, y))
    return float(l1), math.sqrt(sum((u - v) ** 2 for u, v in zip(x, y)))


def shared_top_ap_within(a, b, z):
    """1.0 iff some shared AP is within z dBm of the maximum in *both*."""
    x, y = _shared_readings(a, b)
    if not x:
        return 0.0
    max_a = max(a.readings.values())
    max_b = max(b.readings.values())
    depth = min(max(max_a - u, max_b - v) for u, v in zip(x, y))
    return 1.0 if depth <= z else 0.0


def rssi_within_fraction(a, b, z):
    """Fraction of shared APs whose two readings differ by at most z dBm."""
    x, y = _shared_readings(a, b)
    if not x:
        return 0.0
    return sum(abs(u - v) <= z for u, v in zip(x, y)) / len(x)


def shared_top_k(a, b, k):
    """1.0 iff both have >= k APs and their k strongest coincide as sets."""
    if a.ap_count < k or b.ap_count < k:
        return 0.0

    def top(readings):
        return set(sorted(readings, key=lambda i: (-readings[i], i))[:k])

    return 1.0 if top(a.readings) == top(b.readings) else 0.0


def redpin_score(p, q):
    """Asymmetric match score of q against p, normalized by p's AP count.

    Every AP of p contributes: 1 when q sees it within 10 dBm, 0.5 when q
    sees it at any other level, and -0.4 when q does not see it at all.
    """
    if not p.readings:
        return 0.0
    total = 0.0
    for ap, rssi in p.readings.items():
        other = q.readings.get(ap)
        if other is None:
            total -= 0.4
        elif abs(rssi - other) <= 10.0:
            total += 1.0
        else:
            total += 0.5
    return total / len(p.readings)


def rank_concordance(a, b):
    """Fraction of shared-AP pairs whose RSSI ordering agrees across a and b.

    A pair tied in both fingerprints counts as concordant, tied in exactly
    one counts 0.5.  Fewer than two shared APs gives 0.
    """
    x, y = _shared_readings(a, b)
    pairs = list(itertools.combinations(range(len(x)), 2))
    if not pairs:
        return 0.0
    score = 0.0
    for i, j in pairs:
        tie_x, tie_y = x[i] == x[j], y[i] == y[j]
        if tie_x and tie_y:
            score += 1.0
        elif tie_x or tie_y:
            score += 0.5
        elif (x[i] > x[j]) == (y[i] > y[j]):
            score += 1.0
    return score / len(pairs)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_total_count(self):
        assert N_FEATURES == 323
        assert len(FEATURE_NAMES) == 323

    def test_composition(self):
        # 5 AP-detection + 79 per calibration variant + 2 device features
        by_variant = {v: [n for n in FEATURE_NAMES if n.endswith("." + v)] for v in VARIANTS}
        assert len(by_variant["single_ls"]) == 79
        assert len(by_variant["single_half_ls"]) == 79
        assert len(by_variant["double_ls"]) == 79
        assert len(by_variant["none"]) == 5 + 79 + 2

    def test_family_sizes_within_variant(self):
        block = [n for n in FEATURE_NAMES if n.endswith(".single_ls")]
        fam = {}
        for n in block:
            fam.setdefault(n.split(".")[0], []).append(n)
        assert {k: len(v) for k, v in fam.items()} == {
            "dist": 2,
            "top_ap_within": 15,
            "rssi_within_pct": 15,
            "shared_top_k": 8,
            "redpin": 2,
            "corr_rssi": 4,
            "corr_pairdiff": 4,
            "corr_pairratio": 4,
            "corr_rank": 4,
            "diff_rssi": 7,
            "diff_pairdiff": 7,
            "diff_pairratio": 7,
        }

    def test_names_unique_and_well_formed(self):
        assert len(set(FEATURE_NAMES)) == len(FEATURE_NAMES)
        for n in FEATURE_NAMES:
            family, parameter, variant = n.split(".")
            assert variant in VARIANTS
            assert family and parameter

    def test_matches_golden_file(self):
        golden = GOLDEN.read_text().splitlines()
        assert list(FEATURE_NAMES) == golden

    def test_monotone_invariant_subset(self):
        assert set(MONOTONE_INVARIANT_NAMES) <= set(FEATURE_NAMES)
        # 2 rank stats over shared RSSIs x 4 variants, all 16 corr_rank,
        # plus the rank-concordance device feature
        assert len(MONOTONE_INVARIANT_NAMES) == 8 + 16 + 1
        assert "device.re3.none" in MONOTONE_INVARIANT_NAMES
        # pairwise ratios are not preserved by affine recalibration, and
        # rounding breaks ties among pairwise differences
        assert not any(n.startswith(("corr_pairratio", "corr_pairdiff"))
                       for n in MONOTONE_INVARIANT_NAMES)

    def test_vector_length_checked(self):
        with pytest.raises(ValueError):
            FeatureVector(values=np.zeros(3))


# ---------------------------------------------------------------------------
# Least-squares calibration
# ---------------------------------------------------------------------------

class TestLeastSquares:
    def test_recovers_exact_affine_map(self):
        a = make_fp(id="a", readings={bss(i): float(-80 + 3 * i) for i in range(1, 7)})
        b = make_fp(
            id="b",
            readings={k: 1.3 * v - 7.0 for k, v in a.readings.items()},
            position=(1.0, 0.0),
        )
        A, B, C, D = fit_least_squares(a, b)
        assert math.isclose(A, 1.3, abs_tol=1e-12)
        assert math.isclose(B, -7.0, abs_tol=1e-9)
        # reverse direction is the inverse map
        assert math.isclose(C, 1 / 1.3, abs_tol=1e-12)
        assert math.isclose(D, 7.0 / 1.3, abs_tol=1e-9)

    def test_no_shared_aps_falls_back_to_identity(self):
        a = make_fp(id="a", readings={bss(1): -50.0})
        b = make_fp(id="b", readings={bss(2): -60.0}, position=(1.0, 0.0))
        assert fit_least_squares(a, b) == (1.0, 0.0, 1.0, 0.0)

    def test_zero_variance_source_keeps_unit_slope(self):
        a = make_fp(id="a", readings={bss(1): -50.0, bss(2): -50.0})
        b = make_fp(id="b", readings={bss(1): -60.0, bss(2): -70.0}, position=(1.0, 0.0))
        A, B, C, D = fit_least_squares(a, b)
        assert (A, B) == (1.0, -15.0)  # slope 1, offset = mean(y) - mean(x)
        # reverse direction is a real fit: y varies
        assert C != 1.0

    def test_single_shared_ap_is_zero_variance(self):
        a = make_fp(id="a", readings={bss(1): -50.0})
        b = make_fp(id="b", readings={bss(1): -58.0}, position=(1.0, 0.0))
        A, B, _, _ = fit_least_squares(a, b)
        assert (A, B) == (1.0, -8.0)

    def test_minimizes_sse_vs_perturbation(self, rng):
        x = rng.normal(-60, 8, size=10)
        y = 0.9 * x + rng.normal(0, 2, size=10) + 3
        A, B = features._fit_line(x, y)
        base = float(np.sum((A * x + B - y) ** 2))
        for dA in (-1e-3, 1e-3):
            for dB in (-1e-3, 1e-3):
                assert base <= np.sum(((A + dA) * x + (B + dB) - y) ** 2)


# ---------------------------------------------------------------------------
# Correlation and rank kernels vs library oracles
# ---------------------------------------------------------------------------

def _vec_pairs(rng, n_trials=30):
    for _ in range(n_trials):
        n = int(rng.integers(2, 51))
        u = rng.integers(-95, -30, size=n).astype(float)
        v = rng.integers(-95, -30, size=n).astype(float)
        yield u, v


def _heavy_ties(rng):
    # 3000 entries over 41 x 41 values: few tie groups, far past the sign path
    u = rng.integers(-20, 21, size=3000).astype(float)
    v = np.clip(u + rng.integers(-6, 7, size=3000), -20, 20).astype(float)
    return u, v


def _long_pair_ratios(rng):
    # ratios of 80 readings: thousands of distinct values in both vectors
    x = rng.integers(-95, -30, size=80).astype(float)
    y = np.clip(x + rng.normal(0, 6, size=80), -99, -20)
    return features._pair_ratios(x), features._pair_ratios(y)


def _with_groups(rng, m, ku, kv):
    """m entries taking ku resp. kv distinct values, in shuffled order."""
    u = np.concatenate([np.arange(ku), rng.integers(0, ku, size=m - ku)]).astype(float)
    v = np.concatenate([np.arange(kv), rng.integers(0, kv, size=m - kv)]).astype(float)
    return rng.permutation(u), rng.permutation(v)


#: name -> rng -> (u, v)
_KENDALL_LONG_CASES = {
    "heavy-ties-3000": _heavy_ties,
    "scipy-long-pair-ratios": _long_pair_ratios,
    # 80 x 81 groups at m = 100
    "few-groups-100": lambda rng: _with_groups(rng, 100, 80, 81),
    # every entry distinct: v's ranks fill uint8
    "direct-at-max-all-distinct": lambda rng: _with_groups(rng, 256, 256, 256),
    # one entry past the direct count, 200 x 150 groups
    "few-groups-257": lambda rng: _with_groups(rng, 257, 200, 150),
    # one entry past the direct count, differing from 256 tied ones
    "tied-but-one-257": lambda rng: (
        np.r_[np.full(256, -60.0), -59.0],
        rng.integers(-95, -30, size=257).astype(float),
    ),
    "blocks-past-direct-all-distinct": lambda rng: _with_groups(rng, 257, 257, 257),
    # 128 x 256 and 129 x 256 groups at m = 1000
    "few-groups-1000": lambda rng: _with_groups(rng, 1000, 128, 256),
    "few-groups-1000-129": lambda rng: _with_groups(rng, 1000, 129, 256),
    # one entry differs from 199 tied ones
    "tied-but-one-200": lambda rng: (
        np.r_[np.full(199, -60.0), -59.0],
        rng.integers(-95, -30, size=200).astype(float),
    ),
}


def _count_kendall_paths(monkeypatch):
    """Count the calls of Kendall's sorted count and of its per-row block count."""
    taken = {}

    def counting(path, f):
        def wrapper(*args):
            taken[path] = taken.get(path, 0) + 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(features, "_tau_b_sorted",
                        counting("sorted", features._tau_b_sorted))
    monkeypatch.setattr(features, "_block_inversions",
                        counting("blocks", features._block_inversions))
    return taken


def _kendall_paths(m, rows=1):
    """The calls that ``_count_kendall_paths`` sees for one call of ``rows``
    defined rows of m >= 2 entries: it follows m alone."""
    return {"sorted": 1} if m <= features.KENDALL_DIRECT_MAX else {"sorted": 1, "blocks": rows}


class TestKernels:
    def test_pearson_matches_numpy(self, rng):
        for u, v in _vec_pairs(rng):
            with np.errstate(invalid="ignore"):
                expected = np.corrcoef(u, v)[0, 1]
            if np.isnan(expected):
                continue
            assert math.isclose(one_row(features._pearson, u, v), expected, abs_tol=1e-12)

    @pytest.mark.filterwarnings("ignore::scipy.stats.ConstantInputWarning")
    def test_spearman_matches_scipy_with_ties(self, rng):
        for u, v in _vec_pairs(rng):
            expected = stats.spearmanr(u, v).statistic
            if np.isnan(expected):
                continue
            assert math.isclose(one_row(features._spearman, u, v), expected, abs_tol=1e-12)

    def test_kendall_small_path_matches_scipy(self, rng):
        # integer RSSIs produce plenty of ties; up to 64 entries the sorted
        # count evaluates the signs rule's expression, which may differ from
        # scipy's in the last bits only
        for u, v in _vec_pairs(rng):
            expected = stats.kendalltau(u, v).statistic
            if np.isnan(expected):
                continue
            got = one_row(features._kendall, u, v)
            assert abs(got - expected) <= 4 * np.spacing(abs(expected)), (got, expected)

    @pytest.mark.parametrize("case", sorted(_KENDALL_LONG_CASES))
    def test_kendall_long_input_equals_scipy_exactly(self, case, monkeypatch):
        u, v = _KENDALL_LONG_CASES[case](np.random.default_rng(2108))
        expected = stats.kendalltau(u, v).statistic
        taken = _count_kendall_paths(monkeypatch)
        got = one_row(features._kendall, u, v)
        assert taken == _kendall_paths(len(u))
        assert got == expected
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @given(
        st.integers(features.KENDALL_SIGNS_MAX + 1, 181),
        st.one_of(st.integers(2, 8), st.integers(9, 181)),
        st.one_of(st.integers(2, 8), st.integers(9, 181)),
        st.integers(0, 2**32 - 1),
    )
    @example(m=181, ku=181, kv=181, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_kendall_direct_count_past_signs_equals_scipy(self, m, ku, kv, seed):
        # 2..8 groups tie heavily, ku >= m leaves every entry distinct; the
        # direct count takes every length here
        assert 181 <= features.KENDALL_DIRECT_MAX
        u, v = _with_groups(np.random.default_rng(seed), m, min(ku, m), min(kv, m))
        expected = stats.kendalltau(u, v).statistic
        with pytest.MonkeyPatch.context() as mp:
            taken = _count_kendall_paths(mp)
            got = one_row(features._kendall, u, v)
        assert taken == _kendall_paths(m)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @given(
        st.one_of(
            st.integers(features.KENDALL_SIGNS_MAX + 1, 8010),
            # a square and either side of it, where the block size ceil(sqrt(m)) steps
            st.integers(9, 89).flatmap(lambda s: st.sampled_from([s * s - 1, s * s, s * s + 1])),
        ),
        st.one_of(st.integers(2, 8), st.integers(9, 8010)),
        st.one_of(st.integers(2, 8), st.integers(9, 8010)),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example(m=8010, ku=300, kv=8010, dominant=True, seed=0)
    @example(m=8010, ku=8010, kv=8010, dominant=False, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_kendall_past_signs_equals_scipy_at_every_length(self, m, ku, kv, dominant, seed):
        # dominant: one group of u holds all but ku - 1 entries
        rng = np.random.default_rng(seed)
        ku, kv = min(ku, m), min(kv, m)
        u, v = _with_groups(rng, m, ku, kv)
        if dominant:
            u = rng.permutation(np.r_[np.zeros(m - ku + 1), np.arange(1, ku)])
        expected = stats.kendalltau(u, v).statistic
        with pytest.MonkeyPatch.context() as mp:
            taken = _count_kendall_paths(mp)
            got = one_row(features._kendall, u, v)
        assert taken == _kendall_paths(m)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @given(
        st.sampled_from([features.KENDALL_SIGNS_MAX + 1, 255, 256, 257]),
        st.sampled_from([-1, 0, 1]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example(m=256, off=1, nan=True, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_kendall_batch_equals_scipy_across_compare_chunks(self, m, off, nan, seed):
        # every v entry distinct (kv = m: v's ranks fill uint8 at m = 256),
        # NaN entries (each its own group) and a number of rows one short
        # of, at or one past a chunk of the direct count
        rng = np.random.default_rng(seed)
        step = max(1, features.KENDALL_COMPARE_CELLS // (m * m))
        n = max(1, step + off)
        u = rng.integers(0, rng.integers(2, m + 1, size=(n, 1)), size=(n, m)).astype(float)
        u[:, 0] = -1.0  # at least two groups
        v = rng.permuted(np.tile(np.arange(m, dtype=float), (n, 1)), axis=1)
        if nan:
            u[rng.random(u.shape) < 0.05] = np.nan
            v[rng.random(v.shape) < 0.05] = np.nan
        ru, rv = features._Ranked(u), features._Ranked(v)
        assert (rv.groups == m).all()
        pairs = np.c_[np.arange(n), rng.permutation(n)]
        # u against v, and u against u's rows, whose ties meet u's (joint ties)
        for left, right in ((ru, rv), (ru, ru)):
            with pytest.MonkeyPatch.context() as mp:
                taken = _count_kendall_paths(mp)
                got = features._kendall(left, right, pairs)
            assert taken == _kendall_paths(m, n)
            # tau-b reads only each entry's group, so the dense ranks are scipy's input
            expected = [stats.kendalltau(left.dense[i], right.dense[j]).statistic
                        for i, j in pairs]
            assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("shared, rows", [
        pytest.param(200, 1, id="200"),
        pytest.param(300, 1, id="300"),
        # a dense pair's four variants, each a row of the call
        pytest.param(200, 4, id="200-4-rows"),
        pytest.param(300, 4, id="300-4-rows"),
    ])
    def test_kendall_block_count_stays_within_8_mib(self, shared, rows):
        # all-distinct pair ratios of 39,800 and 89,700 entries, past any preset:
        # rows are sorted a chunk at a time and the block count compares in
        # chunks, so only arrays of a few rows of m entries remain.  Four rows
        # pair a's three calibrated forms with b's two, as a pair's variants do
        rng = np.random.default_rng(shared)
        x = rng.uniform(-95, -30, shared)
        y = x + rng.normal(0, 6, shared)
        if rows == 1:
            forms_a, forms_b, pairs = [x], [y], ((0, 0),)
        else:
            forms_a, forms_b = [x, 0.9 * x - 4, 0.45 * x - 2], [y, 1.1 * y + 3]
            pairs = features._VARIANT_FORMS
        u, v = (features._Ranked(features._pair_ratios(np.array(f))) for f in (forms_a, forms_b))
        assert (u.groups == shared * (shared - 1)).all()
        assert (v.groups == shared * (shared - 1)).all()
        tracemalloc.start()
        try:
            got = features._kendall(u, v, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        expected = [stats.kendalltau(u.values[i], v.values[j]).statistic for i, j in pairs]
        assert got.tobytes() == np.array(expected).tobytes()

    @given(
        st.integers(2, features.KENDALL_SIGNS_MAX),
        st.sampled_from([-1, 0, 1]),
        st.sampled_from([0.0, 0.05, 0.3]),
        st.integers(0, 2**32 - 1),
    )
    @example(m=features.KENDALL_SIGNS_MAX, off=1, share=0.05, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_kendall_short_rows_take_the_sorted_count(self, m, off, share, seed):
        # tied integer entries, a share of them replaced by NaN, +-inf (once or
        # repeated), +-0.0 or +-1e308; at m = 64 the rows number one short of,
        # at or one past a chunk of the direct count
        rng = np.random.default_rng(seed)
        if m == features.KENDALL_SIGNS_MAX:
            n = features.KENDALL_COMPARE_CELLS // (m * m) + off
        else:
            n = int(rng.integers(1, 9))
        u, v = (rng.integers(-4, 5, size=(n, m)).astype(float) for _ in range(2))
        for a in (u, v):
            hit = rng.random(a.shape) < share
            a[hit] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308], hit.sum())
        u[0, :2] = v[0, :2] = (-1.0, 1.0)  # pair (0, 0) is defined
        pairs = np.c_[np.arange(n), rng.permutation(n)]
        pairs[0] = (0, 0)
        with pytest.MonkeyPatch.context() as mp:
            taken = _count_kendall_paths(mp)
            got = features._kendall(features._Ranked(u), features._Ranked(v), pairs)
        assert taken == _kendall_paths(m)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = [kendall(u[i], v[j]) for i, j in pairs]
        # NaN payloads may differ, so values are compared, NaN positions included
        np.testing.assert_array_equal(got, expected)

    def test_kendall_path_consistency_at_boundary(self, rng):
        # 64-entry rows take the signs rule's expression, within 4 ULP of
        # scipy's; the same rows with a 65th entry give scipy's bits
        u = rng.integers(-95, -30, size=(8, 64)).astype(float)
        v = rng.integers(-95, -30, size=(8, 64)).astype(float)
        v[1] = u[1]  # every tie of this row pair is a joint tie
        pairs = np.c_[np.arange(8), np.arange(8)]
        got = features._kendall(features._Ranked(u), features._Ranked(v), pairs)
        expected = np.array([stats.kendalltau(a, b).statistic for a, b in zip(u, v)])
        assert got.tobytes() == np.array([kendall(a, b) for a, b in zip(u, v)]).tobytes()
        assert (np.abs(got - expected) <= 4 * np.spacing(np.abs(expected))).all()
        extra = rng.integers(-95, -30, size=(2, 8, 1)).astype(float)
        u, v = np.c_[u, extra[0]], np.c_[v, extra[1]]
        v[1] = u[1]
        got = features._kendall(features._Ranked(u), features._Ranked(v), pairs)
        expected = np.array([stats.kendalltau(a, b).statistic for a, b in zip(u, v)])
        assert got.tobytes() == expected.tobytes()

    def test_cosine_hand_value(self):
        u = np.array([1.0, 0.0])
        v = np.array([1.0, 1.0])
        assert math.isclose(one_row(features._cosine, u, v), 1 / math.sqrt(2), abs_tol=1e-15)

    @pytest.mark.parametrize("n", [*range(2, 15), 33, 63, 88])
    def test_stacked_dots_keep_1d_matmul_bits(self, n):
        # the row lengths the kernels see for n shared APs: the readings, their
        # n(n-1)/2 pair differences and n(n-1) pair ratios; a BLAS whose
        # stacked matmul rounds unlike 1-D ``@`` fails here, not in a golden hash
        rng = np.random.default_rng(n)
        for length in (n, n * (n - 1) // 2, n * (n - 1)):
            x = rng.integers(-95, -30, size=(8, length)).astype(float)
            y = rng.integers(-95, -30, size=(8, length)).astype(float)
            u = rng.uniform(0.5, 1.5, (8, 1)) * x + rng.uniform(-10, 10, (8, 1))
            u -= u.mean(axis=1, keepdims=True)
            v = y - y.mean(axis=1, keepdims=True)
            for a, b in ((u, v), (x, y), (u, u)):
                want = np.array([row_a @ row_b for row_a, row_b in zip(a, b)]).tobytes()
                assert np.vecdot(a, b).tobytes() == want, (n, length)
                assert np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0].tobytes() == want

    def test_avg_ranks_matches_scipy(self, rng):
        for _ in range(20):
            rows = rng.integers(-10, 10, size=(3, int(rng.integers(1, 40)))).astype(float)
            ranked = features._Ranked(rows)
            for i, v in enumerate(rows):
                np.testing.assert_array_equal(ranked.average()[i], stats.rankdata(v))
                np.testing.assert_array_equal(ranked.top()[i], stats.rankdata(v, method="max"))
                np.testing.assert_array_equal(ranked.dense[i], stats.rankdata(v, method="dense") - 1)
                counts = np.unique(v, return_counts=True)[1]
                assert ranked.groups[i] == counts.size
                assert ranked.tied[i] == int((counts * (counts - 1) // 2).sum())

    @pytest.mark.parametrize("kernel", ["_cosine", "_pearson", "_spearman", "_kendall"])
    def test_degenerate_inputs_give_zero(self, kernel):
        f = getattr(features, kernel)
        assert one_row(f, np.empty(0), np.empty(0)) == 0.0
        assert one_row(f, np.array([1.0]), np.array([2.0])) == 0.0
        if kernel != "_cosine":
            const = np.array([5.0, 5.0, 5.0])
            vary = np.array([1.0, 2.0, 3.0])
            assert one_row(f, const, vary) == 0.0

    @given(
        st.lists(st.integers(-95, -30), min_size=2, max_size=40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_correlations_bounded_and_symmetric(self, xs, seed):
        u = np.array(xs, dtype=float)
        v = np.random.default_rng(seed).permutation(u) - 1.0
        for f in (features._spearman, features._kendall):
            r = one_row(f, u, v)
            assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12
            assert math.isclose(r, one_row(f, v, u), abs_tol=1e-12)

    def test_stats7_hand_values(self):
        v = np.array([1.0, 2.0, 4.0])
        mn, mx, mean, median, hmean, std_s, std_p = features._stats7(v[None])[0]
        assert (mn, mx, median) == (1.0, 4.0, 2.0)
        assert math.isclose(mean, 7 / 3)
        assert math.isclose(hmean, 3 / (1 + 0.5 + 0.25))
        assert math.isclose(std_s, np.std(v, ddof=1))
        assert math.isclose(std_p, np.std(v, ddof=0))

    def test_stats7_zero_value_kills_harmonic_mean(self):
        with np.errstate(divide="ignore"):  # extract runs every kernel this way
            assert features._stats7(np.array([[0.0, 2.0]]))[0, 4] == 0.0

    def test_stats7_empty_and_singleton(self):
        assert features._stats7(np.empty((1, 0))).tolist() == [[0.0] * 7]
        out = features._stats7(np.array([[3.0]]))[0].tolist()
        assert out[:5] == [3.0, 3.0, 3.0, 3.0, 3.0]
        assert out[5] == 0.0  # sample std undefined for n=1

    def test_pair_differences_order(self):
        v = np.array([5.0, 3.0, 2.0])
        np.testing.assert_array_equal(
            features._pair_differences(v), [2.0, 3.0, 1.0]
        )

    def test_pair_ratios_order_and_zero_substitution(self):
        v = np.array([4.0, 0.0])
        out = features._pair_ratios(v)
        np.testing.assert_allclose(out, [4.0 / -0.5, -0.5 / 4.0])


# ---------------------------------------------------------------------------
# Feature families
# ---------------------------------------------------------------------------

def _ap_columns(pair) -> list[float]:
    """``extract``'s five AP-detection values for ``pair``."""
    return extract(pair).values[:5].tolist()


#: name -> (a's AP numbers, b's), each sorted and unique by BSSID
_SHARED_INDEX_CASES = {
    "overlap": ([1, 3, 5, 7, 9], [2, 3, 4, 9, 11, 12]),
    "identical": ([4, 5, 6], [4, 5, 6]),
    "disjoint": ([1, 2, 3], [4, 5, 6, 7]),
    "interleaved-disjoint": ([1, 3, 5], [2, 4, 6]),
    "a-past-b": ([8, 9], [1, 2, 3]),
    "a-empty": ([], [1, 2]),
    "b-empty": ([1, 2], []),
    "both-empty": ([], []),
    "one-ap-shared": ([7], [7]),
    "one-ap-apart": ([7], [8]),
    "one-ap-in-many": ([5], [1, 5, 9]),
}


class TestFamilies:
    @pytest.mark.parametrize("case", sorted(_SHARED_INDEX_CASES))
    def test_shared_index_equals_intersect1d(self, case):
        a_ids, b_ids = _SHARED_INDEX_CASES[case]
        a = make_fp(id="a", readings={bss(i): -50.0 - i for i in a_ids})
        b = make_fp(id="b", readings={bss(i): -60.0 - i for i in b_ids}, position=(1.0, 0.0))
        for x, y in ((a, b), (b, a)):
            got = features._shared_index(x, y)
            _, *want = np.intersect1d(x.encoding[0], y.encoding[0], assume_unique=True,
                                      return_indices=True)
            assert [g.dtype for g in got] == [w.dtype for w in want] == [np.intp, np.intp]
            assert [g.tolist() for g in got] == [w.tolist() for w in want]

    def test_ap_detection_hand_values(self):
        a = make_fp(id="a", readings={bss(1): -50.0, bss(2): -60.0, bss(3): -70.0})
        b = make_fp(
            id="b",
            readings={bss(2): -55.0, bss(3): -65.0, bss(4): -75.0, bss(5): -80.0},
            position=(1.0, 0.0),
        )
        shared, union, non_shared, count_diff, jaccard = ap_detection_features(a, b)
        assert (shared, union, non_shared, count_diff) == (2.0, 5.0, 3.0, 1.0)
        assert math.isclose(jaccard, 2 / 5)
        assert _ap_columns(make_pair(a, b, 1.0, ProximityClass.CLOSE)) == [2.0, 5.0, 3.0, 1.0, 2 / 5]

    def test_ap_detection_no_readings(self):
        a = make_fp(id="a", readings={})
        b = make_fp(id="b", readings={}, position=(1.0, 0.0))
        assert ap_detection_features(a, b) == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert _ap_columns(make_pair(a, b, 1.0, ProximityClass.CLOSE)) == [0.0] * 5

    def test_manhattan_euclidean_hand_values(self):
        a = make_fp(id="a", readings={bss(1): -50.0, bss(2): -60.0})
        b = make_fp(id="b", readings={bss(1): -53.0, bss(2): -56.0}, position=(1.0, 0.0))
        l1, l2 = manhattan_euclidean(a, b)
        assert l1 == 7.0
        assert math.isclose(l2, 5.0)

    def test_manhattan_euclidean_no_shared(self):
        a = make_fp(id="a", readings={bss(1): -50.0})
        b = make_fp(id="b", readings={bss(2): -60.0}, position=(1.0, 0.0))
        assert manhattan_euclidean(a, b) == (0.0, 0.0)

    def test_shared_top_ap_within_uses_full_maxima(self):
        # strongest AP of a (bss 9) is NOT shared; depth is measured from the
        # full-fingerprint maxima, so the shared AP sits 5 dBm below a's top
        # and 2 dBm below b's top
        a = make_fp(id="a", readings={bss(9): -40.0, bss(1): -45.0})
        b = make_fp(id="b", readings={bss(1): -52.0, bss(2): -50.0}, position=(1.0, 0.0))
        assert shared_top_ap_within(a, b, 4.9) == 0.0
        assert shared_top_ap_within(a, b, 5.0) == 1.0

    def test_rssi_within_fraction_hand(self):
        a = make_fp(id="a", readings={bss(1): -50.0, bss(2): -60.0, bss(3): -70.0})
        b = make_fp(
            id="b",
            readings={bss(1): -51.0, bss(2): -66.0, bss(3): -90.0},
            position=(1.0, 0.0),
        )
        assert rssi_within_fraction(a, b, 1.0) == pytest.approx(1 / 3)
        assert rssi_within_fraction(a, b, 6.0) == pytest.approx(2 / 3)
        assert rssi_within_fraction(a, b, 25.0) == 1.0

    def test_shared_top_k_set_semantics(self):
        # top-2 sets coincide even though the order differs
        a = make_fp(id="a", readings={bss(1): -40.0, bss(2): -45.0, bss(3): -70.0})
        b = make_fp(
            id="b",
            readings={bss(1): -48.0, bss(2): -44.0, bss(4): -80.0},
            position=(1.0, 0.0),
        )
        assert shared_top_k(a, b, 1) == 0.0
        assert shared_top_k(a, b, 2) == 1.0
        assert shared_top_k(a, b, 3) == 0.0

    def test_shared_top_k_requires_k_aps(self):
        a = make_fp(id="a", readings={bss(1): -40.0})
        b = make_fp(id="b", readings={bss(1): -42.0}, position=(1.0, 0.0))
        assert shared_top_k(a, b, 1) == 1.0
        assert shared_top_k(a, b, 2) == 0.0

    def test_redpin_score_hand_value(self):
        p = make_fp(id="p", readings={bss(1): -50.0, bss(2): -60.0, bss(3): -70.0})
        q = make_fp(
            id="q",
            readings={bss(1): -55.0, bss(2): -75.0},  # match, partial; bss(3) missing
            position=(1.0, 0.0),
        )
        assert redpin_score(p, q) == pytest.approx((1.0 + 0.5 - 0.4) / 3)
        # other direction: both of q's APs are seen by p, one within 10 dBm
        assert redpin_score(q, p) == pytest.approx((1.0 + 0.5) / 2)

    def test_redpin_score_empty_base(self):
        p = make_fp(id="p", readings={})
        q = make_fp(id="q", position=(1.0, 0.0))
        assert redpin_score(p, q) == 0.0

    def test_rank_concordance_hand_value(self):
        # shared APs with RSSIs a=(−50, −60, −60), b=(−55, −65, −52):
        # pair (1,2): a down, b down -> agree; (1,3): a down, b up -> disagree;
        # (2,3): a tied, b up -> one-sided tie, half credit
        a = make_fp(id="a", readings={bss(1): -50.0, bss(2): -60.0, bss(3): -60.0})
        b = make_fp(
            id="b",
            readings={bss(1): -55.0, bss(2): -65.0, bss(3): -52.0},
            position=(1.0, 0.0),
        )
        assert rank_concordance(a, b) == pytest.approx((1.0 + 0.0 + 0.5) / 3)

    def test_rank_concordance_double_tie_counts_full(self):
        a = make_fp(id="a", readings={bss(1): -50.0, bss(2): -50.0})
        b = make_fp(id="b", readings={bss(1): -60.0, bss(2): -60.0}, position=(1.0, 0.0))
        assert rank_concordance(a, b) == 1.0

    def test_rank_concordance_needs_two_shared(self):
        a = make_fp(id="a", readings={bss(1): -50.0})
        b = make_fp(id="b", readings={bss(1): -60.0}, position=(1.0, 0.0))
        assert rank_concordance(a, b) == 0.0

    def test_identical_devices_normalization(self):
        a = make_fp(id="a", device="Pixel-4")
        b = make_fp(id="b", device="  pixel-4 ", position=(1.0, 0.0))
        c = make_fp(id="c", device="pixel-5", position=(1.0, 1.0))
        assert identical_devices(a, b) == 1.0
        assert identical_devices(a, c) == 0.0


# ---------------------------------------------------------------------------
# Full extraction
# ---------------------------------------------------------------------------

def _random_pair(rng, n_a=None, n_b=None):
    n_a = int(rng.integers(1, 12)) if n_a is None else n_a
    n_b = int(rng.integers(1, 12)) if n_b is None else n_b
    return pair_of(random_readings(rng, n_a), random_readings(rng, n_b))


def _dense_pairs(rng, per_density=40, min_shared=12):
    """Medium- and high-density synthetic pairs sharing at least ``min_shared`` APs."""
    out = []
    for density in ("medium", "high"):
        cfg = site_config_for_density(density, site_id=density, seed=45, n_clusters=10)
        pairs = [p for p in enumerate_pairs(generate_site(cfg))
                 if len(p.a.ap_set & p.b.ap_set) >= min_shared]
        out += [pairs[i] for i in rng.choice(len(pairs), per_density, replace=False)]
    return out


_ORACLE_KINDS = (
    "random", "no_shared", "single_ap", "many_shared", "constant", "negative_slope", "zero_dbm",
)


def _oracle_pair(kind, seed):
    """A pair of one of the edge-case kinds that extraction must handle."""
    rng = np.random.default_rng(seed)

    def readings(ids, low=-95, high=-30):
        return {bss(int(i) + 1): float(rng.integers(low, high)) for i in ids}

    extra_a = readings(rng.choice(np.arange(400, 440), int(rng.integers(0, 6)), replace=False))
    extra_b = readings(rng.choice(np.arange(440, 480), int(rng.integers(0, 6)), replace=False))
    if kind == "random":
        return pair_of(random_readings(rng, int(rng.integers(1, 40))),
                       random_readings(rng, int(rng.integers(1, 40))))
    if kind == "no_shared":
        return pair_of({**readings(range(int(rng.integers(0, 12)))), **extra_a},
                       readings(range(20, 20 + int(rng.integers(1, 12)))))
    n = {"single_ap": 1, "many_shared": int(rng.integers(65, 91))}.get(
        kind, int(rng.integers(2, 40))
    )
    shared = rng.choice(400, size=n, replace=False)
    a_read = readings(shared)
    if kind == "constant":
        a_read = dict.fromkeys(a_read, float(rng.integers(-80, -40)))
        b_read = dict.fromkeys(a_read, float(rng.integers(-80, -40)))
    elif kind == "negative_slope":
        # two readings 30 dB apart keep a's spread above the +-3 dB noise on
        # b = -130 - a, so the least-squares slope stays near -1
        first, second = list(a_read)[:2]
        a_read[first], a_read[second] = -50.0, -80.0
        b_read = {k: float(np.clip(-130.0 - v + rng.integers(-3, 4), -99, -20))
                  for k, v in a_read.items()}
    else:
        b_read = {k: float(np.clip(v + rng.normal(0, 6), -99, -20)) for k, v in a_read.items()}
    if kind == "zero_dbm":
        for k in rng.choice(list(a_read), size=max(1, n // 3), replace=False):
            (a_read if rng.integers(2) else b_read)[k] = 0.0
    return pair_of({**a_read, **extra_a}, {**b_read, **extra_b})


class TestAgainstOracle:
    """The four-variant batch gives the per-variant reference's bytes."""

    @given(st.sampled_from(_ORACLE_KINDS), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    @example("no_shared", 1)
    @example("single_ap", 2)
    @example("many_shared", 3)
    @example("constant", 4)
    @example("negative_slope", 5)
    @example("zero_dbm", 6)
    def test_values_equal_oracle_bytes(self, kind, seed):
        pair = _oracle_pair(kind, seed)
        shared = len(pair.a.ap_set & pair.b.ap_set)
        if kind == "no_shared":
            assert shared == 0
        elif kind == "single_ap":
            assert shared == 1
        elif kind == "many_shared":
            assert shared > 64
        elif kind == "negative_slope":
            assert fit_least_squares(pair.a, pair.b)[0] < 0
        elif kind == "zero_dbm":
            assert 0.0 in [*pair.a.readings.values(), *pair.b.readings.values()]
        assert extract(pair).values.tobytes() == extract_oracle(pair).tobytes()

    @pytest.mark.parametrize("shared", [2, 12, 60, 70, 90])
    def test_overflow_names_the_oracle_columns(self, shared):
        rng = np.random.default_rng(shared)
        a_read = {bss(i): float(rng.integers(-95, -30)) for i in range(1, shared + 1)}
        b_read = {k: float(rng.integers(-95, -30)) for k in a_read}
        a_read[bss(1)], b_read[bss(1)] = 1e200, -1e200
        pair = pair_of(a_read, b_read)
        expected = extract_oracle(pair)
        bad = [FEATURE_NAMES[i] for i in np.flatnonzero(~np.isfinite(expected))]
        assert "dist.euclidean.none" in bad
        with pytest.raises(NonFiniteFeatureError) as err:
            extract(pair)
        assert str(err.value) == f"non-finite feature values for pair {pair.key}: {bad}"


class TestExtract:
    def test_shape_names_and_finiteness(self, rng):
        vec = extract(_random_pair(rng))
        assert vec.values.shape == (323,)
        assert list(vec.as_dict()) == list(FEATURE_NAMES)
        assert vec["device.re3.none"] == vec.values[-1]
        assert np.all(np.isfinite(vec.values))

    def test_lookup_by_name_reads_that_column(self, rng):
        vec = extract(_random_pair(rng))
        for i, name in enumerate(FEATURE_NAMES):
            assert vec[name] == vec.values[i]
        with pytest.raises(KeyError):
            vec["no.such.feature"]

    def test_overflow_raises_without_numpy_warnings(self):
        # finite readings whose gap overflows: the error names the features,
        # and no RuntimeWarning from numpy internals comes before it
        pair = pair_of({bss(1): 1e200, bss(2): -50.0}, {bss(1): -1e200, bss(2): -60.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFeatureError, match="dist.euclidean.none"):
                extract(pair)

    def test_none_variant_agrees_with_family_functions(self):
        a = make_fp(
            id="a",
            readings={bss(1): -50.0, bss(2): -60.0, bss(3): -70.0, bss(9): -44.0},
        )
        b = make_fp(
            id="b",
            readings={bss(1): -53.0, bss(2): -64.0, bss(3): -58.0, bss(4): -80.0,
                      bss(5): -82.0},
            position=(1.0, 0.0),
            device="nokia-7",
        )
        pair = make_pair(a, b, 1.0, ProximityClass.CLOSE)
        vec = extract(pair)
        l1, l2 = manhattan_euclidean(a, b)
        assert vec["dist.manhattan.none"] == l1
        assert vec["dist.euclidean.none"] == pytest.approx(l2)
        for z in (1, 5, 15):
            assert vec[f"top_ap_within.z{z:02d}.none"] == shared_top_ap_within(a, b, z)
            assert vec[f"rssi_within_pct.z{z:02d}.none"] == pytest.approx(
                rssi_within_fraction(a, b, z)
            )
        for k in range(1, 9):
            assert vec[f"shared_top_k.k{k}.none"] == shared_top_k(a, b, k)
        # canonical order puts a (fewer APs) first; max_min scores against the
        # AP-richer fingerprint's list
        assert vec["redpin.max_min.none"] == pytest.approx(redpin_score(b, a))
        assert vec["redpin.min_max.none"] == pytest.approx(redpin_score(a, b))
        assert vec["device.identical.none"] == identical_devices(a, b)
        assert vec["device.re3.none"] == pytest.approx(rank_concordance(a, b))

    def test_none_variant_correlations_match_scipy(self, rng):
        shared = {bss(i): float(v) for i, v in enumerate(rng.integers(-90, -40, 8), 1)}
        a = make_fp(id="a", readings={**shared, bss(20): -44.0})
        b_read = {k: float(v) for k, v in zip(shared, rng.integers(-90, -40, 8))}
        b = make_fp(id="b", readings=b_read, position=(1.0, 0.0))
        pair = make_pair(a, b, 1.0, ProximityClass.CLOSE)
        ids = sorted(pair.a.ap_set & pair.b.ap_set)
        x = np.array([pair.a.readings[i] for i in ids])
        y = np.array([pair.b.readings[i] for i in ids])
        vec = extract(pair)
        assert vec["corr_rssi.pearson.none"] == pytest.approx(
            np.corrcoef(x, y)[0, 1], abs=1e-12
        )
        assert vec["corr_rssi.spearman.none"] == pytest.approx(
            stats.spearmanr(x, y).statistic, abs=1e-12
        )
        assert vec["corr_rssi.kendall.none"] == pytest.approx(
            stats.kendalltau(x, y).statistic, abs=1e-12
        )

    def test_no_shared_aps_keeps_every_variant_identical(self):
        a = make_fp(id="a", readings={bss(1): -50.0, bss(2): -61.0})
        b = make_fp(id="b", readings={bss(3): -60.0, bss(4): -72.0}, position=(1.0, 0.0))
        pair = make_pair(a, b, 1.0, ProximityClass.CLOSE)
        vec = extract(pair)
        base = {n: vec[n] for n in FEATURE_NAMES if n.endswith(".none")}
        for variant in VARIANTS[1:]:
            for name, value in base.items():
                if name.startswith(("ap.", "device.")):
                    continue
                other = name.replace(".none", "." + variant)
                assert vec[other] == value, (name, variant)

    def test_single_ls_zeroes_distance_on_affine_pair(self):
        a = make_fp(id="a", readings={bss(i): float(-85 + 4 * i) for i in range(1, 8)})
        b = make_fp(
            id="b",
            readings={k: 0.8 * v + 5.0 for k, v in a.readings.items()},
            position=(1.0, 0.0),
        )
        pair = make_pair(a, b, 1.0, ProximityClass.CLOSE)
        vec = extract(pair)
        assert vec["dist.manhattan.none"] > 10.0
        assert vec["dist.manhattan.single_ls"] < 1e-9
        assert vec["dist.euclidean.single_ls"] < 1e-9
        # double_ls maps each side onto the *other's* scale, so on an exact
        # affine pair the two calibrated vectors swap and the gap is unchanged
        assert vec["dist.manhattan.double_ls"] == pytest.approx(
            vec["dist.manhattan.none"]
        )
        # half-calibration by construction leaves part of the correction undone
        assert vec["dist.manhattan.single_half_ls"] > 1e-6

    def test_single_half_ls_is_literal_half_transform(self):
        rng = np.random.default_rng(7)
        a_read = {bss(i): float(v) for i, v in enumerate(rng.integers(-90, -40, 6), 1)}
        b_read = {k: float(v) for k, v in zip(a_read, rng.integers(-90, -40, 6))}
        a = make_fp(id="a", readings=a_read)
        b = make_fp(id="b", readings=b_read, position=(1.0, 0.0))
        pair = make_pair(a, b, 1.0, ProximityClass.CLOSE)
        A, B, _, _ = fit_least_squares(pair.a, pair.b)
        ids = sorted(set(a_read))
        x = np.array([pair.a.readings[i] for i in ids])
        y = np.array([pair.b.readings[i] for i in ids])
        expected = float(np.abs((A / 2) * x + B / 2 - y).sum())
        assert extract(pair)["dist.manhattan.single_half_ls"] == pytest.approx(expected)

    def test_double_ls_calibrates_both_sides(self):
        rng = np.random.default_rng(11)
        a_read = {bss(i): float(v) for i, v in enumerate(rng.integers(-90, -40, 6), 1)}
        b_read = {k: float(v) for k, v in zip(a_read, rng.integers(-90, -40, 6))}
        a = make_fp(id="a", readings=a_read)
        b = make_fp(id="b", readings=b_read, position=(1.0, 0.0))
        pair = make_pair(a, b, 1.0, ProximityClass.CLOSE)
        A, B, C, D = fit_least_squares(pair.a, pair.b)
        ids = sorted(set(a_read))
        x = np.array([pair.a.readings[i] for i in ids])
        y = np.array([pair.b.readings[i] for i in ids])
        expected = float(np.abs((A * x + B) - (C * y + D)).sum())
        assert extract(pair)["dist.manhattan.double_ls"] == pytest.approx(expected)

    def test_monotone_invariants_survive_affine_recalibration(self, rng):
        for _ in range(25):
            pair = _random_pair(rng, n_a=9, n_b=11)
            alpha = float(rng.uniform(0.5, 2.0))
            beta = float(rng.uniform(-10.0, 10.0))
            recal_a = make_fp(
                id=pair.a.id,
                readings={k: alpha * v + beta for k, v in pair.a.readings.items()},
                position=pair.a.position,
                device=pair.a.device_model,
            )
            recal = make_pair(recal_a, pair.b, pair.distance_m, pair.label)
            v0, v1 = extract(pair), extract(recal)
            for name in MONOTONE_INVARIANT_NAMES:
                assert v0[name] == pytest.approx(v1[name], abs=1e-9), name

    def test_monotone_invariants_exact_on_dense_pairs(self):
        # realistic pairs share dozens of APs, so their pairwise vectors hold
        # many tied entries; every listed feature must keep its exact value
        # when one fingerprint is recalibrated by a positive affine map
        rng = np.random.default_rng(2108)
        index = {n: i for i, n in enumerate(FEATURE_NAMES)}
        cols = [index[n] for n in MONOTONE_INVARIANT_NAMES]
        moved = dict.fromkeys(MONOTONE_INVARIANT_NAMES, 0)
        pairs = _dense_pairs(rng)
        for k, pair in enumerate(pairs):
            alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(-10.0, 10.0)
            a, b = pair.a, pair.b
            side = a if k % 2 else b
            recal = dataclasses.replace(
                side, readings={ap: alpha * v + beta for ap, v in side.readings.items()}
            )
            a, b = (recal, b) if side is a else (a, recal)
            v0 = extract(pair).values[cols]
            v1 = extract(make_pair(a, b, pair.distance_m, pair.label)).values[cols]
            for name, same in zip(MONOTONE_INVARIANT_NAMES, v0 == v1):
                moved[name] += not same
        assert {n: c for n, c in moved.items() if c} == {}, f"of {len(pairs)} pairs"

    def test_swap_is_identity_for_canonical_pairs(self, rng):
        # canonicalization swallows argument order; quick spot check here,
        # the full sweep is in the acceptance suite
        for _ in range(10):
            a = make_fp(id="a", readings=random_readings(rng, 6))
            b = make_fp(id="b", readings=random_readings(rng, 9), position=(1.0, 0.0))
            p1 = make_pair(a, b, 1.0, ProximityClass.CLOSE)
            p2 = make_pair(b, a, 1.0, ProximityClass.CLOSE)
            np.testing.assert_array_equal(extract(p1).values, extract(p2).values)

    def test_swap_is_identity_with_many_shared_aps(self, rng):
        # past 64 shared APs Kendall leaves the pair-enumeration path, and the
        # pair-difference/ratio vectors hold thousands of entries
        def shuffled(fp, id, position):
            items = list(fp.items())
            rng.shuffle(items)
            return make_fp(id=id, readings=dict(items), position=position)

        for i in range(20):
            n_shared = int(rng.integers(65, 91))
            shared = rng.choice(300, size=n_shared, replace=False)
            a_read = {bss(int(j) + 1): float(rng.integers(-95, -30)) for j in shared}
            b_read = {k: float(rng.integers(-95, -30)) for k in a_read}
            for j in rng.choice(np.arange(300, 340), size=int(rng.integers(0, 6)), replace=False):
                (a_read if j % 2 else b_read)[bss(int(j) + 1)] = float(rng.integers(-95, -60))
            forward = make_pair(
                shuffled(a_read, "a", (0.0, 0.0)), shuffled(b_read, "b", (1.0, 0.0)),
                1.0, ProximityClass.CLOSE,
            )
            backward = make_pair(
                shuffled(b_read, "b", (1.0, 0.0)), shuffled(a_read, "a", (0.0, 0.0)),
                1.0, ProximityClass.CLOSE,
            )
            assert len(forward.a.ap_set & forward.b.ap_set) > 64
            np.testing.assert_array_equal(
                extract(forward).values, extract(backward).values, err_msg=f"pair {i}"
            )

    def test_tied_rssis_ignore_insertion_order(self, rng):
        # many equal readings: top-k sets and rank vectors break ties by
        # BSSID, never by the order the readings were inserted in
        def shuffled(readings, id, position):
            items = list(readings.items())
            rng.shuffle(items)
            return make_fp(id=id, readings=dict(items), position=position)

        for i in range(20):
            n_shared = int(rng.integers(2, 80))
            ids = rng.choice(200, size=n_shared + 10, replace=False)
            a_read = {bss(int(j) + 1): float(rng.integers(-62, -58)) for j in ids[:n_shared + 4]}
            b_read = {bss(int(j) + 1): float(rng.integers(-62, -58)) for j in ids[:n_shared]}
            b_read.update({bss(int(j) + 1): -60.0 for j in ids[n_shared + 4:]})
            vectors = [
                extract(make_pair(
                    shuffled(a_read, "a", (0.0, 0.0)), shuffled(b_read, "b", (1.0, 0.0)),
                    1.0, ProximityClass.CLOSE,
                )).values
                for _ in range(3)
            ]
            for other in vectors[1:]:
                np.testing.assert_array_equal(vectors[0], other, err_msg=f"pair {i}")

    def test_extract_many_matches_serial_and_parallel(self, rng):
        pairs = [_random_pair(rng) for _ in range(8)]
        serial = extract_many(pairs, workers=1)
        parallel = extract_many(pairs, workers=2)
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s.values, p.values)

    def test_empty_fingerprint_pair_is_all_neutral(self):
        a = make_fp(id="a", readings={})
        b = make_fp(id="b", readings={bss(1): -50.0}, position=(1.0, 0.0))
        pair = make_pair(a, b, 1.0, ProximityClass.CLOSE)
        vec = extract(pair)
        assert np.all(np.isfinite(vec.values))
        assert vec["ap.shared_count.none"] == 0.0
        # redpin against the empty side is 0, against the other side a miss
        assert vec["redpin.min_max.none"] == 0.0
        assert vec["redpin.max_min.none"] == pytest.approx(-0.4)
        both_empty = make_pair(a, make_fp(id="b", readings={}), 1.0, ProximityClass.CLOSE)
        assert np.all(np.isfinite(extract(both_empty).values))

    @given(
        st.integers(0, 90).flatmap(lambda n: st.tuples(
            st.lists(st.integers(-95, -30), min_size=n, max_size=n),
            st.lists(st.integers(-95, -30), min_size=n, max_size=n),
        )),
        st.sampled_from(["free", "constant", "reversed"]),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_vector_rank_statistics_equal_the_rssi_ones_bit_for_bit(
        self, readings, shape, n_own
    ):
        # a max-rank vector keeps its readings' order and ties, so both rank
        # statistics see the same average ranks and the same Kendall counts
        xs, ys = readings
        if shape == "constant":
            ys = ys[:1] * len(ys)
        elif shape == "reversed":  # a negative least-squares slope
            ys = [-125 - x for x in xs]
        a = {bss(i + 1): float(x) for i, x in enumerate(xs)}
        b = {bss(i + 1): float(y) for i, y in enumerate(ys)}
        a.update({bss(200 + i): -80.0 for i in range(n_own)})
        b.update({bss(300 + i): -81.0 for i in range(n_own)})
        vec = extract(pair_of(a, b))
        for stat in ("spearman", "kendall"):
            for variant in VARIANTS:
                got = np.float64(vec[f"corr_rank.{stat}.{variant}"])
                want = np.float64(vec[f"corr_rssi.{stat}.{variant}"])
                assert got.tobytes() == want.tobytes(), (stat, variant, got, want)


def _tied_pair(rng, n_shared, n_own, key):
    """Readings from four levels, so that most of them tie."""
    ids = [bss(int(i) + 1) for i in rng.choice(300, size=n_shared + 2 * n_own, replace=False)]
    a = {i: float(rng.integers(-62, -58)) for i in ids[:n_shared + n_own]}
    b = {i: float(rng.integers(-62, -58)) for i in ids[:n_shared] + ids[n_shared + n_own:]}
    return make_pair(make_fp(id=f"ta{key}", readings=a),
                     make_fp(id=f"tb{key}", readings=b, position=(1.0, 0.0)),
                     1.0, ProximityClass.CLOSE)


def _mixed_batch():
    """Every edge-case kind, several pairs per shared-AP count, in mixed order."""
    rng = np.random.default_rng(2110)
    pairs = [_oracle_pair(kind, seed) for seed in range(3) for kind in _ORACLE_KINDS]
    # tied readings; fingerprints of fewer than 8 APs; equal shared counts
    # with fingerprints of different sizes, which batches pad
    for k, (n_shared, n_own) in enumerate(
        [(2, 0), (2, 1), (2, 3), (5, 1), (5, 2), (12, 0), (12, 6), (70, 0), (70, 1), (70, 4)]
    ):
        pairs.append(_tied_pair(rng, n_shared, n_own, k))
    return [pairs[i] for i in rng.permutation(len(pairs))]


def _overflow_pair(key, shared=12, seed=0):
    rng = np.random.default_rng(seed)
    a_read = {bss(i): float(rng.integers(-95, -30)) for i in range(1, shared + 1)}
    b_read = {k: float(rng.integers(-95, -30)) for k in a_read}
    if key.startswith("bad"):
        a_read[bss(1)], b_read[bss(1)] = 1e200, -1e200
    return make_pair(make_fp(id=f"{key}-a", readings=a_read),
                     make_fp(id=f"{key}-b", readings=b_read, position=(1.0, 0.0)),
                     1.0, ProximityClass.CLOSE)


#: sha256 of ``extract_many`` over the golden fuzz and dense corpora in one
#: mixed call (``_fuzz_pairs() + _dense_pairs()`` of test_golden, permuted
#: with seed 20261023), recorded with per-pair extraction
MIXED_CORPUS_SHA256 = "8eb35bddb7beaa486c41e95e50a07ccfba2c92661d3780190c90419f0f24cd99"


#: the usable CPUs that ``pool_sizes`` reports
PINNED_CPUS = 16


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``processes`` of each ``multiprocessing.Pool`` started, on a host
    pinned to ``PINNED_CPUS`` usable CPUs; its ``imap`` runs here."""
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, f, tasks):
            return map(f, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(features, "_usable_cpus", lambda: PINNED_CPUS)
    return started


class TestBatches:
    """Pairs extracted together give the bytes of pairs extracted alone."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_extract_many_equals_extract_and_oracle(self, workers):
        pairs = _mixed_batch()
        shared = [len(p.a.ap_set & p.b.ap_set) for p in pairs]
        assert {0, 1, 2} <= set(shared) and max(shared) > 64
        assert all(shared.count(n) >= 3 for n in (0, 1, 2, 12, 70))
        assert any(fit_least_squares(p.a, p.b)[0] < 0 for p in pairs)
        assert any(p.a.ap_count < 8 and p.b.ap_count >= 8 for p in pairs)
        got = extract_many(pairs, workers=workers)
        assert len(got) == len(pairs)
        for k, (pair, vec) in enumerate(zip(pairs, got)):
            assert vec.values.tobytes() == extract(pair).values.tobytes(), k
            assert vec.values.tobytes() == extract_oracle(pair).tobytes(), k

    def test_mixed_corpus_hash(self):
        pairs = _fuzz_pairs() + _golden_dense_pairs()
        pairs = [pairs[i] for i in np.random.default_rng(20261023).permutation(len(pairs))]
        digest = hashlib.sha256(b"".join(v.values.tobytes() for v in extract_many(pairs)))
        assert digest.hexdigest() == MIXED_CORPUS_SHA256

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflow_mid_batch_names_the_first_bad_pair(self, workers):
        # all share 12 APs, so they run in one batch (or one per chunk)
        pairs = [_overflow_pair(f"ok{k}", seed=k) for k in range(6)]
        pairs[2:2] = [_overflow_pair("bad1", seed=7)]
        pairs[5:5] = [_overflow_pair("bad2", seed=8)]
        with pytest.raises(NonFiniteFeatureError) as alone:
            extract(pairs[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFeatureError) as batched:
                extract_many(pairs, workers=workers)
        assert str(batched.value) == str(alone.value)
        assert "('bad1-a', 'bad1-b')" in str(batched.value)

    @pytest.mark.parametrize("workers, n_pairs, processes", [
        (8, 5, 5), (3, 4, 3), (2, 40, 2), (8, 3, None), (1, 40, None),
        (10**6, 40, PINNED_CPUS),
    ])
    def test_pool_is_no_larger_than_its_chunks(self, pool_sizes, rng, workers, n_pairs, processes):
        pairs = [_random_pair(rng) for _ in range(n_pairs)]
        got = extract_many(pairs, workers=workers)
        assert pool_sizes == ([] if processes is None else [processes])
        assert [v.values.tobytes() for v in got] == [extract(p).values.tobytes() for p in pairs]

    def test_chunks_are_cut_for_the_usable_cpus(self, pool_sizes, rng, monkeypatch):
        # 10**6 workers on 16 CPUs: 16 * 8 chunks of 4 pairs, not 512 of one
        pairs = [_random_pair(rng) for _ in range(512)]
        sizes = []
        rows = features._extract_rows

        def recording(chunk):
            sizes.append(len(chunk))
            return rows(chunk)

        monkeypatch.setattr(features, "_extract_rows", recording)
        extract_many(pairs, workers=10**6)
        assert pool_sizes == [PINNED_CPUS]
        assert sizes == [4] * (PINNED_CPUS * features._CHUNKS_PER_WORKER)

    def test_usable_cpus_are_the_affinity_set_or_all(self, monkeypatch):
        assert features._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert features._usable_cpus() == os.cpu_count()

    def test_batches_allocate_less_than_the_largest_dense_pair(self, monkeypatch):
        # a batch holds dozens of low-density pairs or about one high-density
        # pair, and allocates no more than one high-density pair did alone
        # (2.1 MiB for 88 shared APs, per-pair extraction, numpy 2.4)
        cfg = site_config_for_density("low", site_id="low", seed=45, n_clusters=10)
        low = list(itertools.islice(enumerate_pairs(generate_site(cfg)), 0, 3000, 15))
        pairs = low + _dense_pairs(np.random.default_rng(1), per_density=10)
        extract_many(pairs)  # index caches filled
        peaks, sizes = [], []
        batch = features._extract_batch

        def traced(batch_pairs, shared):
            tracemalloc.start()
            try:
                return batch(batch_pairs, shared)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                sizes.append(len(batch_pairs))
                tracemalloc.stop()

        monkeypatch.setattr(features, "_extract_batch", traced)
        extract_many(pairs)
        assert max(sizes) >= 20
        assert max(peaks) < 2.1 * 2**20


# ---------------------------------------------------------------------------
# Feature tables
# ---------------------------------------------------------------------------

def _small_table(rng, n=5):
    pairs = [_random_pair(rng) for _ in range(n)]
    return pairs, table_from_vectors(pairs, extract_many(pairs))


class TestFeatureTable:
    def test_round_trip_is_exact(self, rng, tmp_path):
        _, table = _small_table(rng)
        path = tmp_path / "t.csv"
        write_feature_table(table, path)
        back = read_feature_table(path)
        assert back.names == table.names
        assert back.pair_ids == table.pair_ids
        assert back.labels == table.labels
        np.testing.assert_array_equal(back.matrix, table.matrix)
        np.testing.assert_array_equal(back.distances, table.distances)

    def test_write_is_byte_stable(self, rng, tmp_path):
        _, table = _small_table(rng, n=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_feature_table(table, p1)
        write_feature_table(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_cell_bytes_pinned(self, tmp_path):
        # shortest round-trip repr: signed zero, subnormals, exponent forms
        # and integral floats keep the bytes the format has always had
        table = FeatureTable(
            names=("f1", "f2", "f3", "f4", "f5"),
            pair_ids=("a|b", "c|d"),
            distances=np.array([2.0, 0.1]),
            labels=(ProximityClass.CLOSE, ProximityClass.FAR),
            matrix=np.array([
                [-0.0, 5e-324, 1e16, 3.0, 0.1],
                [1e-7, -12.0, 1 / 3, 123456789012345680.0, 2.5e-308],
            ]),
        )
        path = tmp_path / "pin.csv"
        write_feature_table(table, path)
        assert path.read_bytes() == (
            b"pair_id,distance_m,label,f1,f2,f3,f4,f5\r\n"
            b"a|b,2.0,Close,-0.0,5e-324,1e+16,3.0,0.1\r\n"
            b"c|d,0.1,Far,1e-07,-12.0,0.3333333333333333,1.2345678901234568e+17,2.5e-308\r\n"
        )

    def test_project_selects_and_orders(self, rng):
        _, table = _small_table(rng, n=3)
        sub = table.project(["dist.euclidean.none", "ap.shared_count.none"])
        assert sub.names == ("dist.euclidean.none", "ap.shared_count.none")
        np.testing.assert_array_equal(
            sub.matrix[:, 0], table.matrix[:, table.names.index("dist.euclidean.none")]
        )

    def test_project_unknown_name(self, rng):
        _, table = _small_table(rng, n=2)
        with pytest.raises(ValueError, match="unknown feature"):
            table.project(["no.such.feature"])

    def test_label_array(self, rng):
        pairs, table = _small_table(rng, n=4)
        assert table.label_array().all()  # helper builds Close pairs
        # a header-only table still gives a boolean array, which ~ can negate
        assert table_from_vectors([], []).label_array().dtype == bool

    def test_ragged_row_reports_line(self, rng, tmp_path):
        _, table = _small_table(rng, n=2)
        path = tmp_path / "t.csv"
        write_feature_table(table, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2] + ",0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":3:"):
            read_feature_table(path)

    def test_empty_label_rejected_with_line(self, rng, tmp_path):
        _, table = _small_table(rng, n=3)
        path = tmp_path / "t.csv"
        write_feature_table(table, path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = ""
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: ")):
            read_feature_table(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("foo,bar,baz\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_feature_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty feature table")):
            read_feature_table(path)

    def test_length_mismatch_rejected(self, rng):
        pairs, _ = _small_table(rng, n=2)
        with pytest.raises(ValueError, match="length mismatch"):
            table_from_vectors(pairs, [extract(pairs[0])])


# cells whose shortest repr takes every form the writer emits: signed zero,
# subnormals, the extremes, a repeating fraction and integral floats
_PINNED_CELLS = (-0.0, 0.0, 5e-324, 2.5e-308, 1e308, -1e308, 1 / 3, 3.0, -12.0, 1e16, 1e-7)
# ids that csv must quote, or that loadtxt would read as a comment or a blank line
_PINNED_IDS = ("a,b", 'say "hi"', "two\r\nlines", "gap\r\n\r\nline", "lone\rcr",
               "#not-a-comment", "Zürich|東京", "", " padded ")

_cells = st.one_of(st.sampled_from(_PINNED_CELLS),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _tables(draw):
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    ids = st.one_of(st.sampled_from(_PINNED_IDS), st.text(max_size=8))
    return FeatureTable(
        names=tuple(f"f{j}" for j in range(n_cols)),
        pair_ids=tuple(draw(st.lists(ids, min_size=n_rows, max_size=n_rows))),
        distances=np.array(draw(st.lists(_cells, min_size=n_rows, max_size=n_rows)), dtype=float),
        labels=tuple(draw(st.lists(st.sampled_from(list(ProximityClass)),
                                   min_size=n_rows, max_size=n_rows))),
        matrix=np.array(draw(st.lists(_cells, min_size=n_rows * n_cols, max_size=n_rows * n_cols)),
                        dtype=float).reshape(n_rows, n_cols),
    )


def _assert_same_table(got, want):
    assert got.names == want.names
    assert got.pair_ids == want.pair_ids
    assert got.labels == want.labels
    assert got.matrix.shape == want.matrix.shape and got.matrix.flags.c_contiguous
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.distances.shape == want.distances.shape
    assert got.distances.tobytes() == want.distances.tobytes()


class TestReaderAgainstOracle:
    """``read_feature_table`` gives the bytes of the one-``float()``-per-cell reader."""

    @given(_tables())
    @settings(max_examples=150, deadline=None)
    def test_written_tables_read_as_the_oracle(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("oracle") / "t.csv"
        write_feature_table(table, path)
        want = read_feature_table_oracle(path)
        _assert_same_table(read_feature_table(path), want)
        _assert_same_table(want, table)

    def test_single_row(self, tmp_path):
        table = FeatureTable(names=("f1", "f2"), pair_ids=("#a,b",), distances=np.array([2.5]),
                             labels=(ProximityClass.FAR,), matrix=np.array([[5e-324, -0.0]]))
        path = tmp_path / "t.csv"
        write_feature_table(table, path)
        _assert_same_table(read_feature_table(path), read_feature_table_oracle(path))

    def test_header_only_is_empty_and_silent(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_feature_table(table_from_vectors([], []), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_feature_table(path)
        assert got.matrix.shape == (0, N_FEATURES) and got.distances.shape == (0,)
        _assert_same_table(got, read_feature_table_oracle(path))
        assert capsys.readouterr() == ("", "")


def _table_lines(tmp_path, n=3):
    """A written 2-feature table's path and lines; the header is line 1."""
    table = FeatureTable(
        names=("f1", "f2"), pair_ids=tuple(f"p{i}" for i in range(n)),
        distances=np.arange(n, dtype=float), labels=(ProximityClass.CLOSE,) * n,
        matrix=np.arange(2.0 * n).reshape(n, 2),
    )
    path = tmp_path / "t.csv"
    write_feature_table(table, path)
    return path, path.read_bytes().decode().split("\r\n")[:-1]


def _pinned_table(n_rows, n_cols):
    """Rows cycling through the pinned ids and cells, across block boundaries."""
    cells = [_PINNED_CELLS[k % len(_PINNED_CELLS)] for k in range(n_rows * n_cols)]
    return FeatureTable(
        names=tuple(f"f{j}" for j in range(n_cols)),
        pair_ids=tuple(_PINNED_IDS[k % len(_PINNED_IDS)] + str(k) for k in range(n_rows)),
        distances=np.array([_PINNED_CELLS[k % len(_PINNED_CELLS)] for k in range(n_rows)]),
        labels=tuple(list(ProximityClass)[k % 2] for k in range(n_rows)),
        matrix=np.array(cells, dtype=float).reshape(n_rows, n_cols),
    )


class TestWriterAgainstOracle:
    """``write_feature_table`` gives the bytes of the one-``csv.writer``-row-per-pair writer."""

    @given(_tables())
    @settings(max_examples=100, deadline=None)
    def test_bytes_equal_the_oracle(self, tmp_path_factory, table):
        d = tmp_path_factory.mktemp("writer")
        write_feature_table(table, d / "got.csv")
        write_feature_table_oracle(table, d / "want.csv")
        assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()

    @pytest.mark.parametrize("n_rows, n_cols", [
        (0, 3), (3, 0), (1, 1),
        (features._WRITE_BLOCK_ROWS, 4), (features._WRITE_BLOCK_ROWS + 1, 4),
        (2 * features._WRITE_BLOCK_ROWS + 7, 11),
    ])
    def test_blocks_and_edges_equal_the_oracle(self, tmp_path, n_rows, n_cols):
        table = _pinned_table(n_rows, n_cols)
        write_feature_table(table, tmp_path / "got.csv")
        write_feature_table_oracle(table, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestWriterWorkers:
    """Blocks formatted across a pool give the bytes of the one-process writer."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_equal_the_oracle(self, tmp_path, workers):
        table = _pinned_table(4 * features._WRITE_BLOCK_ROWS + 9, 13)
        write_feature_table(table, tmp_path / "got.csv", workers=workers)
        write_feature_table_oracle(table, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("workers, n_rows, processes", [
        (8, 3 * 64, 3), (3, 3 * 64 + 1, 3), (2, 40 * 64, 2),
        (8, 64, None), (8, 0, None), (1, 40 * 64, None), (10**6, 40 * 64, PINNED_CPUS),
    ])
    def test_pool_is_no_larger_than_its_blocks(self, pool_sizes, tmp_path, workers, n_rows,
                                               processes):
        assert features._WRITE_BLOCK_ROWS == 64
        table = _pinned_table(n_rows, 2)
        write_feature_table(table, tmp_path / "got.csv", workers=workers)
        write_feature_table_oracle(table, tmp_path / "want.csv")
        assert pool_sizes == ([] if processes is None else [processes])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestReaderErrors:
    """Each rejected table names its file and the line (CSV record) at fault."""

    @pytest.mark.parametrize("at", [2, 3, 4])
    def test_blank_line(self, tmp_path, at):
        path, lines = _table_lines(tmp_path)
        lines.insert(at - 1, "")
        path.write_text("\r\n".join(lines) + "\r\n", newline="")
        with pytest.raises(ValueError) as err:
            read_feature_table(path)
        assert str(err.value) == f"{path}:{at}: expected 5 cells, got 0"

    def test_trailing_blank_line(self, tmp_path):
        path, lines = _table_lines(tmp_path)
        path.write_text("\n".join(lines) + "\n\n", newline="")
        with pytest.raises(ValueError) as err:
            read_feature_table(path)
        assert str(err.value) == f"{path}:5: expected 5 cells, got 0"

    def test_every_row_too_wide(self, tmp_path):
        path, lines = _table_lines(tmp_path)
        path.write_text("\n".join([lines[0], *(line + ",1.0" for line in lines[1:])]) + "\n")
        with pytest.raises(ValueError) as err:
            read_feature_table(path)
        assert str(err.value) == f"{path}:2: expected 5 cells, got 6"

    def test_non_numeric_cell(self, tmp_path):
        path, lines = _table_lines(tmp_path)
        lines[3] = lines[3].replace(",5.0", ",x")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            read_feature_table(path)
        assert str(err.value) == f"{path}:4: bad cell (could not convert string to float: 'x')"

    def test_unknown_label(self, tmp_path):
        path, lines = _table_lines(tmp_path)
        lines[2] = lines[2].replace(",Close,", ",Near,")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            read_feature_table(path)
        assert str(err.value) == f"{path}:3: bad cell ('Near' is not a valid ProximityClass)"

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", "2\u0665"])
    def test_underscored_or_non_ascii_digits_rejected(self, tmp_path, cell):
        # float() takes these, np.loadtxt does not, and the writer never emits them
        path, lines = _table_lines(tmp_path)
        lines[2] = lines[2].replace(",3.0", f",{cell}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_feature_table(path)
        assert str(err.value) == f"{path}:3: bad cell (could not convert string to float: {cell!r})"

    @given(st.text(alphabet="0123456789_.eE+-infatyINF \t\xa0\u0663\u2003", max_size=8))
    @settings(max_examples=300, deadline=None)
    @example("1_000")
    @example("\xa01.5\u2003")
    @example("\u0663")
    def test_cells_parse_as_loadtxt_parses_them(self, tmp_path_factory, cell):
        path = tmp_path_factory.mktemp("cell") / "t.csv"
        path.write_text(f"pair_id,distance_m,label,f1\na,1.0,Close,{cell}\n", encoding="utf-8")
        try:
            want = np.loadtxt([f"1.0,{cell}"], delimiter=",", comments=None, encoding=None)[1]
        except ValueError:
            with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
                read_feature_table(path)
            return
        if not np.isfinite(want):
            with pytest.raises(ValueError, match=re.escape(f"{path}:2: non-finite cell")):
                read_feature_table(path)
            return
        assert read_feature_table(path).matrix.tobytes() == np.float64(float(cell)).tobytes()
        assert float(cell) == want or np.isnan(want)
