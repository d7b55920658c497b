"""Feature registry, calibration, correlation kernels, extraction, tables."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wifiprox import features
from wifiprox.core import ProximityClass
from wifiprox.features import (
    FEATURE_NAMES,
    MONOTONE_INVARIANT_NAMES,
    N_FEATURES,
    VARIANTS,
    FeatureVector,
    ap_detection_features,
    extract,
    extract_many,
    fit_least_squares,
    identical_devices,
    read_feature_table,
    table_from_vectors,
    write_feature_table,
)
from wifiprox.pairing import make_pair

from conftest import bss, make_fp, pair_of, random_readings

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
        # 2 rank stats x 2 vector families x 4 variants, all 16 corr_rank,
        # plus the rank-concordance device feature
        assert len(MONOTONE_INVARIANT_NAMES) == 8 + 8 + 16 + 1
        assert "device.re3.none" in MONOTONE_INVARIANT_NAMES
        # pairwise *ratios* are not preserved by affine recalibration
        assert not any(n.startswith("corr_pairratio") for n in MONOTONE_INVARIANT_NAMES)

    def test_vector_length_checked(self):
        with pytest.raises(ValueError):
            FeatureVector(names=("a", "b"), values=np.zeros(3))


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


class TestKernels:
    def test_pearson_matches_numpy(self, rng):
        for u, v in _vec_pairs(rng):
            with np.errstate(invalid="ignore"):
                expected = np.corrcoef(u, v)[0, 1]
            if np.isnan(expected):
                continue
            assert math.isclose(features._pearson(u, v), expected, abs_tol=1e-12)

    @pytest.mark.filterwarnings("ignore::scipy.stats.ConstantInputWarning")
    def test_spearman_matches_scipy_with_ties(self, rng):
        for u, v in _vec_pairs(rng):
            expected = stats.spearmanr(u, v).statistic
            if np.isnan(expected):
                continue
            assert math.isclose(features._spearman(u, v), expected, abs_tol=1e-12)

    def test_kendall_small_path_matches_scipy(self, rng):
        # integer RSSIs produce plenty of ties; n <= 64 exercises the
        # direct pair-enumeration branch
        for u, v in _vec_pairs(rng):
            expected = stats.kendalltau(u, v).statistic
            if np.isnan(expected):
                continue
            assert math.isclose(features._kendall(u, v), expected, abs_tol=1e-12)

    def test_kendall_large_path_delegates(self, rng):
        u = rng.integers(-95, -30, size=120).astype(float)
        v = rng.integers(-95, -30, size=120).astype(float)
        assert features._kendall(u, v) == pytest.approx(
            stats.kendalltau(u, v).statistic, abs=1e-15
        )

    def test_kendall_path_consistency_at_boundary(self, rng):
        # same data evaluated through both code paths must agree
        u = rng.integers(-95, -30, size=64).astype(float)
        v = rng.integers(-95, -30, size=64).astype(float)
        small = features._kendall(u, v)
        big = stats.kendalltau(u, v).statistic
        assert math.isclose(small, big, abs_tol=1e-12)

    def test_cosine_hand_value(self):
        u = np.array([1.0, 0.0])
        v = np.array([1.0, 1.0])
        assert math.isclose(features._cosine(u, v), 1 / math.sqrt(2), abs_tol=1e-15)

    def test_avg_ranks_matches_scipy(self, rng):
        for _ in range(20):
            v = rng.integers(-10, 10, size=int(rng.integers(1, 40))).astype(float)
            np.testing.assert_allclose(features._ranks(v, "average"), stats.rankdata(v))
            np.testing.assert_array_equal(
                features._ranks(v, "max"), stats.rankdata(v, method="max")
            )

    @pytest.mark.parametrize("kernel", ["_cosine", "_pearson", "_spearman", "_kendall"])
    def test_degenerate_inputs_give_zero(self, kernel):
        f = getattr(features, kernel)
        assert f(np.empty(0), np.empty(0)) == 0.0
        assert f(np.array([1.0]), np.array([2.0])) == 0.0
        if kernel != "_cosine":
            const = np.array([5.0, 5.0, 5.0])
            vary = np.array([1.0, 2.0, 3.0])
            assert f(const, vary) == 0.0

    @given(
        st.lists(st.integers(-95, -30), min_size=2, max_size=40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_correlations_bounded_and_symmetric(self, xs, seed):
        u = np.array(xs, dtype=float)
        v = np.random.default_rng(seed).permutation(u) - 1.0
        for f in (features._spearman, features._kendall):
            r = f(u, v)
            assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12
            assert math.isclose(r, f(v, u), abs_tol=1e-12)

    def test_stats7_hand_values(self):
        v = np.array([1.0, 2.0, 4.0])
        mn, mx, mean, median, hmean, std_s, std_p = features._stats7(v)
        assert (mn, mx, median) == (1.0, 4.0, 2.0)
        assert math.isclose(mean, 7 / 3)
        assert math.isclose(hmean, 3 / (1 + 0.5 + 0.25))
        assert math.isclose(std_s, np.std(v, ddof=1))
        assert math.isclose(std_p, np.std(v, ddof=0))

    def test_stats7_zero_value_kills_harmonic_mean(self):
        assert features._stats7(np.array([0.0, 2.0]))[4] == 0.0

    def test_stats7_empty_and_singleton(self):
        assert features._stats7(np.empty(0)) == [0.0] * 7
        out = features._stats7(np.array([3.0]))
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

class TestFamilies:
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

    def test_ap_detection_no_readings(self):
        a = make_fp(id="a", readings={})
        b = make_fp(id="b", readings={}, position=(1.0, 0.0))
        assert ap_detection_features(a, b) == (0.0, 0.0, 0.0, 0.0, 0.0)

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


class TestExtract:
    def test_shape_names_and_finiteness(self, rng):
        vec = extract(_random_pair(rng))
        assert vec.names == FEATURE_NAMES
        assert vec.values.shape == (323,)
        assert np.all(np.isfinite(vec.values))

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

    def test_ragged_row_reports_line(self, rng, tmp_path):
        _, table = _small_table(rng, n=2)
        path = tmp_path / "t.csv"
        write_feature_table(table, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2] + ",0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":3:"):
            read_feature_table(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("foo,bar,baz\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_feature_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_feature_table(path)

    def test_length_mismatch_rejected(self, rng):
        pairs, _ = _small_table(rng, n=2)
        with pytest.raises(ValueError, match="length mismatch"):
            table_from_vectors(pairs, [extract(pairs[0])])
