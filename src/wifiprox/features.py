"""Pairwise similarity features over Wi-Fi RSSI fingerprints.

A feature vector for a pair (a, b) has 323 entries:

* 5 AP-detection features that only look at which APs were seen;
* 79 RSSI-dependent features, computed once per calibration variant
  (``none``, ``single_ls``, ``single_half_ls``, ``double_ls`` -- 316 total);
* 2 device features (identical device model, rank-order concordance).

The RSSI-dependent block, in order:

===============  ==  =========================================================
dist              2  Manhattan / Euclidean distance over shared-AP RSSIs
top_ap_within    15  is some shared AP within z dBm of both maxima, z=1..15
rssi_within_pct  15  fraction of shared APs with |RSSI_a - RSSI_b| <= z dBm
shared_top_k      8  do the top-k strongest APs coincide as sets, k=1..8
redpin            2  asymmetric match scores, both directions
corr_rssi         4  cosine / Pearson / Spearman / Kendall on shared RSSIs
corr_pairdiff     4  ... on within-fingerprint pairwise RSSI differences
corr_pairratio    4  ... on within-fingerprint pairwise RSSI ratios
corr_rank         4  ... on L2-normalized detection-rank vectors
diff_rssi         7  min/max/mean/median/harmonic/std_s/std_p of |x - y|
diff_pairdiff     7  ... of |pairwise-difference vectors' gap|
diff_pairratio    7  ... of |pairwise-ratio vectors' gap|
===============  ==  =========================================================

Feature names follow ``<family>.<parameter>.<variant>``; variant is ``none``
for entries that do not depend on RSSI calibration.

Calibration variants fit a least-squares line to the shared readings of the
pair (``a`` regressed onto ``b``) and apply it to the *full* fingerprint:

* ``single_ls``      a -> A*r + B
* ``single_half_ls`` a -> (A/2)*r + B/2
* ``double_ls``      a -> A*r + B and b -> C*r + D (the reverse fit)

Degenerate fits fall back to the identity slope: no shared APs gives (1, 0);
zero variance in the source readings gives slope 1 and the mean offset.

Vectors over APs follow each fingerprint's ``encoding`` (ascending BSSID),
so a stable sort breaks ties between equal readings by BSSID.

Fixed constants of the catalog:

* ``REDPIN_MATCH_THRESHOLD_DBM`` (10): a shared AP whose two readings differ
  by at most this much earns ``REDPIN_MATCH_CREDIT`` (1), any other shared AP
  ``REDPIN_PARTIAL_CREDIT`` (0.5), and each AP the other side misses costs
  ``REDPIN_MISS_PENALTY`` (0.4);
* ``RE3_TIE_CREDIT`` (0.5): ``device.re3`` credit for a pair of shared APs
  tied in exactly one fingerprint;
* ``ZERO_RSSI_SUBSTITUTE`` (-0.5): stands in for a 0 dBm reading in
  pairwise ratios.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import stats

from .core import Fingerprint, FingerprintPair, ProximityClass

VARIANTS = ("none", "single_ls", "single_half_ls", "double_ls")

_Z_RANGE = range(1, 16)
_K_RANGE = range(1, 9)
_CORR_FAMILIES = ("corr_rssi", "corr_pairdiff", "corr_pairratio", "corr_rank")
_CORR_NAMES = ("cosine", "pearson", "spearman", "kendall")
_DIFF_FAMILIES = ("diff_rssi", "diff_pairdiff", "diff_pairratio")
_STAT_NAMES = ("min", "max", "mean", "median", "harmonic_mean", "std_sample", "std_pop")

REDPIN_MATCH_THRESHOLD_DBM = 10.0
REDPIN_MATCH_CREDIT = 1.0
REDPIN_PARTIAL_CREDIT = 0.5
REDPIN_MISS_PENALTY = 0.4
RE3_TIE_CREDIT = 0.5
ZERO_RSSI_SUBSTITUTE = -0.5


class NonFiniteFeatureError(ValueError):
    """A pair whose readings drive some feature to inf or NaN."""


def _build_feature_names() -> tuple[str, ...]:
    names = [
        f"ap.{p}.none"
        for p in ("shared_count", "union_count", "non_shared_count", "count_diff", "jaccard")
    ]
    for variant in VARIANTS:
        names += [f"dist.manhattan.{variant}", f"dist.euclidean.{variant}"]
        names += [f"top_ap_within.z{z:02d}.{variant}" for z in _Z_RANGE]
        names += [f"rssi_within_pct.z{z:02d}.{variant}" for z in _Z_RANGE]
        names += [f"shared_top_k.k{k}.{variant}" for k in _K_RANGE]
        names += [f"redpin.max_min.{variant}", f"redpin.min_max.{variant}"]
        for fam in _CORR_FAMILIES:
            names += [f"{fam}.{c}.{variant}" for c in _CORR_NAMES]
        for fam in _DIFF_FAMILIES:
            names += [f"{fam}.{s}.{variant}" for s in _STAT_NAMES]
    names += ["device.identical.none", "device.re3.none"]
    return tuple(names)


FEATURE_NAMES: tuple[str, ...] = _build_feature_names()
N_FEATURES = len(FEATURE_NAMES)

#: names whose value does not change, bit for bit, when one fingerprint's
#: RSSIs undergo a strictly increasing affine recalibration.  The rank
#: statistics of pairwise differences are not among them: rounding in
#: (a*x_i + b) - (a*x_j + b) breaks the ties that integer readings leave.
MONOTONE_INVARIANT_NAMES: tuple[str, ...] = tuple(
    n
    for n in FEATURE_NAMES
    if n.startswith(("corr_rssi.spearman", "corr_rssi.kendall", "corr_rank."))
    or n == "device.re3.none"
)


@dataclass(frozen=True)
class FeatureVector:
    """The ``FEATURE_NAMES`` values of one pair, in that order."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != N_FEATURES:
            raise ValueError(f"{N_FEATURES} names but {len(self.values)} values")

    def __getitem__(self, name: str) -> float:
        return float(self.values[FEATURE_NAMES.index(name)])

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(FEATURE_NAMES, self.values)}


# ---------------------------------------------------------------------------
# Least-squares calibration
# ---------------------------------------------------------------------------

def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """OLS slope/intercept mapping x -> y, with degenerate fallbacks."""
    n = x.size
    if n == 0:
        return 1.0, 0.0
    mx = float(x.mean())
    my = float(y.mean())
    dx = x - mx
    sxx = float(dx @ dx)
    if sxx == 0.0:
        return 1.0, my - mx
    a = float(dx @ (y - my)) / sxx
    return a, my - a * mx


def _fit_both_ways(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    return (*_fit_line(x, y), *_fit_line(y, x))


def fit_least_squares(a: Fingerprint, b: Fingerprint) -> tuple[float, float, float, float]:
    """(A, B, C, D): A,B map a's readings onto b's; C,D the reverse."""
    return _fit_both_ways(*_shared_values(a, b))


# ---------------------------------------------------------------------------
# Correlation and descriptive-statistic kernels
# ---------------------------------------------------------------------------

def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    if u.size < 2:
        return 0.0
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def _pearson(u: np.ndarray, v: np.ndarray) -> float:
    if u.size < 2:
        return 0.0
    du = u - u.mean()
    dv = v - v.mean()
    su = float(du @ du)
    sv = float(dv @ dv)
    if su == 0.0 or sv == 0.0:
        return 0.0
    return float(du @ dv) / math.sqrt(su * sv)


def _ranks(v: np.ndarray, method: str) -> np.ndarray:
    """1-based ranks of a non-empty vector.

    Tied entries share their group's mean rank (``"average"``), or its last
    rank (``"max"``: how many entries are <= this one).
    """
    n = v.size
    order = np.argsort(v, kind="stable")
    sv = v[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sv[1:], sv[:-1], out=new_group[1:])
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    ends = np.cumsum(counts)  # 1-based rank of each group's last member
    if method == "average":
        rank = ends - (counts - 1) / 2.0
    else:
        rank = ends.astype(np.float64)
    out = np.empty(n)
    out[order] = rank[group]
    return out


def _spearman(u: np.ndarray, v: np.ndarray) -> float:
    if u.size < 2:
        return 0.0
    return _pearson(_ranks(u, "average"), _ranks(v, "average"))


def _kendall(u: np.ndarray, v: np.ndarray) -> float:
    """Kendall's tau-b; 0.0 when undefined (short or constant input)."""
    if u.size < 2:
        return 0.0
    if np.all(u == u[0]) or np.all(v == v[0]):
        return 0.0
    if u.size <= 64:
        # direct pair enumeration beats the library call at this size
        sx, sy = _pair_signs(u, v)
        num = float(sx @ sy)
        n0 = sx.size
        ties_x = n0 - np.count_nonzero(sx)
        ties_y = n0 - np.count_nonzero(sy)
        denom = math.sqrt(float(n0 - ties_x) * float(n0 - ties_y))
        return num / denom if denom else 0.0
    tau = stats.kendalltau(u, v).statistic
    return 0.0 if math.isnan(tau) else float(tau)


def _corr4(u: np.ndarray, v: np.ndarray) -> list[float]:
    return [_cosine(u, v), _pearson(u, v), _spearman(u, v), _kendall(u, v)]


def _stats7(v: np.ndarray) -> list[float]:
    if v.size == 0:
        return [0.0] * 7
    if np.any(v == 0.0):
        hmean = 0.0
    else:
        hmean = v.size / float(np.sum(1.0 / v))
    std_s = float(v.std(ddof=1)) if v.size >= 2 else 0.0
    return [
        float(v.min()),
        float(v.max()),
        float(v.mean()),
        float(np.median(v)),
        hmean,
        std_s,
        float(v.std(ddof=0)),
    ]


@lru_cache(maxsize=512)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays for unordered pairs i<j, lexicographic order."""
    return np.triu_indices(n, k=1)


@lru_cache(maxsize=512)
def _ordered_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays for ordered pairs i != j, row-major order."""
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    return ii, jj


def _pair_differences(v: np.ndarray) -> np.ndarray:
    ii, jj = _upper_pairs(v.size)
    return v[ii] - v[jj]


def _pair_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs of u_i - u_j and v_i - v_j over unordered pairs i < j."""
    return np.sign(_pair_differences(u)), np.sign(_pair_differences(v))


def _pair_ratios(v: np.ndarray) -> np.ndarray:
    safe = np.where(v == 0.0, ZERO_RSSI_SUBSTITUTE, v)
    ii, jj = _ordered_pairs(v.size)
    return safe[ii] / safe[jj]


def _normalized_rank_vectors(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-L2 rank vectors ordered by descending rank in x, ties by AP id."""
    rx = _ranks(x, "max")
    ry = _ranks(y, "max")
    order = np.argsort(-rx, kind="stable")
    rx = rx[order]
    ry = ry[order]
    return rx / np.linalg.norm(rx), ry / np.linalg.norm(ry)


# ---------------------------------------------------------------------------
# Features read directly off the pair
# ---------------------------------------------------------------------------

def ap_detection_features(a: Fingerprint, b: Fingerprint) -> tuple[float, ...]:
    """(shared, union, non-shared, |count difference|, Jaccard)."""
    n_shared = len(a.ap_set & b.ap_set)
    n_union = a.ap_count + b.ap_count - n_shared
    jaccard = n_shared / n_union if n_union else 0.0
    return (
        float(n_shared),
        float(n_union),
        float(n_union - n_shared),
        float(abs(a.ap_count - b.ap_count)),
        jaccard,
    )


def _shared_values(a: Fingerprint, b: Fingerprint) -> tuple[np.ndarray, np.ndarray]:
    """RSSIs of the APs both fingerprints detected, in ascending BSSID order."""
    (a_ids, a_vals), (b_ids, b_vals) = a.encoding, b.encoding
    _, ia, ib = np.intersect1d(a_ids, b_ids, assume_unique=True, return_indices=True)
    return a_vals[ia], b_vals[ib]


def _rank_concordance(x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of shared-AP pairs whose RSSI ordering agrees across a and b.

    A pair tied in both fingerprints counts as concordant; tied in exactly
    one counts ``RE3_TIE_CREDIT``.  Fewer than two shared APs gives 0.
    """
    if x.size < 2:
        return 0.0
    sx, sy = _pair_signs(x, y)
    both_tied = (sx == 0) & (sy == 0)
    one_tied = (sx == 0) ^ (sy == 0)
    agree = (sx == sy) & (sx != 0)
    score = agree.sum() + both_tied.sum() + RE3_TIE_CREDIT * one_tied.sum()
    return float(score) / sx.size


def identical_devices(a: Fingerprint, b: Fingerprint) -> float:
    return 1.0 if a.device_model.strip().casefold() == b.device_model.strip().casefold() else 0.0


# ---------------------------------------------------------------------------
# Full extraction
# ---------------------------------------------------------------------------

def _variant_block(
    x: np.ndarray,
    y: np.ndarray,
    a_ids: np.ndarray,
    a_vals: np.ndarray,
    b_ids: np.ndarray,
    b_vals: np.ndarray,
) -> list[float]:
    """The 79 RSSI-dependent features for one calibration variant.

    ``x``/``y`` are the shared-AP readings of a resp. b, already calibrated;
    ``a_vals``/``b_vals`` the calibrated full-fingerprint readings aligned
    with ``a_ids``/``b_ids``; all in ascending BSSID order.
    """
    n = x.size
    feats: list[float] = []

    # dist
    if n:
        d = x - y
        feats += [float(np.abs(d).sum()), float(math.sqrt(d @ d))]
    else:
        feats += [0.0, 0.0]

    # top_ap_within, z = 1..15
    if n:
        depth = float(np.maximum(a_vals.max() - x, b_vals.max() - y).min())
        feats += [1.0 if depth <= z else 0.0 for z in _Z_RANGE]
    else:
        feats += [0.0] * len(_Z_RANGE)

    # rssi_within_pct, z = 1..15
    if n:
        gaps = np.sort(np.abs(x - y))
        counts = np.searchsorted(gaps, list(_Z_RANGE), side="right")
        feats += [float(c) / n for c in counts]
    else:
        feats += [0.0] * len(_Z_RANGE)

    # shared_top_k, k = 1..8
    order_a = np.argsort(-a_vals, kind="stable")
    order_b = np.argsort(-b_vals, kind="stable")
    top_a = list(a_ids[order_a[:8]])
    top_b = list(b_ids[order_b[:8]])
    for k in _K_RANGE:
        if a_ids.size < k or b_ids.size < k:
            feats.append(0.0)
        else:
            feats.append(1.0 if set(top_a[:k]) == set(top_b[:k]) else 0.0)

    # redpin, both directions (b is the AP-richer fingerprint by pair order)
    if n:
        n_full = int(np.sum(np.abs(x - y) <= REDPIN_MATCH_THRESHOLD_DBM))
    else:
        n_full = 0
    n_partial = n - n_full
    for p_count in (b_ids.size, a_ids.size):
        if p_count == 0:
            feats.append(0.0)
        else:
            score = (
                REDPIN_MATCH_CREDIT * n_full
                + REDPIN_PARTIAL_CREDIT * n_partial
                - REDPIN_MISS_PENALTY * (p_count - n)
            )
            feats.append(score / p_count)

    # correlations over four vector pairs
    if n >= 2:
        pd_x = _pair_differences(x)
        pd_y = _pair_differences(y)
        pr_x = _pair_ratios(x)
        pr_y = _pair_ratios(y)
    else:
        pd_x = pd_y = pr_x = pr_y = np.empty(0)
    if n:
        rk_x, rk_y = _normalized_rank_vectors(x, y)
    else:
        rk_x = rk_y = np.empty(0)
    feats += _corr4(x, y)
    feats += _corr4(pd_x, pd_y)
    feats += _corr4(pr_x, pr_y)
    feats += _corr4(rk_x, rk_y)

    # descriptive statistics of absolute gaps
    feats += _stats7(np.abs(x - y))
    feats += _stats7(np.abs(pd_x - pd_y))
    feats += _stats7(np.abs(pr_x - pr_y))
    return feats


def extract(pair: FingerprintPair) -> FeatureVector:
    """Compute the full 323-entry feature vector for a canonical pair."""
    # overflowing readings surface as NonFiniteFeatureError below, with the
    # feature names, rather than as numpy RuntimeWarnings from deep inside
    with np.errstate(all="ignore"):
        a, b = pair.a, pair.b
        x, y = _shared_values(a, b)
        (a_ids, a_vals), (b_ids, b_vals) = a.encoding, b.encoding
        slope_ab, inter_ab, slope_ba, inter_ba = _fit_both_ways(x, y)

        values: list[float] = list(ap_detection_features(a, b))
        for variant in VARIANTS:
            if variant == "none":
                xa, av, yb, bv = x, a_vals, y, b_vals
            elif variant == "single_ls":
                xa, av = slope_ab * x + inter_ab, slope_ab * a_vals + inter_ab
                yb, bv = y, b_vals
            elif variant == "single_half_ls":
                half_a, half_b = slope_ab / 2.0, inter_ab / 2.0
                xa, av = half_a * x + half_b, half_a * a_vals + half_b
                yb, bv = y, b_vals
            else:  # double_ls
                xa, av = slope_ab * x + inter_ab, slope_ab * a_vals + inter_ab
                yb, bv = slope_ba * y + inter_ba, slope_ba * b_vals + inter_ba
            values += _variant_block(xa, yb, a_ids, av, b_ids, bv)

        values.append(identical_devices(a, b))
        values.append(_rank_concordance(x, y))

    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        bad = [FEATURE_NAMES[i] for i in np.nonzero(~np.isfinite(arr))[0]]
        raise NonFiniteFeatureError(f"non-finite feature values for pair {pair.key}: {bad}")
    return FeatureVector(values=arr)


def extract_many(pairs: Sequence[FingerprintPair], workers: int = 1) -> list[FeatureVector]:
    """Extract feature vectors for many pairs, preserving input order."""
    if workers <= 1 or len(pairs) < 4:
        return [extract(p) for p in pairs]
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        chunk = max(1, len(pairs) // (workers * 8))
        return pool.map(extract, pairs, chunksize=chunk)


# ---------------------------------------------------------------------------
# Feature tables: CSV persistence of extracted vectors
# ---------------------------------------------------------------------------

_META_COLUMNS = ("pair_id", "distance_m", "label")


@dataclass(frozen=True)
class FeatureTable:
    """Column-major view of extracted features for a list of pairs."""

    names: tuple[str, ...]
    pair_ids: tuple[str, ...]
    distances: np.ndarray
    labels: tuple[ProximityClass, ...]
    matrix: np.ndarray  # shape (n_pairs, n_features)

    def __post_init__(self) -> None:
        n = len(self.pair_ids)
        if self.matrix.shape != (n, len(self.names)):
            raise ValueError(
                f"matrix shape {self.matrix.shape} inconsistent with "
                f"{n} rows x {len(self.names)} features"
            )
        if len(self.labels) != n or len(self.distances) != n:
            raise ValueError("labels/distances length mismatch")

    def __len__(self) -> int:
        return len(self.pair_ids)

    def label_array(self) -> np.ndarray:
        """Boolean array, True where the row is labeled Close."""
        return np.array([lab is ProximityClass.CLOSE for lab in self.labels], dtype=bool)

    def project(self, names: Sequence[str]) -> "FeatureTable":
        """Restrict to the given feature columns, in the given order."""
        index = {n: i for i, n in enumerate(self.names)}
        missing = [n for n in names if n not in index]
        if missing:
            raise ValueError(f"unknown feature names: {missing}")
        cols = [index[n] for n in names]
        return FeatureTable(
            names=tuple(names),
            pair_ids=self.pair_ids,
            distances=self.distances,
            labels=self.labels,
            matrix=self.matrix[:, cols],
        )


def table_from_vectors(
    pairs: Sequence[FingerprintPair], vectors: Sequence[FeatureVector]
) -> FeatureTable:
    if len(pairs) != len(vectors):
        raise ValueError("pairs/vectors length mismatch")
    matrix = np.stack([v.values for v in vectors]) if vectors else np.empty((0, N_FEATURES))
    return FeatureTable(
        names=FEATURE_NAMES,
        pair_ids=tuple(f"{p.a.id}|{p.b.id}" for p in pairs),
        distances=np.array([p.distance_m for p in pairs], dtype=np.float64),
        labels=tuple(p.label for p in pairs),
        matrix=matrix,
    )


def write_feature_table(table: FeatureTable, path: str | Path) -> None:
    """Write a CSV whose float cells round-trip exactly (shortest repr)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*_META_COLUMNS, *table.names])
        for i, pid in enumerate(table.pair_ids):
            writer.writerow(
                [
                    pid,
                    repr(float(table.distances[i])),
                    table.labels[i].value,
                    *(repr(float(v)) for v in table.matrix[i]),
                ]
            )


def read_feature_table(path: str | Path) -> FeatureTable:
    p = Path(path)
    with open(p, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{p}: empty feature table") from None
        if tuple(header[: len(_META_COLUMNS)]) != _META_COLUMNS:
            raise ValueError(f"{p}: unexpected header {header[:3]!r}")
        names = tuple(header[len(_META_COLUMNS):])
        pair_ids: list[str] = []
        distances: list[float] = []
        labels: list[ProximityClass] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{p}:{lineno}: expected {len(header)} cells, got {len(row)}")
            pair_ids.append(row[0])
            try:
                distances.append(float(row[1]))
                labels.append(ProximityClass(row[2]))
                rows.append([float(c) for c in row[3:]])
            except ValueError as e:
                raise ValueError(f"{p}:{lineno}: bad cell ({e})") from e
    matrix = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(names)))
    dist = np.array(distances, dtype=np.float64)
    finite = np.isfinite(matrix).all(axis=1) & np.isfinite(dist)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{p}:{row + 2}: non-finite cell")
    return FeatureTable(
        names=names,
        pair_ids=tuple(pair_ids),
        distances=dist,
        labels=tuple(labels),
        matrix=matrix,
    )
