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

The four variants of a pair are computed as one batch.  They share their
inputs: a's readings take three calibrated forms (as read, A*r+B and
(A/2)*r+B/2) and b's two (as read, C*r+D), and each variant pairs one form
of a with one of b.  Each form is one row of a stacked array; its vectors
are built once and sorted once for all their rank statistics (Spearman's
average ranks, Kendall's tie groups, the rank vectors' max ranks).
Kendall's tau-b is scipy's statistic, bit for bit except on short inputs:

* up to ``KENDALL_SIGNS_MAX`` (64) entries it counts the signs of all pair
  differences and evaluates ``(sx . sy) / sqrt(nx * ny)``, which can differ
  from scipy's expression in the last bits (up to 3 ULP on 3,000 random
  integer-dBm inputs of 3-64 entries; the golden hashes pin these bits).
  The next rule's counts would keep every golden hash, but the sign count
  is faster (1.9-2.0 against 2.3-2.4 ms per low-density pair, 2-core Xeon);
* longer vectors whose tie groups' contingency table (Christensen 2005,
  *Comput. Stat.* 20:51) has at most ``KENDALL_TABLE_MAX_CELLS`` (2**15)
  cells take scipy's integer counts from that table (discordant pairs from
  2-D cumulative sums) and evaluate scipy's expression (``_tau_b``);
* larger tables, mostly the pair-ratio vectors of pairs sharing dozens of
  APs, count the discordant pairs as v's inversions after one sort by
  (u, v) (Knight 1966), in blocks of sqrt(m); the cost grows as m**1.5.

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
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Fingerprint, FingerprintPair, ProximityClass, open_utf8

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
_COLUMN_OF = {name: i for i, name in enumerate(FEATURE_NAMES)}

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
        return float(self.values[_COLUMN_OF[name]])

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
# Correlation and descriptive-statistic kernels over stacked rows
# ---------------------------------------------------------------------------
#
# The correlation kernels take two stacks of vectors, u (one per row) and v,
# and ``pairs`` of row indices; each pair (i, j) gives one result, for u[i]
# against v[j].  Each row is centred, normed and ranked once however many
# pairs read it.  Means, medians and standard deviations reduce along axis 1,
# which gives the same bits as the 1-D calls on C-contiguous rows.  Dot
# products and norms stay 1-D ``@``: a stacked ``np.matmul`` keeps their bits
# too, but is slower over the few rows of one pair.

#: Kendall's tau-b counts pair signs directly up to this many entries
KENDALL_SIGNS_MAX = 64
#: beyond it, the contingency table of the two vectors' tie groups is used
#: while it has at most this many cells
KENDALL_TABLE_MAX_CELLS = 1 << 15
#: larger tables take the block count, which compares at most this many pairs at a time
KENDALL_COMPARE_CELLS = 1 << 20


class _Ranked:
    """The rows of an (r, m) array and their tie groups, from one sort per row.

    Only tie-group ranks are read, so the order within ties does not matter
    and the default (unstable) argsort serves.
    """

    def __init__(self, values: np.ndarray):
        r, m = values.shape
        self.values = values
        flat = np.argsort(values, axis=1)
        flat += m * np.arange(r)[:, None]
        self._flat = flat.ravel()  # sorted position -> flat index into values
        sv = values.ravel()[self._flat]
        self._starts = np.ones(r * m, dtype=bool)  # a tie group starts here
        np.not_equal(sv[1:], sv[:-1], out=self._starts[1:])
        del sv
        self._starts.reshape(r, m)[:, :1] = True
        _, size, row = self._runs()
        #: (r,) tie groups per row
        self.groups = np.bincount(row, minlength=r)
        #: (r,) pairs of entries that share a group
        self.tied = np.bincount(row, weights=size * (size - 1) // 2, minlength=r).astype(np.int64)

    def _runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each group's first sorted position within its row, size and row."""
        m = self.values.shape[1]
        first = np.flatnonzero(self._starts)
        size = np.diff(first, append=self._starts.size)
        row = first // max(m, 1)
        return first - row * m, size, row

    def _per_entry(self, per_group: np.ndarray, size: np.ndarray) -> np.ndarray:
        out = np.empty(self.values.size, dtype=per_group.dtype)
        out[self._flat] = np.repeat(per_group, size)
        return out.reshape(self.values.shape)

    def average(self) -> np.ndarray:
        """1-based mean rank of each entry's tie group."""
        first, size, _ = self._runs()
        return self._per_entry(first + (size + 1) / 2.0, size)

    def top(self) -> np.ndarray:
        """1-based last rank of each entry's group: how many entries are <= it."""
        first, size, _ = self._runs()
        return self._per_entry((first + size).astype(np.float64), size)

    def dense(self, i: int) -> np.ndarray:
        """0-based index of each entry's group in row ``i``, in ascending order."""
        m = self.values.shape[1]
        row = slice(i * m, (i + 1) * m)
        out = np.empty(m, dtype=np.intp)
        out[self._flat[row] - i * m] = np.cumsum(self._starts[row]) - 1
        return out


def _cosine(u: np.ndarray, v: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    out = np.zeros(len(pairs))
    if u.shape[1] < 2:
        return out
    norm_u = [math.sqrt(row @ row) for row in u]
    norm_v = [math.sqrt(row @ row) for row in v]
    for k, (i, j) in enumerate(pairs):
        if norm_u[i] != 0.0 and norm_v[j] != 0.0:
            out[k] = float(u[i] @ v[j]) / (norm_u[i] * norm_v[j])
    return out


def _pearson(u: np.ndarray, v: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    out = np.zeros(len(pairs))
    if u.shape[1] < 2:
        return out
    du = u - u.mean(axis=1, keepdims=True)
    dv = v - v.mean(axis=1, keepdims=True)
    ss_u = [float(row @ row) for row in du]
    ss_v = [float(row @ row) for row in dv]
    for k, (i, j) in enumerate(pairs):
        if ss_u[i] != 0.0 and ss_v[j] != 0.0:
            out[k] = float(du[i] @ dv[j]) / math.sqrt(ss_u[i] * ss_v[j])
    return out


def _spearman(ru: _Ranked, rv: _Ranked, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    return _pearson(ru.average(), rv.average(), pairs)


def _kendall(ru: _Ranked, rv: _Ranked, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Kendall's tau-b per pair; 0.0 where undefined (short or constant input)."""
    m = ru.values.shape[1]
    out = np.zeros(len(pairs))
    if m < 2:
        return out
    if m <= KENDALL_SIGNS_MAX:
        sx, sy = _pair_signs(ru.values, rv.values)
        nonzero_x, nonzero_y = np.count_nonzero(sx, axis=1), np.count_nonzero(sy, axis=1)
    for k, (i, j) in enumerate(pairs):
        ku, kv = int(ru.groups[i]), int(rv.groups[j])
        if ku < 2 or kv < 2:
            continue
        if m <= KENDALL_SIGNS_MAX:
            # sums of -1, 0 and 1 are exact in any order
            denom = math.sqrt(float(nonzero_x[i]) * float(nonzero_y[j]))
            out[k] = float(sx[i] @ sy[j]) / denom
        elif ku * kv <= KENDALL_TABLE_MAX_CELLS:
            out[k] = _tau_b_from_table(ru, rv, i, j)
        else:
            out[k] = _tau_b_from_blocks(ru, rv, i, j)
    return out


def _tau_b(ru: _Ranked, rv: _Ranked, i: int, j: int, dis: int, joint_ties: int) -> float:
    """scipy's ``(con - dis) / sqrt(tot - xtie) / sqrt(tot - ytie)``, clipped to
    [-1, 1], from u[i] and v[j]'s discordant and jointly tied pairs."""
    m, xtie, ytie = ru.values.shape[1], int(ru.tied[i]), int(rv.tied[j])
    tot = m * (m - 1) // 2
    con_minus_dis = tot - xtie - ytie + joint_ties - 2 * dis
    tau = con_minus_dis / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
    return min(1.0, max(-1.0, tau))


def _tau_b_from_table(ru: _Ranked, rv: _Ranked, i: int, j: int) -> float:
    """scipy's tau-b of u[i] and v[j] from their tie groups' contingency table."""
    m = ru.values.shape[1]
    ku, kv = int(ru.groups[i]), int(rv.groups[j])
    table = np.bincount(ru.dense(i) * kv + rv.dense(j), minlength=ku * kv).reshape(ku, kv)
    # entries in a later u group (column totals minus running sums) and an
    # earlier v group are discordant
    later_u = np.cumsum(table, axis=0)
    np.subtract(later_u[-1], later_u, out=later_u)
    earlier_v = np.cumsum(later_u, axis=1)
    earlier_v -= later_u
    dis = int(np.vdot(table, earlier_v))
    return _tau_b(ru, rv, i, j, dis, (int(np.vdot(table, table)) - m) // 2)


def _tau_b_from_blocks(ru: _Ranked, rv: _Ranked, i: int, j: int) -> float:
    """scipy's tau-b of u[i] and v[j]: sorted by (u, v), the discordant pairs
    are the inversions of v's groups (Knight 1966).  Over blocks of s positions
    and of s ranks, s = ceil(sqrt(m)), pairs within a block are compared
    directly and the rest read off the (position block, rank block) histogram."""
    m, kv = ru.values.shape[1], int(rv.groups[j])
    keys = ru.dense(i) * kv
    keys += rv.dense(j)
    keys.sort()
    runs = np.diff(np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]), append=m)
    s = math.isqrt(m - 1) + 1
    # the positions in (v, u) order (the stable sort keeps u's order within ties
    # in v), padded to s * s with positions in order, which add no inversion
    order = np.argsort((keys % kv).astype(np.min_scalar_type(kv - 1)), kind="stable")
    order = np.r_[order, m:s * s].astype(np.min_scalar_type(s * s - 1))
    rank = np.argsort(order, kind="stable").astype(order.dtype)
    later = np.triu(np.ones((s, s), dtype=bool), 1)
    step = max(1, KENDALL_COMPARE_CELLS // (s * s))
    dis = 0
    # pairs in one position block by rank, in one rank block by position block
    for rows in (rank.reshape(s, s), (order // s).reshape(s, s)):
        for start in range(0, s, step):
            chunk = rows[start:start + step]
            dis += int(np.count_nonzero((chunk[:, :, None] > chunk[:, None, :]) & later))
    grid = np.bincount(np.arange(s * s) // s * s + rank // s, minlength=s * s).reshape(s, s)
    # per position block past the first: the entries before it, by rank block up to each
    below = np.cumsum(np.cumsum(grid[:-1], axis=0), axis=1)
    dis += s * s * s * (s - 1) // 2 - int(np.vdot(grid[1:], below))
    return _tau_b(ru, rv, i, j, dis, (int(np.vdot(runs, runs)) - m) // 2)


def _corr4(
    u: np.ndarray,
    v: np.ndarray,
    pairs: Sequence[tuple[int, int]],
    ranked: tuple[_Ranked, _Ranked] | None = None,
) -> np.ndarray:
    """(len(pairs), 4): cosine, Pearson, Spearman and Kendall of each pair.

    ``ranked`` passes the rows' ranks when the caller already has them.
    """
    by_value = [_cosine(u, v, pairs), _pearson(u, v, pairs)]
    ru, rv = ranked or (_Ranked(u), _Ranked(v))
    return np.column_stack([*by_value, _spearman(ru, rv, pairs), _kendall(ru, rv, pairs)])


def _stats7(v: np.ndarray) -> np.ndarray:
    """(r, 7): min, max, mean, median, harmonic mean, sample and population std."""
    r, m = v.shape
    if m == 0:
        return np.zeros((r, 7))
    hmean = np.where((v == 0.0).any(axis=1), 0.0, m / np.sum(1.0 / v, axis=1))
    std_s = v.std(axis=1, ddof=1) if m >= 2 else np.zeros(r)
    return np.column_stack([
        v.min(axis=1),
        v.max(axis=1),
        v.mean(axis=1),
        np.median(v, axis=1),
        hmean,
        std_s,
        v.std(axis=1, ddof=0),
    ])


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
    """v_i - v_j over unordered pairs i < j of the last axis."""
    ii, jj = _upper_pairs(v.shape[-1])
    return np.take(v, ii, axis=-1) - np.take(v, jj, axis=-1)


def _pair_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs of u_i - u_j and v_i - v_j over unordered pairs i < j."""
    return np.sign(_pair_differences(u)), np.sign(_pair_differences(v))


def _pair_ratios(v: np.ndarray) -> np.ndarray:
    """v_i / v_j over ordered pairs i != j of the last axis."""
    safe = np.where(v == 0.0, ZERO_RSSI_SUBSTITUTE, v)
    ii, jj = _ordered_pairs(v.shape[-1])
    return np.take(safe, ii, axis=-1) / np.take(safe, jj, axis=-1)


def _normalized_rank_vectors(
    rx: _Ranked, ry: _Ranked, pairs: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair (i, j): unit-L2 max-rank vectors of x[i] and y[j], ordered by
    descending rank in x[i], ties by AP id; one row each."""
    tx, ty = rx.top(), ry.top()
    order = np.argsort(-tx, axis=1, kind="stable")
    iu, iv = (np.array(side) for side in zip(*pairs))
    kx = np.take_along_axis(tx, order, axis=1)[iu]
    ky = np.take_along_axis(ty[iv], order[iu], axis=1)
    for k in (kx, ky):
        for row in k:
            row /= math.sqrt(row @ row)
    return kx, ky


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


def _shared_index(a: Fingerprint, b: Fingerprint) -> tuple[np.ndarray, np.ndarray]:
    """Where the APs both fingerprints detected sit in a's and b's encodings."""
    _, ia, ib = np.intersect1d(
        a.encoding[0], b.encoding[0], assume_unique=True, return_indices=True
    )
    return ia, ib


def _shared_values(a: Fingerprint, b: Fingerprint) -> tuple[np.ndarray, np.ndarray]:
    """RSSIs of the APs both fingerprints detected, in ascending BSSID order."""
    ia, ib = _shared_index(a, b)
    return a.encoding[1][ia], b.encoding[1][ib]


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

#: the calibrated forms that each variant pairs, as (row of a's, row of b's)
#: in the stacks that ``extract`` builds: a as read, A*r+B and (A/2)*r+B/2;
#: b as read and C*r+D
_VARIANT_FORMS = ((0, 0), (1, 0), (2, 0), (1, 1))
_FORM_A, _FORM_B = (np.array(side) for side in zip(*_VARIANT_FORMS))
_SAME_ROW = tuple((k, k) for k in range(len(_VARIANT_FORMS)))


def _variant_block(
    x: np.ndarray,
    y: np.ndarray,
    a_ids: np.ndarray,
    a_vals: np.ndarray,
    b_ids: np.ndarray,
    b_vals: np.ndarray,
) -> np.ndarray:
    """The 79 RSSI-dependent features of each calibration variant, one row each.

    Each row of ``x``/``a_vals`` holds one calibrated form of a's shared-AP
    resp. full readings, aligned with ``a_ids``; ``y``/``b_vals`` the same
    for b; all in ascending BSSID order.  Variant k pairs the forms named by
    ``_VARIANT_FORMS[k]``, so each form's vectors are built and sorted once.
    """
    n = x.shape[1]
    r = len(_VARIANT_FORMS)
    d = x[_FORM_A] - y[_FORM_B]
    gaps = np.abs(d)

    # dist (0 without shared APs: empty sums)
    dist = np.column_stack([gaps.sum(axis=1), [math.sqrt(row @ row) for row in d]])

    # top_ap_within and rssi_within_pct, z = 1..15
    z = np.arange(1, 16)
    if n:
        depth = np.maximum(
            a_vals.max(axis=1)[_FORM_A, None] - x[_FORM_A],
            b_vals.max(axis=1)[_FORM_B, None] - y[_FORM_B],
        ).min(axis=1)
        within = (depth[:, None] <= z).astype(np.float64)
        within_pct = (gaps[:, :, None] <= z).sum(axis=1) / n
    else:
        within = within_pct = np.zeros((r, len(z)))

    # shared_top_k, k = 1..8: the k strongest APs coincide as sets
    top_a = a_ids[np.argsort(-a_vals, axis=1, kind="stable")[_FORM_A, :8]]
    top_b = b_ids[np.argsort(-b_vals, axis=1, kind="stable")[_FORM_B, :8]]
    kk = min(top_a.shape[1], top_b.shape[1])
    hits = (top_a[:, :kk, None] == top_b[:, None, :kk]).cumsum(axis=1).cumsum(axis=2)
    top_k = np.zeros((r, 8))
    top_k[:, :kk] = hits[:, np.arange(kk), np.arange(kk)] == np.arange(1, kk + 1)

    # redpin, both directions (b is the AP-richer fingerprint by pair order)
    n_full = (gaps <= REDPIN_MATCH_THRESHOLD_DBM).sum(axis=1)
    n_partial = n - n_full
    redpin = np.zeros((r, 2))
    for j, p_count in enumerate((b_ids.size, a_ids.size)):
        if p_count:
            redpin[:, j] = (
                REDPIN_MATCH_CREDIT * n_full
                + REDPIN_PARTIAL_CREDIT * n_partial
                - REDPIN_MISS_PENALTY * (p_count - n)
            ) / p_count

    # correlations over four vector pairs, and statistics of their absolute
    # gaps; the long pairwise vectors live one family at a time
    rx, ry = _Ranked(x), _Ranked(y)
    corr_rk = _corr4(*_normalized_rank_vectors(rx, ry, _VARIANT_FORMS), _SAME_ROW)
    corr_pd, diff_pd = _pairwise_family(_pair_differences(x), _pair_differences(y))
    corr_pr, diff_pr = _pairwise_family(_pair_ratios(x), _pair_ratios(y))
    return np.concatenate(
        [
            dist, within, within_pct, top_k, redpin,
            _corr4(x, y, _VARIANT_FORMS, (rx, ry)), corr_pd, corr_pr, corr_rk,
            _stats7(gaps), diff_pd, diff_pr,
        ],
        axis=1,
    )


def _pairwise_family(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Correlations of the variants' pairwise vectors and statistics of their gaps."""
    gaps = u[_FORM_A]
    gaps -= v[_FORM_B]
    diff = _stats7(np.abs(gaps, out=gaps))
    del gaps  # freed before the correlations rank u and v
    return _corr4(u, v, _VARIANT_FORMS), diff


def extract(pair: FingerprintPair) -> FeatureVector:
    """Compute the full 323-entry feature vector for a canonical pair."""
    # overflowing readings surface as NonFiniteFeatureError below, with the
    # feature names, rather than as numpy RuntimeWarnings from deep inside
    with np.errstate(all="ignore"):
        a, b = pair.a, pair.b
        (a_ids, a_vals), (b_ids, b_vals) = a.encoding, b.encoding
        ia, ib = _shared_index(a, b)
        x, y = a_vals[ia], b_vals[ib]
        slope_ab, inter_ab, slope_ba, inter_ba = _fit_both_ways(x, y)
        # one row per calibrated form (see _VARIANT_FORMS)
        av = np.stack([
            a_vals, slope_ab * a_vals + inter_ab, (slope_ab / 2.0) * a_vals + inter_ab / 2.0
        ])
        bv = np.stack([b_vals, slope_ba * b_vals + inter_ba])
        block = _variant_block(
            np.take(av, ia, axis=1), np.take(bv, ib, axis=1), a_ids, av, b_ids, bv
        )
        arr = np.concatenate([
            ap_detection_features(a, b),
            block.ravel(),
            [identical_devices(a, b), _rank_concordance(x, y)],
        ])

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
        for pid, dist, label, row in zip(
            table.pair_ids, table.distances.tolist(), table.labels, table.matrix
        ):
            writer.writerow([pid, repr(dist), label.value, *map(repr, row.tolist())])


def read_feature_table(path: str | Path) -> FeatureTable:
    """Parse a feature CSV in one ``np.loadtxt`` pass, every number in C.

    When that pass fails, or a line is blank (``loadtxt`` skips those),
    ``_check_records`` raises the first bad CSV record's error.
    """
    p = Path(path)
    pair_ids: list[str] = []
    labels: list[ProximityClass] = []
    with open_utf8(p, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{p}: empty feature table")
        if tuple(header[: len(_META_COLUMNS)]) != _META_COLUMNS:
            raise ValueError(f"{p}: unexpected header {header[:3]!r}")
        column_of: dict[str, int] = {}
        for k, name in enumerate(header, start=1):
            if column_of.setdefault(name, k) != k:
                raise ValueError(f"{p}:1: repeats {name!r} from column {column_of[name]}")
        lines, width = fh.readlines(), len(header)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # one structured field of ``width`` cells: a row of another width is an error
            cells = np.loadtxt(
                lines, dtype=[("row", np.float64, width)], delimiter=",", comments=None,
                quotechar='"', encoding=None,
                converters={0: pair_ids.append, 2: lambda s: labels.append(ProximityClass(s))},
            )["row"].reshape(-1, width)
    except ValueError as e:
        _check_records(p, width)
        raise ValueError(f"{p}: {e}") from e
    if any(line in ("\n", "\r\n", "\r") for line in lines):
        _check_records(p, width)  # passes when each blank line sits inside a quoted pair id
    matrix = np.ascontiguousarray(cells[:, len(_META_COLUMNS):])
    dist = cells[:, 1].copy()
    finite = np.isfinite(matrix).all(axis=1) & np.isfinite(dist)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{p}:{row + 2}: non-finite cell")
    return FeatureTable(names=tuple(header[len(_META_COLUMNS):]), pair_ids=tuple(pair_ids),
                        distances=dist, labels=tuple(labels), matrix=matrix)


def _check_records(p: Path, width: int) -> None:
    """Raise the error of the first record that ``read_feature_table`` rejects."""
    with open_utf8(p, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValueError(f"{p}:{lineno}: expected {width} cells, got {len(row)}")
            try:
                ProximityClass(row[2])
                for cell in (row[1], *row[3:]):
                    # float() also takes "1_0" and non-ASCII digits; np.loadtxt does not
                    if "_" in cell or not cell.strip().isascii():
                        raise ValueError(f"could not convert string to float: {cell!r}")
                    float(cell)
            except ValueError as e:
                raise ValueError(f"{p}:{lineno}: bad cell ({e})") from e
