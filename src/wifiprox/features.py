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

Pairs are extracted in batches, and ``extract`` is a batch of one.  A
batch holds pairs that share the same number n of APs, up to
``BATCH_CELLS`` cells, so their shared-AP vectors stack into (rows, n)
arrays and every kernel makes the same few numpy calls however many pairs
the batch holds.  The full fingerprints, which differ in length, are padded
to the batch's longest; the padding never raises a maximum, sorts after
every reading and matches no AP.  The four variants of a pair share their
inputs: a's readings take three calibrated forms (as read, A*r+B and
(A/2)*r+B/2) and b's two (as read, C*r+D), and each variant pairs one form
of a with one of b.  Each form is one row of a stacked array; its vectors
are built once and sorted once for all their rank statistics (Spearman's
average ranks, Kendall's tie groups, the rank vectors' max ranks).

Kendall's tau-b takes one count at every length, the sorted count
(``_tau_b_sorted``): the keys ``dense_u * m + dense_v`` of each row are
sorted, runs of equal keys are the joint ties, and the discordant pairs are
v's inversions in that order (Knight 1966).  Up to ``KENDALL_DIRECT_MAX``
(256) entries (the pair-difference and pair-ratio vectors of pairs sharing up
to 23 and 16 APs, so every low-density pair's) a call's rows are sorted
together and the inversions counted directly, comparing every pair of
positions a few rows at a time.  Past it, rows are sorted a chunk of at most
``CHUNK_CELLS`` entries at a time and each row's inversions are counted by
blocks of sqrt(m) positions (``_block_inversions``); the cost grows as m**1.5.
The row length m then selects one of two expressions of those integer counts.
Past ``KENDALL_SIGNS_MAX`` (64) entries it is scipy's, which gives
``scipy.stats.kendalltau``'s bits.  Up to it, it is the signs rule's
``(sx . sy) / sqrt(nx * ny)`` over the signs of all pair differences (sx . sy
is concordant minus discordant pairs, nx and ny the pairs untied in u and in
v).  That can differ from scipy's in the last bits (up to 3 ULP on 3,000
random integer-dBm inputs of 3-64 entries; the golden hashes pin these bits),
and is NaN where a pair difference is: in a row with a NaN entry or the same
infinity twice.

Per row on a 2-core x86-64 host, the direct count took 3, 8, 11 and 19 us at
66, 132, 182 and 256 integer-dBm entries, and the block count 76, 205 and
1,055 us at 506, 2,162 and 7,656 distinct entries.  Kendall's calls past 64
entries on build-density seed set 0's 100 low, 100 medium and 100 high
pairs, ranks included, took 8, 116 and 391 ms (medians of 10 interleaved
rounds).  A direct count up to 512 entries was no faster on the medium calls
(faster in 4 of 10 rounds), and 256 keeps v's ranks in one byte.

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
import os
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterator, Sequence

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

def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """OLS slope and intercept mapping each row of x onto the same row of y.

    Degenerate fits fall back to slope 1: with no entries the intercept is 0,
    with zero variance in x it is the mean offset.  1-D vectors give scalars.
    """
    rows_x, rows_y = np.atleast_2d(x), np.atleast_2d(y)
    if rows_x.shape[1] == 0:
        slope, intercept = np.ones(len(rows_x)), np.zeros(len(rows_x))
    else:
        mx, my = rows_x.mean(axis=1), rows_y.mean(axis=1)
        dx = rows_x - mx[:, None]
        sxx = np.vecdot(dx, dx)
        slope = np.divide(np.vecdot(dx, rows_y - my[:, None]), sxx,
                          out=np.ones_like(sxx), where=sxx != 0.0)
        intercept = my - slope * mx
    return (slope, intercept) if x.ndim == 2 else (slope[0], intercept[0])


def _fit_both_ways(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(A, B, C, D) for each row of x and the same row of y: A, B map x onto
    y; C, D the reverse."""
    slope, intercept = _fit_line(np.concatenate([x, y]), np.concatenate([y, x]))
    (slope_ab, slope_ba), (inter_ab, inter_ba) = np.split(slope, 2), np.split(intercept, 2)
    return slope_ab, inter_ab, slope_ba, inter_ba


def fit_least_squares(a: Fingerprint, b: Fingerprint) -> tuple[float, float, float, float]:
    """(A, B, C, D): A,B map a's readings onto b's; C,D the reverse."""
    x, y = _shared_values(a, b)
    return tuple(float(v[0]) for v in _fit_both_ways(x[None], y[None]))


# ---------------------------------------------------------------------------
# Correlation and descriptive-statistic kernels over stacked rows
# ---------------------------------------------------------------------------
#
# The correlation kernels take two stacks of vectors, u (one per row) and v,
# and ``pairs``, a sequence of (i, j) row indices; each pair gives one result,
# for u[i] against v[j].  The rows are every calibrated form of every pair in
# a batch, so each kernel makes the same few numpy calls however many pairs
# the batch holds, and each row is centred, normed and ranked once however
# many pairs read it.  Means, medians and standard deviations reduce along
# axis 1, and dot products and norms are ``np.vecdot`` over C-contiguous
# rows: both give the same bits as the 1-D calls on each row (a stacked
# ``np.matmul`` keeps the bits of ``@`` too, but is three times slower on
# short rows; ``tests/test_features.py`` pins both on the row lengths that
# extraction produces).

#: Kendall's sorted count (the inversions of one sort of each row) gives the
#: signs rule's expression up to this many entries, and scipy's past it
KENDALL_SIGNS_MAX = 64
#: the sorted count counts inversions directly up to this many entries, many
#: rows at a time, and by blocks one row at a time past it; its calls on
#: build-density's low, medium and high pairs took 8, 116 and 391 ms, and a
#: cutoff at 512 was no faster (the module docstring has the measurements)
KENDALL_DIRECT_MAX = 256
#: the inversion counts (the direct count, and the block count within its
#: blocks) compare at most this many pairs of entries at a time, or one row
#: if it holds more
KENDALL_COMPARE_CELLS = 1 << 18
#: the kernels that gather rows for pairs of vectors a chunk at a time (dot
#: products, the sorted count past ``KENDALL_DIRECT_MAX``) keep each chunk's
#: arrays to at most this many cells, or one row if a row holds more
CHUNK_CELLS = 1 << 13


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
        first, size = self._runs()
        row = first // max(m, 1)
        #: (r,) tie groups per row
        self.groups = np.bincount(row, minlength=r)
        #: (r,) pairs of entries that share a group
        self.tied = np.bincount(row, weights=size * (size - 1) // 2, minlength=r).astype(np.int64)

    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Each group's first sorted position, counted across rows, and size."""
        first = np.flatnonzero(self._starts)
        size = np.empty_like(first)
        np.subtract(first[1:], first[:-1], out=size[:-1])
        size[-1:] = self._starts.size - first[-1:]
        return first, size

    def _per_entry(self, per_group: np.ndarray, size: np.ndarray) -> np.ndarray:
        out = np.empty(self.values.size, dtype=per_group.dtype)
        out[self._flat] = np.repeat(per_group, size)
        return out.reshape(self.values.shape)

    def average(self) -> np.ndarray:
        """1-based mean rank of each entry's tie group."""
        first, size = self._runs()
        return self._per_entry(first % max(self.values.shape[1], 1) + (size + 1) / 2.0, size)

    def top(self) -> np.ndarray:
        """1-based last rank of each entry's group: how many entries are <= it."""
        first, size = self._runs()
        return self._per_entry((first % max(self.values.shape[1], 1) + size).astype(np.float64), size)

    @cached_property
    def dense(self) -> np.ndarray:
        """(r, m): 0-based index of each entry's group within its row, in
        ascending order, in the smallest unsigned type that holds m."""
        m = self.values.shape[1]
        groups = np.cumsum(self._starts.reshape(self.values.shape), axis=1,
                           dtype=np.min_scalar_type(m))
        groups -= 1  # each row starts a group
        out = np.empty(self.values.size, dtype=groups.dtype)
        out[self._flat] = groups.ravel()
        return out.reshape(self.values.shape)


def _columns(pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The u rows and the v rows that ``pairs`` reads, as two index arrays."""
    iu, iv = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    return iu, iv


def _chunks(k: int, cells_per_row: int) -> Iterator[slice]:
    """Slices of k gathered rows holding at most ``CHUNK_CELLS`` cells, or one row."""
    step = max(1, CHUNK_CELLS // max(cells_per_row, 1))
    return (slice(start, start + step) for start in range(0, k, step))


def _paired_dots(u: np.ndarray, v: np.ndarray, iu: np.ndarray, iv: np.ndarray) -> np.ndarray:
    """u[iu[k]] . v[iv[k]] for each k, gathering a chunk of rows at a time."""
    out = np.empty(len(iu))
    for rows in _chunks(len(iu), u.shape[1]):
        out[rows] = np.vecdot(u[iu[rows]], v[iv[rows]])
    return out


def _cosine(u: np.ndarray, v: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    iu, iv = _columns(pairs)
    out = np.zeros(len(iu))
    if u.shape[1] < 2:
        return out
    norm_u, norm_v = np.sqrt(np.vecdot(u, u))[iu], np.sqrt(np.vecdot(v, v))[iv]
    ok = (norm_u != 0.0) & (norm_v != 0.0)
    out[ok] = _paired_dots(u, v, iu[ok], iv[ok]) / (norm_u[ok] * norm_v[ok])
    return out


def _pearson(u: np.ndarray, v: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    iu, iv = _columns(pairs)
    out = np.zeros(len(iu))
    if u.shape[1] < 2:
        return out
    du = u - u.mean(axis=1, keepdims=True)
    dv = v - v.mean(axis=1, keepdims=True)
    ss_u, ss_v = np.vecdot(du, du)[iu], np.vecdot(dv, dv)[iv]
    ok = (ss_u != 0.0) & (ss_v != 0.0)
    out[ok] = _paired_dots(du, dv, iu[ok], iv[ok]) / np.sqrt(ss_u[ok] * ss_v[ok])
    return out


def _spearman(ru: _Ranked, rv: _Ranked, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    return _pearson(ru.average(), rv.average(), pairs)


def _kendall(ru: _Ranked, rv: _Ranked, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Kendall's tau-b per pair; 0.0 where undefined (short or constant input)."""
    iu, iv = _columns(pairs)
    out = np.zeros(len(iu))
    defined = (ru.groups[iu] >= 2) & (rv.groups[iv] >= 2)
    if defined.any():  # only then is m >= 2, which the count needs
        out[defined] = _tau_b_sorted(ru, rv, iu[defined], iv[defined])
    return out


@lru_cache(maxsize=8)  # batches of one shared-AP count run in turn, so few widths recur
def _later(w: int) -> np.ndarray:
    """(w, w), read-only: True where the column comes after the row."""
    later = np.triu(np.ones((w, w), dtype=bool), 1)
    later.setflags(write=False)
    return later


def _inversion_hits(rows: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(chunk, hit) for chunks of the rows of an (r, w) array, holding at most
    ``KENDALL_COMPARE_CELLS`` cells of ``hit`` or one row: ``hit[k, i, j]``
    is whether i < j and rows[chunk][k, i] > rows[chunk][k, j]."""
    r, w = rows.shape
    later = _later(w)
    step = max(1, KENDALL_COMPARE_CELLS // (w * w))
    for start in range(0, r, step):
        chunk = slice(start, start + step)
        hit = rows[chunk, :, None] > rows[chunk, None, :]
        hit &= later
        yield chunk, hit


def _tau_b_sorted(ru: _Ranked, rv: _Ranked, iu: np.ndarray, iv: np.ndarray) -> np.ndarray:
    """Kendall's tau-b of each u[iu[k]] and v[iv[k]].  Sorted by (u, v), equal
    keys are jointly tied and the discordant pairs are the inversions of v's
    groups (Knight 1966).  Up to ``KENDALL_DIRECT_MAX`` entries all rows are
    sorted in one call and their inversions compared directly; past it rows
    are sorted a chunk at a time and each row's inversions counted by blocks.
    The counts give scipy's expression, clipped to [-1, 1], past
    ``KENDALL_SIGNS_MAX`` entries, and the signs rule's up to it."""
    m, k = ru.values.shape[1], len(iu)
    direct = m <= KENDALL_DIRECT_MAX
    position = np.arange(m)
    dis, joint = np.empty(k, dtype=np.int64), np.empty(k, dtype=np.int64)
    for rows in [slice(None)] if direct else _chunks(k, m):
        keys = np.multiply(ru.dense[iu[rows]], m, dtype=np.intp)
        keys += rv.dense[iv[rows]]
        keys.sort(axis=1)
        # joint ties: each entry pairs with the earlier entries of its run
        run_start = np.where(keys[:, 1:] == keys[:, :-1], 0, position[1:])
        np.maximum.accumulate(run_start, axis=1, out=run_start)
        joint[rows] = (position[1:] - run_start).sum(axis=1)
        del run_start
        ranks = (keys % m).astype(np.min_scalar_type(m - 1))
        if direct:
            for chunk, hit in _inversion_hits(ranks):
                # one count per row is faster than a count along axes
                dis[chunk] = [np.count_nonzero(h) for h in hit]
        else:
            dis[rows] = [_block_inversions(r) for r in ranks]
    xtie, ytie = ru.tied[iu], rv.tied[iv]
    tot = m * (m - 1) // 2
    con_minus_dis = tot - xtie - ytie + joint - 2 * dis
    if m > KENDALL_SIGNS_MAX:
        return np.clip(con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie), -1.0, 1.0)
    # sx . sy = con - dis, nx = tot - xtie and ny = tot - ytie, all exact
    tau = con_minus_dis / np.sqrt((tot - xtie) * (tot - ytie))
    if not (np.isfinite(ru.values).all() and np.isfinite(rv.values).all()):
        tau[_nan_signs(ru.values)[iu] | _nan_signs(rv.values)[iv]] = np.nan
    return tau


def _nan_signs(values: np.ndarray) -> np.ndarray:
    """(r,): rows with a NaN pair difference: a NaN entry, or one infinity twice."""
    return (np.isnan(values).any(axis=1) | (np.count_nonzero(values == np.inf, axis=1) > 1)
            | (np.count_nonzero(values == -np.inf, axis=1) > 1))


def _block_inversions(ranks: np.ndarray) -> int:
    """Inversions of one row of m ranks.  Over blocks of s positions and of s
    ranks, s = ceil(sqrt(m)), pairs within a block are compared directly and
    the rest read off the (position block, rank block) histogram."""
    m = len(ranks)
    s = math.isqrt(m - 1) + 1
    # the positions in rank order (the stable sort keeps position order within
    # ties), padded to s * s with positions in order, which add no inversion
    order = np.r_[np.argsort(ranks, kind="stable"), m:s * s].astype(np.min_scalar_type(s * s - 1))
    rank = np.argsort(order, kind="stable").astype(order.dtype)
    # pairs in one position block by rank, in one rank block by position block
    dis = 0
    for blocks in (rank.reshape(s, s), (order // s).reshape(s, s)):
        dis += sum(np.count_nonzero(hit) for _, hit in _inversion_hits(blocks))
    grid = np.bincount(np.arange(s * s) // s * s + rank // s, minlength=s * s).reshape(s, s)
    # per position block past the first: the entries before it, by rank block up to each
    below = np.cumsum(np.cumsum(grid[:-1], axis=0), axis=1)
    return dis + s * s * s * (s - 1) // 2 - int(np.vdot(grid[1:], below))


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
    iu, iv = _columns(pairs)
    tx, ty = rx.top(), ry.top()
    order = np.argsort(-tx, axis=1, kind="stable")[iu]
    kx, ky = tx[iu[:, None], order], ty[iv[:, None], order]
    for k in (kx, ky):
        k /= np.sqrt(np.vecdot(k, k))[:, None]
    return kx, ky


# ---------------------------------------------------------------------------
# Features read directly off the pair
# ---------------------------------------------------------------------------

def _shared_index(a: Fingerprint, b: Fingerprint) -> tuple[np.ndarray, np.ndarray]:
    """Where the APs both fingerprints detected sit in a's and b's encodings.

    Both encodings are sorted and unique, so each of a's APs is at its
    insertion point in b's, or b lacks it.
    """
    ids_a, ids_b = a.encoding[0], b.encoding[0]
    if not ids_b.size:
        ids_a = ids_a[:0]
    at = np.searchsorted(ids_b, ids_a)
    ia = np.flatnonzero(ids_b.take(at, mode="clip") == ids_a)
    return ia, at[ia]


def _shared_values(a: Fingerprint, b: Fingerprint) -> tuple[np.ndarray, np.ndarray]:
    """RSSIs of the APs both fingerprints detected, in ascending BSSID order."""
    ia, ib = _shared_index(a, b)
    return a.encoding[1][ia], b.encoding[1][ib]


def _rank_concordance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fraction of shared-AP pairs whose RSSI ordering agrees across a and b,
    for each row of x and y (a scalar for two 1-D vectors).

    A pair tied in both fingerprints counts as concordant; tied in exactly
    one counts ``RE3_TIE_CREDIT``.  Fewer than two shared APs gives 0.
    """
    sx, sy = _pair_signs(x, y)
    both_tied = (sx == 0) & (sy == 0)
    one_tied = (sx == 0) ^ (sy == 0)
    agree = (sx == sy) & (sx != 0)
    score = agree.sum(axis=-1) + both_tied.sum(axis=-1) + RE3_TIE_CREDIT * one_tied.sum(axis=-1)
    return score / max(sx.shape[-1], 1)


def identical_devices(a: Fingerprint, b: Fingerprint) -> float:
    return 1.0 if a.device_model.strip().casefold() == b.device_model.strip().casefold() else 0.0


# ---------------------------------------------------------------------------
# Full extraction
# ---------------------------------------------------------------------------

#: the calibrated forms that each variant pairs, as (form of a, form of b):
#: a as read, A*r+B and (A/2)*r+B/2; b as read and C*r+D
_VARIANT_FORMS = ((0, 0), (1, 0), (2, 0), (1, 1))
#: a batch holds pairs of one shared-AP count n while their pair-ratio
#: entries, n(n-1) per form, and full-fingerprint readings total at most this
#: many: about one high-density pair, or dozens of low-density ones
BATCH_CELLS = 1 << 12


def _variant_rows(n_pairs: int) -> np.ndarray:
    """(4 * n_pairs, 2): each variant's (row of a's forms, row of b's forms).

    Pair p's forms are rows 3p..3p+2 of a's stack and 2p..2p+1 of b's, and
    its four variants are rows 4p..4p+3 of the result (``_VARIANT_FORMS``).
    """
    return (np.arange(n_pairs)[:, None, None] * [3, 2] + _VARIANT_FORMS).reshape(-1, 2)


def _forms(v: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray) -> np.ndarray:
    """Rows ``slopes[p, f] * v[p] + intercepts[p, f]``, f-major within each p."""
    forms = slopes[:, :, None] * v[:, None, :] + intercepts[:, :, None]
    p, f, m = forms.shape
    return forms.reshape(p * f, m)


def _padded(fingerprints: Sequence[Fingerprint]) -> tuple[np.ndarray, np.ndarray]:
    """(readings, pad): the fingerprints' RSSIs in BSSID order as rows, padded
    to the longest; ``pad`` marks the padding."""
    counts = np.array([fp.ap_count for fp in fingerprints])
    pad = np.arange(counts.max()) >= counts[:, None]
    readings = np.zeros(pad.shape)
    readings[~pad] = np.concatenate([fp.encoding[1] for fp in fingerprints])
    return readings, pad


def _strongest(readings: np.ndarray, pad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per padded row: the largest reading, and the positions of the 8
    strongest readings, strongest first, ties by BSSID.  The padding sorts
    after every reading (NaN included) and never raises the maximum."""
    top = np.argsort(np.where(pad, np.nan, -readings), axis=1, kind="stable")[:, :8]
    return np.where(pad, -np.inf, readings).max(axis=1, initial=-np.inf), top


def _variant_block(
    x: np.ndarray,
    y: np.ndarray,
    a_full: tuple[np.ndarray, np.ndarray],
    b_full: tuple[np.ndarray, np.ndarray],
    match: np.ndarray,
    forms: np.ndarray,
) -> np.ndarray:
    """The 79 RSSI-dependent features of each variant row of ``forms``.

    Each row of ``x`` holds one calibrated form of a pair's shared-AP
    readings for a, and ``a_full`` is ``(readings, pad)`` of the same form of
    a's full fingerprint, padded (see ``_padded``); ``y`` and ``b_full`` the
    same for b; all in ascending BSSID order.  ``match`` gives, per row of
    ``a_full``, the position in b's fingerprint of each of a's APs, -1 where
    b lacks it.  Each form's vectors are built and sorted once, whichever
    variants read it.
    """
    n = x.shape[1]
    r = len(forms)
    fa, fb = forms.T
    d = x[fa] - y[fb]
    gaps = np.abs(d)

    # dist (0 without shared APs: empty sums)
    dist = np.column_stack([gaps.sum(axis=1), np.sqrt(np.vecdot(d, d))])

    # top_ap_within and rssi_within_pct, z = 1..15
    (a_max, top_a), (b_max, top_b) = _strongest(*a_full), _strongest(*b_full)
    z = np.arange(1, 16)
    if n:
        depth = np.maximum(a_max[fa, None] - x[fa], b_max[fb, None] - y[fb]).min(axis=1)
        within = (depth[:, None] <= z).astype(np.float64)
        within_pct = (gaps[:, :, None] <= z).sum(axis=1) / n
    else:
        within = within_pct = np.zeros((r, len(z)))

    # shared_top_k, k = 1..8: the k strongest APs coincide as sets.  a's top
    # APs are named by their position in b, so neither an AP that b lacks
    # nor padding on either side matches, and k past either AP count gives 0
    top_a = match[np.arange(len(match))[:, None], top_a][fa]
    top_b = top_b[fb]
    kk = min(top_a.shape[1], top_b.shape[1])
    hits = (top_a[:, :kk, None] == top_b[:, None, :kk]).cumsum(axis=1).cumsum(axis=2)
    top_k = np.zeros((r, 8))
    top_k[:, :kk] = hits[:, np.arange(kk), np.arange(kk)] == np.arange(1, kk + 1)

    # redpin, both directions (b is the AP-richer fingerprint by pair order)
    n_full = (gaps <= REDPIN_MATCH_THRESHOLD_DBM).sum(axis=1)
    n_partial = n - n_full
    redpin = np.zeros((r, 2))
    for j, p_count in enumerate(((~b_full[1]).sum(axis=1)[fb], (~a_full[1]).sum(axis=1)[fa])):
        score = (
            REDPIN_MATCH_CREDIT * n_full
            + REDPIN_PARTIAL_CREDIT * n_partial
            - REDPIN_MISS_PENALTY * (p_count - n)
        )
        np.divide(score, p_count, out=redpin[:, j], where=p_count > 0)

    # correlations over four vector pairs, and statistics of their absolute
    # gaps; the long pairwise vectors live one family at a time
    rx, ry = _Ranked(x), _Ranked(y)
    same_row = np.repeat(np.arange(r)[:, None], 2, axis=1)
    corr_rk = _corr4(*_normalized_rank_vectors(rx, ry, forms), same_row)
    corr_pd, diff_pd = _pairwise_family(_pair_differences(x), _pair_differences(y), forms)
    corr_pr, diff_pr = _pairwise_family(_pair_ratios(x), _pair_ratios(y), forms)
    return np.concatenate(
        [
            dist, within, within_pct, top_k, redpin,
            _corr4(x, y, forms, (rx, ry)), corr_pd, corr_pr, corr_rk,
            _stats7(gaps), diff_pd, diff_pr,
        ],
        axis=1,
    )


def _pairwise_family(u: np.ndarray, v: np.ndarray, forms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Correlations of the variants' pairwise vectors and statistics of their gaps."""
    gaps = u[forms[:, 0]]
    gaps -= v[forms[:, 1]]
    diff = _stats7(np.abs(gaps, out=gaps))
    del gaps  # freed before the correlations rank u and v
    return _corr4(u, v, forms), diff


def _extract_batch(pairs: Sequence[FingerprintPair], shared: Sequence[tuple]) -> np.ndarray:
    """The feature rows of pairs that share the same number of APs;
    ``shared`` holds each pair's ``_shared_index``."""
    n_pairs = len(pairs)
    (a_vals, a_pad), (b_vals, b_pad) = _padded([p.a for p in pairs]), _padded([p.b for p in pairs])
    ia, ib = (np.array(side) for side in zip(*shared))
    row = np.arange(n_pairs)[:, None]
    x, y = a_vals[row, ia], b_vals[row, ib]
    slope_ab, inter_ab, slope_ba, inter_ba = _fit_both_ways(x, y)
    # (slopes, intercepts) of each calibrated form, in _variant_rows' order;
    # 1.0 * r + -0.0 is r, bit for bit
    one, keep = np.ones(n_pairs), np.full(n_pairs, -0.0)
    a_fit = (np.array([one, slope_ab, slope_ab / 2.0]).T,
             np.array([keep, inter_ab, inter_ab / 2.0]).T)
    b_fit = np.array([one, slope_ba]).T, np.array([keep, inter_ba]).T
    match = np.full(a_pad.shape, -1)
    match[row, ia] = ib
    block = _variant_block(
        _forms(x, *a_fit), _forms(y, *b_fit),
        (_forms(a_vals, *a_fit), np.repeat(a_pad, 3, axis=0)),
        (_forms(b_vals, *b_fit), np.repeat(b_pad, 2, axis=0)),
        np.repeat(match, 3, axis=0),
        _variant_rows(n_pairs),
    )
    n, count_a, count_b = x.shape[1], (~a_pad).sum(axis=1), (~b_pad).sum(axis=1)
    union = count_a + count_b - n
    return np.column_stack([
        # AP detection: shared, union, non-shared, |count difference|, Jaccard
        np.full(n_pairs, n), union, union - n, np.abs(count_a - count_b),
        np.divide(n, union, out=np.zeros(n_pairs), where=union > 0),
        block.reshape(n_pairs, -1),
        [identical_devices(p.a, p.b) for p in pairs],
        _rank_concordance(x, y),
    ])


def _extract_rows(pairs: Sequence[FingerprintPair]) -> np.ndarray:
    """(len(pairs), N_FEATURES): each pair's features, non-finite ones kept.

    Pairs that share the same number of APs run together, in batches of at
    most ``BATCH_CELLS`` cells.
    """
    out = np.empty((len(pairs), N_FEATURES))
    shared = [_shared_index(p.a, p.b) for p in pairs]
    batches: list[list[int]] = []
    last_n = cells = -1
    for k in sorted(range(len(pairs)), key=lambda k: shared[k][0].size):
        n = shared[k][0].size
        size = n * (n - 1) + pairs[k].a.ap_count + pairs[k].b.ap_count
        if n != last_n or cells + size > BATCH_CELLS:
            batches.append([])
            last_n, cells = n, 0
        batches[-1].append(k)
        cells += size
    # overflowing readings surface as NonFiniteFeatureError, with the feature
    # names, rather than as numpy RuntimeWarnings from deep inside
    with np.errstate(all="ignore"):
        for batch in batches:
            out[batch] = _extract_batch([pairs[k] for k in batch], [shared[k] for k in batch])
    return out


def _finite(rows: np.ndarray, pairs: Sequence[FingerprintPair]) -> np.ndarray:
    """``rows``, unless some value is inf or NaN: then the first such pair's error."""
    finite = np.isfinite(rows)
    if not finite.all():
        k = int(np.argmin(finite.all(axis=1)))
        bad = [FEATURE_NAMES[i] for i in np.flatnonzero(~finite[k])]
        raise NonFiniteFeatureError(f"non-finite feature values for pair {pairs[k].key}: {bad}")
    return rows


def extract(pair: FingerprintPair) -> FeatureVector:
    """Compute the full 323-entry feature vector for a canonical pair."""
    return FeatureVector(values=_finite(_extract_rows([pair]), [pair])[0])


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ordered_map(fn, tasks: list, workers: int) -> Iterator:
    """``fn`` over ``tasks``, results in task order: in this process, or through
    a pool of ``min(workers, len(tasks))`` processes, and no more than the
    CPUs this process may use, when that is more than one."""
    processes = min(workers, len(tasks), _usable_cpus())
    if processes <= 1:
        yield from map(fn, tasks)
        return
    import multiprocessing

    with multiprocessing.Pool(processes) as pool:
        yield from pool.imap(fn, tasks)


#: ``extract_many`` splits its pairs into this many contiguous chunks per worker
_CHUNKS_PER_WORKER = 8


def extract_many(pairs: Sequence[FingerprintPair], workers: int = 1) -> list[FeatureVector]:
    """Feature vectors for many pairs, in input order, extracted in batches.

    With ``workers`` > 1, contiguous chunks of the pairs go to a pool of at
    most ``workers`` processes, and no more than there are chunks or usable
    CPUs; the chunks are cut for the processes the pool can have, so that
    excess workers do not shrink the batches.
    """
    workers = min(workers, _usable_cpus())
    if workers <= 1 or len(pairs) < 4:
        chunks = [pairs]
    else:
        size = -(-len(pairs) // (workers * _CHUNKS_PER_WORKER))
        chunks = [pairs[i:i + size] for i in range(0, len(pairs), size)]
    rows = np.concatenate(list(_ordered_map(_extract_rows, chunks, workers)))
    return [FeatureVector(values=row) for row in _finite(rows, pairs)]


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


#: ``write_feature_table`` formats this many rows at a time
_WRITE_BLOCK_ROWS = 64


class _Rows(list):
    """What a ``csv.writer`` writes to it: one string per row."""

    write = list.append


def _format_block(block: tuple) -> str:
    """The CSV lines of a block of rows: (pair ids, distances, label values, matrix).

    ``csv.writer`` writes each row's meta cells.  The number cells come from
    one ``repr`` of the block's list of rows: a float's ``repr`` holds no
    comma, quote or bracket, so it needs no quoting and the list's
    separators split it into rows and cells.
    """
    pair_ids, distances, labels, matrix = block
    metas = _Rows()
    csv.writer(metas).writerows(zip(pair_ids, map(repr, distances), labels))
    lines = repr(matrix.tolist())[2:-2].replace(", ", ",").split("],[")
    sep = "," if matrix.shape[1] else ""
    # each meta row ends in the writer's "\r\n"
    return "".join(f"{m[:-2]}{sep}{cells}\r\n" for m, cells in zip(metas, lines))


def write_feature_table(table: FeatureTable, path: str | Path, workers: int = 1) -> None:
    """Write a CSV whose float cells round-trip exactly (shortest repr).

    Blocks of rows are formatted in this process, or across a pool of at
    most ``workers`` processes and no more than there are blocks or usable CPUs.
    """
    distances = table.distances.tolist()
    labels = [label.value for label in table.labels]
    blocks = [
        (table.pair_ids[k:k + _WRITE_BLOCK_ROWS], distances[k:k + _WRITE_BLOCK_ROWS],
         labels[k:k + _WRITE_BLOCK_ROWS], table.matrix[k:k + _WRITE_BLOCK_ROWS])
        for k in range(0, len(table), _WRITE_BLOCK_ROWS)
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow([*_META_COLUMNS, *table.names])
        fh.writelines(_ordered_map(_format_block, blocks, workers))


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
