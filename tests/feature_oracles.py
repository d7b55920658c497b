"""Per-variant reference implementation of the RSSI-dependent features.

These are the one-vector kernels and the per-variant feature block that
``features.extract`` replaced with a four-variant batch.  They compute each
variant on its own, rank with a stable sort per statistic, and hand every
Kendall input longer than 64 entries to ``scipy.stats.kendalltau``.  Tests
compare ``extract`` with ``extract_oracle`` byte for byte.

The least-squares fit, the rank-order concordance and the AP-detection
counts, which batched extraction also rewrote, are here as the scalar
one-pair functions they replaced.  The identical-device flag, which no
batch touched, is read from ``wifiprox.features`` itself, so that it keeps
one implementation.

``read_feature_table_oracle`` is the ``csv.reader`` loop that
``features.read_feature_table`` replaced with one ``np.loadtxt`` pass: a
Python ``float()`` per cell.  Tests compare the two readers byte for byte.
``write_feature_table_oracle`` is the writer's old ``csv.writer`` row per
pair, with a ``repr`` per cell; tests compare the two files byte for byte.
"""

import csv
import math
from pathlib import Path

import numpy as np
from scipy import stats

from wifiprox import features
from wifiprox.core import ProximityClass
from wifiprox.features import (
    REDPIN_MATCH_CREDIT,
    REDPIN_MATCH_THRESHOLD_DBM,
    REDPIN_MISS_PENALTY,
    REDPIN_PARTIAL_CREDIT,
    RE3_TIE_CREDIT,
    VARIANTS,
    ZERO_RSSI_SUBSTITUTE,
)

_Z_RANGE = range(1, 16)
_K_RANGE = range(1, 9)


def one_row(kernel, u, v) -> float:
    """A batched ``features`` kernel's value for one pair of 1-D vectors."""
    u, v = np.atleast_2d(np.asarray(u, dtype=float)), np.atleast_2d(np.asarray(v, dtype=float))
    if kernel in (features._spearman, features._kendall):
        u, v = features._Ranked(u), features._Ranked(v)
    return float(kernel(u, v, ((0, 0),))[0])


def cosine(u, v):
    if u.size < 2:
        return 0.0
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def pearson(u, v):
    if u.size < 2:
        return 0.0
    du = u - u.mean()
    dv = v - v.mean()
    su = float(du @ du)
    sv = float(dv @ dv)
    if su == 0.0 or sv == 0.0:
        return 0.0
    return float(du @ dv) / math.sqrt(su * sv)


def ranks(v, method):
    """1-based ranks of a non-empty vector: tie groups share their mean
    (``"average"``) or their last rank (``"max"``)."""
    n = v.size
    order = np.argsort(v, kind="stable")
    sv = v[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sv[1:], sv[:-1], out=new_group[1:])
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    ends = np.cumsum(counts)
    if method == "average":
        rank = ends - (counts - 1) / 2.0
    else:
        rank = ends.astype(np.float64)
    out = np.empty(n)
    out[order] = rank[group]
    return out


def spearman(u, v):
    if u.size < 2:
        return 0.0
    return pearson(ranks(u, "average"), ranks(v, "average"))


def kendall(u, v):
    """Kendall's tau-b; 0.0 when undefined (short or constant input)."""
    if u.size < 2:
        return 0.0
    if np.all(u == u[0]) or np.all(v == v[0]):
        return 0.0
    if u.size <= 64:
        sx, sy = np.sign(pair_differences(u)), np.sign(pair_differences(v))
        num = float(sx @ sy)
        n0 = sx.size
        ties_x = n0 - np.count_nonzero(sx)
        ties_y = n0 - np.count_nonzero(sy)
        denom = math.sqrt(float(n0 - ties_x) * float(n0 - ties_y))
        return num / denom if denom else 0.0
    tau = stats.kendalltau(u, v).statistic
    return 0.0 if math.isnan(tau) else float(tau)


def corr4(u, v):
    return [cosine(u, v), pearson(u, v), spearman(u, v), kendall(u, v)]


def stats7(v):
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


def pair_differences(v):
    ii, jj = np.triu_indices(v.size, k=1)
    return v[ii] - v[jj]


def pair_ratios(v):
    safe = np.where(v == 0.0, ZERO_RSSI_SUBSTITUTE, v)
    ii, jj = np.nonzero(~np.eye(v.size, dtype=bool))
    return safe[ii] / safe[jj]


def normalized_rank_vectors(x, y):
    rx = ranks(x, "max")
    ry = ranks(y, "max")
    order = np.argsort(-rx, kind="stable")
    rx = rx[order]
    ry = ry[order]
    return rx / np.linalg.norm(rx), ry / np.linalg.norm(ry)


def fit_line(x, y):
    """OLS slope/intercept mapping x -> y, with degenerate fallbacks."""
    if x.size == 0:
        return 1.0, 0.0
    mx = float(x.mean())
    my = float(y.mean())
    dx = x - mx
    sxx = float(dx @ dx)
    if sxx == 0.0:
        return 1.0, my - mx
    a = float(dx @ (y - my)) / sxx
    return a, my - a * mx


def fit_both_ways(x, y):
    return (*fit_line(x, y), *fit_line(y, x))


def rank_concordance(x, y):
    """Fraction of shared-AP pairs whose RSSI ordering agrees across a and b."""
    if x.size < 2:
        return 0.0
    sx, sy = np.sign(pair_differences(x)), np.sign(pair_differences(y))
    both_tied = (sx == 0) & (sy == 0)
    one_tied = (sx == 0) ^ (sy == 0)
    agree = (sx == sy) & (sx != 0)
    score = agree.sum() + both_tied.sum() + RE3_TIE_CREDIT * one_tied.sum()
    return float(score) / sx.size


def ap_detection_features(a, b) -> tuple[float, ...]:
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


def variant_block(x, y, a_ids, a_vals, b_ids, b_vals):
    """The 79 RSSI-dependent features for one calibration variant."""
    n = x.size
    feats = []

    if n:
        d = x - y
        feats += [float(np.abs(d).sum()), float(math.sqrt(d @ d))]
    else:
        feats += [0.0, 0.0]

    if n:
        depth = float(np.maximum(a_vals.max() - x, b_vals.max() - y).min())
        feats += [1.0 if depth <= z else 0.0 for z in _Z_RANGE]
    else:
        feats += [0.0] * len(_Z_RANGE)

    if n:
        gaps = np.sort(np.abs(x - y))
        counts = np.searchsorted(gaps, list(_Z_RANGE), side="right")
        feats += [float(c) / n for c in counts]
    else:
        feats += [0.0] * len(_Z_RANGE)

    order_a = np.argsort(-a_vals, kind="stable")
    order_b = np.argsort(-b_vals, kind="stable")
    top_a = list(a_ids[order_a[:8]])
    top_b = list(b_ids[order_b[:8]])
    for k in _K_RANGE:
        if a_ids.size < k or b_ids.size < k:
            feats.append(0.0)
        else:
            feats.append(1.0 if set(top_a[:k]) == set(top_b[:k]) else 0.0)

    n_full = int(np.sum(np.abs(x - y) <= REDPIN_MATCH_THRESHOLD_DBM)) if n else 0
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

    if n >= 2:
        pd_x, pd_y = pair_differences(x), pair_differences(y)
        pr_x, pr_y = pair_ratios(x), pair_ratios(y)
    else:
        pd_x = pd_y = pr_x = pr_y = np.empty(0)
    if n:
        rk_x, rk_y = normalized_rank_vectors(x, y)
    else:
        rk_x = rk_y = np.empty(0)
    feats += corr4(x, y)
    feats += corr4(pd_x, pd_y)
    feats += corr4(pr_x, pr_y)
    feats += corr4(rk_x, rk_y)

    feats += stats7(np.abs(x - y))
    feats += stats7(np.abs(pd_x - pd_y))
    feats += stats7(np.abs(pr_x - pr_y))
    return feats


def extract_oracle(pair) -> np.ndarray:
    """``extract(pair).values``, one variant at a time; non-finite values are kept."""
    with np.errstate(all="ignore"):
        a, b = pair.a, pair.b
        x, y = features._shared_values(a, b)
        (a_ids, a_vals), (b_ids, b_vals) = a.encoding, b.encoding
        slope_ab, inter_ab, slope_ba, inter_ba = fit_both_ways(x, y)
        values = list(ap_detection_features(a, b))
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
            else:
                xa, av = slope_ab * x + inter_ab, slope_ab * a_vals + inter_ab
                yb, bv = slope_ba * y + inter_ba, slope_ba * b_vals + inter_ba
            values += variant_block(xa, yb, a_ids, av, b_ids, bv)
        values.append(features.identical_devices(a, b))
        values.append(rank_concordance(x, y))
    return np.asarray(values, dtype=np.float64)


def read_feature_table_oracle(path) -> features.FeatureTable:
    """A feature CSV read one record and one ``float()`` per cell at a time."""
    p = Path(path)
    with open(p, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert tuple(header[:3]) == ("pair_id", "distance_m", "label"), header[:3]
        pair_ids, distances, labels, rows = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            assert len(row) == len(header), f"{p}:{lineno}: {len(row)} cells"
            pair_ids.append(row[0])
            distances.append(float(row[1]))
            labels.append(ProximityClass(row[2]))
            rows.append([float(c) for c in row[3:]])
    names = tuple(header[3:])
    return features.FeatureTable(
        names=names,
        pair_ids=tuple(pair_ids),
        distances=np.array(distances, dtype=np.float64),
        labels=tuple(labels),
        matrix=np.array(rows, dtype=np.float64) if rows else np.empty((0, len(names))),
    )


def write_feature_table_oracle(table, path) -> None:
    """A feature CSV written one ``csv.writer`` row and one ``repr`` per cell at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_id", "distance_m", "label", *table.names])
        for pid, dist, label, row in zip(
            table.pair_ids, table.distances.tolist(), table.labels, table.matrix
        ):
            writer.writerow([pid, repr(dist), label.value, *map(repr, row.tolist())])
