"""Evaluation metrics and mRMR feature selection.

Close is the positive class throughout: TPR is the Close recall, TNR the
Far recall, and the headline number is their mean (balanced accuracy),
which stays honest on skewed pair sets.

Feature selection is greedy mRMR with the mutual-information difference
criterion: at each step pick the candidate maximizing
``I(f; label) - mean_{s in S} I(f; s)`` over the already-selected set S.
Features are discretized first (three states around the mean);
mutual information is the plug-in estimate in bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .features import FeatureTable
    from .model import BaggedEnsemble


def balanced_accuracy(tpr: float, tnr: float) -> float:
    return (tpr + tnr) / 2.0


@dataclass(frozen=True)
class EvalReport:
    tp: int
    tn: int
    fp: int
    fn: int
    tpr: float
    tnr: float
    balanced_accuracy: float
    threshold: float
    pr_curve: tuple[tuple[float, float, float], ...] = ()

    @property
    def n_pairs(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def as_dict(self) -> dict:
        d = {
            "tp": self.tp,
            "tn": self.tn,
            "fp": self.fp,
            "fn": self.fn,
            "tpr": self.tpr,
            "tnr": self.tnr,
            "balanced_accuracy": self.balanced_accuracy,
            "threshold": self.threshold,
        }
        if self.pr_curve:
            d["pr_curve"] = [list(p) for p in self.pr_curve]
        return d

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def summary(self) -> str:
        """Small human-readable table."""
        lines = [
            f"pairs evaluated   {self.n_pairs}",
            f"decision threshold {self.threshold:g}",
            f"confusion          tp={self.tp} fn={self.fn} fp={self.fp} tn={self.tn}",
            f"TPR (Close recall) {self.tpr:.4f}",
            f"TNR (Far recall)   {self.tnr:.4f}",
            f"balanced accuracy  {self.balanced_accuracy:.4f}",
        ]
        return "\n".join(lines)


def confusion_counts(
    scores: np.ndarray, is_close: np.ndarray, threshold: float
) -> tuple[int, int, int, int]:
    """(tp, tn, fp, fn) for 'predict Close iff score >= threshold'."""
    pred = scores >= threshold
    tp = int(np.sum(pred & is_close))
    tn = int(np.sum(~pred & ~is_close))
    fp = int(np.sum(pred & ~is_close))
    fn = int(np.sum(~pred & is_close))
    return tp, tn, fp, fn


def report_from_scores(
    scores: np.ndarray, is_close: np.ndarray, threshold: float = 0.5
) -> EvalReport:
    if len(scores) == 0:
        raise ValueError("cannot evaluate an empty pair set")
    tp, tn, fp, fn = confusion_counts(scores, is_close, threshold)
    tpr = tp / (tp + fn) if tp + fn else 0.0
    tnr = tn / (tn + fp) if tn + fp else 0.0
    return EvalReport(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        tpr=tpr,
        tnr=tnr,
        balanced_accuracy=balanced_accuracy(tpr, tnr),
        threshold=threshold,
    )


def evaluate(
    model: "BaggedEnsemble", table: "FeatureTable", threshold: float = 0.5
) -> EvalReport:
    """Score a labeled feature table with the model at the given threshold."""
    projected = table.project(model.feature_names)
    scores = model.predict_scores(projected.matrix)
    return report_from_scores(scores, table.label_array(), threshold)


def pr_points_from_scores(
    scores: np.ndarray,
    is_close: np.ndarray,
    n_thresholds: Optional[int] = None,
) -> tuple[tuple[float, float, float], ...]:
    """(threshold, precision, recall) points, thresholds ascending.

    Thresholds sweep every distinct score plus 0 and 1, with one extra
    sentinel just above the maximum so the curve reaches the zero-prediction
    end; precision there is defined as 1.0.  ``n_thresholds`` optionally
    subsamples the sweep (endpoints always kept).
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_close = np.asarray(is_close, dtype=bool)
    if len(scores) == 0:
        raise ValueError("cannot build a PR curve from an empty pair set")
    if not is_close.any() or is_close.all():
        raise ValueError("PR curve needs both classes present")
    grid = sorted(set(scores.tolist()) | {0.0, 1.0})
    grid.append(math.nextafter(grid[-1], math.inf))
    if n_thresholds is not None:
        if n_thresholds < 2:
            raise ValueError("n_thresholds must be >= 2")
        if len(grid) > n_thresholds:
            pick = np.unique(
                np.linspace(0, len(grid) - 1, n_thresholds).round().astype(int)
            )
            grid = [grid[i] for i in pick]
    n_pos = int(is_close.sum())
    points = []
    for thr in grid:
        pred = scores >= thr
        tp = int(np.sum(pred & is_close))
        fp = int(np.sum(pred & ~is_close))
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / n_pos
        points.append((float(thr), precision, recall))
    return tuple(points)


def pr_curve(
    model: "BaggedEnsemble", table: "FeatureTable", n_thresholds: Optional[int] = None
) -> tuple[tuple[float, float, float], ...]:
    projected = table.project(model.feature_names)
    scores = model.predict_scores(projected.matrix)
    return pr_points_from_scores(scores, table.label_array(), n_thresholds)


def write_pr_points(points: Sequence[tuple[float, float, float]], path) -> None:
    """Two-column recall/precision file, one point per line, for plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# recall precision\n")
        for _thr, precision, recall in points:
            fh.write(f"{recall!r} {precision!r}\n")


# ---------------------------------------------------------------------------
# mRMR feature selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MrmrConfig:
    k: int
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")


def discretize_column(v: np.ndarray, cfg: MrmrConfig) -> np.ndarray:
    """Three integer states for one feature column.

    Cuts at mu +/- alpha*sigma with *inclusive* outer states (v <= lo is
    low, v >= hi is high): a balanced 0/1 indicator then lands exactly on
    both cut points and keeps its two states instead of collapsing into the
    middle bin.
    """
    mu = float(v.mean())
    sigma = float(v.std(ddof=0))
    if sigma == 0.0:
        return np.zeros(len(v), dtype=np.int64)
    lo = mu - cfg.alpha * sigma
    hi = mu + cfg.alpha * sigma
    return np.where(v <= lo, 0, np.where(v >= hi, 2, 1)).astype(np.int64)


def mutual_information(u: np.ndarray, v: np.ndarray) -> float:
    """Plug-in mutual information in bits between two integer-state arrays."""
    n = len(u)
    if n == 0 or n != len(v):
        raise ValueError("mutual_information needs equal-length nonempty arrays")
    _, ui = np.unique(u, return_inverse=True)
    _, vi = np.unique(v, return_inverse=True)
    ku = int(ui.max()) + 1
    kv = int(vi.max()) + 1
    joint = np.bincount(ui * kv + vi, minlength=ku * kv).reshape(ku, kv) / n
    pu = joint.sum(axis=1)
    pv = joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(pu, pv)
    return float(np.sum(joint[nz] * np.log2(joint[nz] / outer[nz])))


def mrmr_select(
    matrix: np.ndarray,
    names: Sequence[str],
    is_close: np.ndarray,
    cfg: MrmrConfig,
) -> list[str]:
    """Greedy mRMR (difference criterion); deterministic, ties by name."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(names):
        raise ValueError("matrix width does not match names")
    if matrix.shape[0] < 2:
        raise ValueError("need at least 2 rows to select features")
    labels = np.asarray(is_close, dtype=np.int64)
    if len(set(labels.tolist())) < 2:
        raise ValueError("labels are constant; selection is undefined")
    n_feat = matrix.shape[1]
    k = min(cfg.k, n_feat)
    disc = [discretize_column(matrix[:, j], cfg) for j in range(n_feat)]
    relevance = np.array([mutual_information(d, labels) for d in disc])

    # candidate order: by name ascending, so "first strictly-better wins"
    # yields the lexicographically smallest name on score ties
    by_name = sorted(range(n_feat), key=lambda j: names[j])
    selected: list[int] = []
    redundancy_sum = np.zeros(n_feat)
    while len(selected) < k:
        if selected:
            last = selected[-1]
            for j in by_name:
                if j not in selected:
                    redundancy_sum[j] += mutual_information(disc[j], disc[last])
        best_j = None
        best_score = -math.inf
        for j in by_name:
            if j in selected:
                continue
            score = relevance[j] - (
                redundancy_sum[j] / len(selected) if selected else 0.0
            )
            if score > best_score:
                best_j, best_score = j, score
        assert best_j is not None
        selected.append(best_j)
    return [names[j] for j in selected]


def write_ranking(names: Sequence[str], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for n in names:
            fh.write(n + "\n")


def read_ranking(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]
