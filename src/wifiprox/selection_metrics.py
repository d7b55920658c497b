"""Evaluation metrics and mRMR feature selection.

Close is the positive class throughout: TPR is the Close recall, TNR the
Far recall, and the headline number is their mean (balanced accuracy),
which stays honest on skewed pair sets.

Feature selection is greedy mRMR with the mutual-information difference
criterion: at each step pick the candidate maximizing
``I(f; label) - mean_{s in S} I(f; s)`` over the already-selected set S.
The table is discretized once (three states around each column's mean);
mutual information is the plug-in estimate in bits, computed for every
column against one target in a single whole-array pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .core import open_utf8
from .model import DECISION_THRESHOLD

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
            "threshold": DECISION_THRESHOLD,
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
            f"decision threshold {DECISION_THRESHOLD:g}",
            f"confusion          tp={self.tp} fn={self.fn} fp={self.fp} tn={self.tn}",
            f"TPR (Close recall) {self.tpr:.4f}",
            f"TNR (Far recall)   {self.tnr:.4f}",
            f"balanced accuracy  {self.balanced_accuracy:.4f}",
        ]
        return "\n".join(lines)


def confusion_counts(scores: np.ndarray, is_close: np.ndarray) -> tuple[int, int, int, int]:
    """(tp, tn, fp, fn) for 'predict Close iff score >= DECISION_THRESHOLD'."""
    pred = scores >= DECISION_THRESHOLD
    tp = int(np.sum(pred & is_close))
    tn = int(np.sum(~pred & ~is_close))
    fp = int(np.sum(pred & ~is_close))
    fn = int(np.sum(~pred & is_close))
    return tp, tn, fp, fn


def report_from_scores(scores: np.ndarray, is_close: np.ndarray) -> EvalReport:
    if len(scores) == 0:
        raise ValueError("cannot evaluate an empty pair set")
    tp, tn, fp, fn = confusion_counts(scores, is_close)
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
    )


def table_scores(model: "BaggedEnsemble", table: "FeatureTable") -> tuple[np.ndarray, np.ndarray]:
    """The model's score for every row of a labeled table, and whether the row is Close."""
    return model.predict_scores(table.project(model.feature_names).matrix), table.label_array()


def evaluate(model: "BaggedEnsemble", table: "FeatureTable") -> EvalReport:
    """Score a labeled feature table with the model at DECISION_THRESHOLD."""
    return report_from_scores(*table_scores(model, table))


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
    # rows scoring >= thr, per class: those at or after thr's left insertion point
    pos, neg = np.sort(scores[is_close]), np.sort(scores[~is_close])
    tps = (len(pos) - np.searchsorted(pos, grid)).tolist()
    fps = (len(neg) - np.searchsorted(neg, grid)).tolist()
    return tuple(
        (float(thr), tp / (tp + fp) if tp + fp else 1.0, tp / len(pos))
        for thr, tp, fp in zip(grid, tps, fps)
    )


def write_pr_points(points: Sequence[tuple[float, float, float]], path) -> None:
    """Two-column recall/precision file, one point per line, for plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# recall precision\n")
        for _thr, precision, recall in points:
            fh.write(f"{recall!r} {precision!r}\n")


# ---------------------------------------------------------------------------
# mRMR feature selection
# ---------------------------------------------------------------------------

#: cut points of the three-state discretizer, in standard deviations
DISCRETIZE_ALPHA = 1.0


def discretize(matrix: np.ndarray) -> np.ndarray:
    """Three integer states per feature column, as an (n_features, n_rows) array.

    Cuts at mu +/- DISCRETIZE_ALPHA*sigma with *inclusive* outer states
    (v <= lo is 0, v >= hi is 2): a balanced 0/1 indicator then lands
    exactly on both cut points and keeps its two states instead of
    collapsing into the middle bin.  A constant column is all 0.  Reducing
    contiguous rows of the transpose rounds like a 1-D ``mean``/``std``.
    """
    cols = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64).T)
    mu = cols.mean(axis=1, keepdims=True)
    sigma = cols.std(axis=1, keepdims=True)
    lo = mu - DISCRETIZE_ALPHA * sigma
    hi = mu + DISCRETIZE_ALPHA * sigma
    states = np.where(cols <= lo, 0, np.where(cols >= hi, 2, 1))
    states[sigma[:, 0] == 0.0] = 0
    return states


def mutual_information(states: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Plug-in mutual information in bits of each row of ``states`` with ``target``.

    Both hold states in {0, 1, 2}; one bincount gives every row's 3x3 joint
    table.  Rows are summed in groups of equal nonzero-term count: np.sum
    adds eight or more terms pairwise, so zero padding would move last bits.
    """
    n_rows, n = states.shape
    if n == 0 or n != len(target):
        raise ValueError("mutual_information needs equal-length nonempty arrays")
    cells = np.arange(n_rows)[:, None] * 9 + states * 3 + target
    joint = np.bincount(cells.ravel(), minlength=9 * n_rows).reshape(n_rows, 3, 3) / n
    outer = joint.sum(axis=2)[:, :, None] * joint.sum(axis=1)[:, None, :]
    joint, outer = joint.reshape(n_rows, 9), outer.reshape(n_rows, 9)
    nz = joint > 0
    terms = np.zeros_like(joint)
    terms[nz] = joint[nz] * np.log2(joint[nz] / outer[nz])
    n_terms = nz.sum(axis=1)
    mi = np.empty(n_rows)
    for m in range(1, 10):
        rows = n_terms == m
        mi[rows] = terms[rows][nz[rows]].reshape(-1, m).sum(axis=1)
    return mi


def mrmr_select(
    matrix: np.ndarray,
    names: Sequence[str],
    is_close: np.ndarray,
    k: int,
) -> list[str]:
    """Greedy mRMR (difference criterion) for the top ``k``; ties by name."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(names):
        raise ValueError("matrix width does not match names")
    if matrix.shape[0] < 2:
        raise ValueError("need at least 2 rows to select features")
    if k < 1:
        raise ValueError("k must be >= 1")
    labels = np.asarray(is_close, dtype=np.int64)
    if len(set(labels.tolist())) < 2:
        raise ValueError("labels are constant; selection is undefined")
    n_feat = matrix.shape[1]
    # columns in name order: argmax takes the first maximum, so score ties
    # go to the lexicographically smallest name
    by_name = sorted(range(n_feat), key=lambda j: names[j])
    states = discretize(matrix)[by_name]
    relevance = mutual_information(states, labels)
    redundancy_sum = np.zeros(n_feat)
    selected: list[int] = []
    while len(selected) < min(k, n_feat):
        if selected:
            redundancy_sum += mutual_information(states, states[selected[-1]])
        score = relevance - (redundancy_sum / len(selected) if selected else 0.0)
        score[selected] = -np.inf
        selected.append(int(np.argmax(score)))
    return [names[by_name[j]] for j in selected]


def write_ranking(names: Sequence[str], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for n in names:
            fh.write(n + "\n")


def read_ranking(path) -> dict[str, int]:
    """Feature names in file order, each with its line; none or a repeat is an error."""
    line_of: dict[str, int] = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            name = line.strip()
            if name in line_of:
                raise ValueError(f"{path}:{lineno}: repeats {name!r} from line {line_of[name]}")
            if name:
                line_of[name] = lineno
    if not line_of:
        raise ValueError(f"{path}: lists no feature names")
    return line_of
