"""Attribute-bagged decision-tree ensemble for Close/Far classification.

Many shallow-input trees: each tree sees a small random subset of feature
columns (drawn without replacement) and, by default, a bootstrap sample of
the training rows.  Trees are plain CART with Gini impurity, grown until
pure, with deterministic tie-breaking (lowest feature index, then lowest
threshold) so that training is exactly reproducible from the seed.

The ensemble's score for a pair is the fraction of trees voting Close; the
decision compares that score to a threshold (0.5 unless stated otherwise).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class EnsembleConfig:
    n_estimators: int = 300
    max_features: int = 3
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.max_features < 1:
            raise ValueError("max_features must be >= 1")


@dataclass(frozen=True)
class Tree:
    """Flattened binary tree; node 0 is the root.

    ``feature`` holds the global column index tested at each internal node
    (-1 for leaves); a sample goes left when ``value <= threshold``.  Leaf
    class counts are kept so vote ties are visible downstream.
    """

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    n_close: np.ndarray  # int64 (leaf rows only; 0 on internal nodes)
    n_far: np.ndarray  # int64
    feature_subset: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of X."""
        idx = np.zeros(len(X), dtype=np.int32)
        while True:
            feat = self.feature[idx]
            active = np.nonzero(feat >= 0)[0]
            if active.size == 0:
                return idx
            node = idx[active]
            vals = X[active, self.feature[node]]
            go_left = vals <= self.threshold[node]
            idx[active] = np.where(go_left, self.left[node], self.right[node])

    def votes(self, X: np.ndarray) -> np.ndarray:
        """Per-row vote: 1.0 Close, 0.0 Far, 0.5 when the leaf is tied."""
        leaf = self.apply(X)
        close = self.n_close[leaf]
        far = self.n_far[leaf]
        return np.where(close > far, 1.0, np.where(close < far, 0.0, 0.5))


def _best_split(
    X: np.ndarray, y: np.ndarray, rows: np.ndarray, subset: Sequence[int]
) -> Optional[tuple[int, float]]:
    """Best (feature, threshold) by weighted child Gini; None if no split helps.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values.  Ties in impurity go to the lowest feature index, then the
    lowest threshold.
    """
    n = rows.size
    labels = y[rows]
    n_close_total = int(labels.sum())
    n_far_total = n - n_close_total
    parent = 1.0 - (n_close_total / n) ** 2 - (n_far_total / n) ** 2
    best: Optional[tuple[float, int, float]] = None  # (impurity, feature, threshold)
    for f in subset:
        v = X[rows, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        sy = labels[order]
        boundary = np.nonzero(sv[:-1] != sv[1:])[0]
        if boundary.size == 0:
            continue
        cum_close = np.cumsum(sy)
        n_left = boundary + 1
        close_left = cum_close[boundary]
        far_left = n_left - close_left
        n_right = n - n_left
        close_right = n_close_total - close_left
        far_right = n_far_total - far_left
        gini_left = 1.0 - (close_left / n_left) ** 2 - (far_left / n_left) ** 2
        gini_right = 1.0 - (close_right / n_right) ** 2 - (far_right / n_right) ** 2
        weighted = (n_left * gini_left + n_right * gini_right) / n
        i = int(np.argmin(weighted))  # first minimum: lowest threshold wins
        if weighted[i] < parent and (best is None or weighted[i] < best[0]):
            lo = float(sv[boundary[i]])
            hi = float(sv[boundary[i] + 1])
            thr = (lo + hi) / 2.0
            if thr >= hi:
                # midpoint of two nearly-adjacent floats can round up to the
                # upper value, which would route its rows to the wrong side;
                # snap down so the realized partition matches the scored one
                thr = lo
            best = (float(weighted[i]), f, thr)
    if best is None:
        return None
    return best[1], best[2]


def train_tree(
    X: np.ndarray, y: np.ndarray, feature_subset: Sequence[int]
) -> Tree:
    """Grow one CART tree on (X, y) restricted to ``feature_subset`` columns.

    ``y`` is boolean/0-1 with 1 meaning Close.  Fully deterministic: splits
    and structure depend only on the data and the subset.
    """
    subset = tuple(sorted(int(f) for f in feature_subset))
    if len(set(subset)) != len(subset):
        raise ValueError("feature_subset contains duplicates")
    if not subset or subset[0] < 0 or subset[-1] >= X.shape[1]:
        raise ValueError(f"feature_subset out of range for {X.shape[1]} columns")
    y = np.asarray(y, dtype=np.int64)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    n_close: list[int] = []
    n_far: list[int] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        n_close.append(0)
        n_far.append(0)
        return len(feature) - 1

    root_rows = np.arange(len(X), dtype=np.intp)
    stack: list[tuple[int, np.ndarray]] = [(new_node(), root_rows)]
    while stack:
        node, rows = stack.pop()
        labels = y[rows]
        closes = int(labels.sum())
        fars = rows.size - closes
        split = None
        if closes and fars:
            split = _best_split(X, y, rows, subset)
        if split is None:
            n_close[node] = closes
            n_far[node] = fars
            continue
        f, thr = split
        go_left = X[rows, f] <= thr
        if go_left.all() or not go_left.any():
            # cannot happen with snapped thresholds; guard against an
            # infinite grow loop all the same
            n_close[node] = closes
            n_far[node] = fars
            continue
        feature[node] = f
        threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, rows[~go_left]))
        stack.append((left_id, rows[go_left]))

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        n_close=np.asarray(n_close, dtype=np.int64),
        n_far=np.asarray(n_far, dtype=np.int64),
        feature_subset=subset,
    )


@dataclass(frozen=True)
class BaggedEnsemble:
    trees: tuple[Tree, ...]
    config: EnsembleConfig
    feature_names: tuple[str, ...]
    train_seed: int
    class_balance: tuple[int, int]  # (n_close, n_far) in the training data

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Fraction of trees voting Close, per row of X."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected (n, {len(self.feature_names)}) matrix, got {X.shape}"
            )
        total = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees:
            total += tree.votes(X)
        return total / len(self.trees)

    def predict_score(self, values: np.ndarray) -> float:
        """Vote score in [0, 1] for a single feature vector."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(self.feature_names),):
            raise ValueError(
                f"expected {len(self.feature_names)} feature values, got {values.shape}"
            )
        return float(self.predict_scores(values[None, :])[0])

    def predict_labels(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Boolean per row: True means Close (score >= threshold)."""
        return self.predict_scores(X) >= threshold


def train_ensemble(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
    config: EnsembleConfig = EnsembleConfig(),
    seed: int = 0,
) -> BaggedEnsemble:
    """Train the bagged ensemble; exactly reproducible given the seed.

    Each tree i draws its bootstrap rows and feature subset from an
    independent stream seeded by (seed, i), so retraining with more trees
    leaves the earlier trees unchanged.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError(f"bad training shapes: X {X.shape}, y {y.shape}")
    if len(X) == 0:
        raise ValueError("empty training set")
    if X.shape[1] != len(feature_names):
        raise ValueError("feature_names length does not match matrix width")
    y = y.astype(np.int64)
    n, n_feat = X.shape
    k = min(config.max_features, n_feat)
    trees = []
    for i in range(config.n_estimators):
        rng = np.random.default_rng([seed, i])
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        subset = np.sort(rng.choice(n_feat, size=k, replace=False))
        # grow on the k-column slice, then remap indices back to global
        local = train_tree(X[np.ix_(rows, subset)], y[rows], range(k))
        remap = np.concatenate([subset, [-1]]).astype(np.int32)
        trees.append(
            Tree(
                feature=remap[local.feature],
                threshold=local.threshold,
                left=local.left,
                right=local.right,
                n_close=local.n_close,
                n_far=local.n_far,
                feature_subset=tuple(int(g) for g in subset),
            )
        )
    return BaggedEnsemble(
        trees=tuple(trees),
        config=config,
        feature_names=tuple(feature_names),
        train_seed=seed,
        class_balance=(int(y.sum()), int(len(y) - y.sum())),
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_model(model: BaggedEnsemble, path: str | Path) -> None:
    """Serialize to JSON; byte-identical across save/load/save round trips."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "rssi-pair-bagging",
        "config": {
            "n_estimators": model.config.n_estimators,
            "max_features": model.config.max_features,
            "bootstrap": model.config.bootstrap,
        },
        "feature_names": list(model.feature_names),
        "train_seed": model.train_seed,
        "class_balance": list(model.class_balance),
        "trees": [
            {
                "feature_subset": list(t.feature_subset),
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "n_close": t.n_close.tolist(),
                "n_far": t.n_far.tolist(),
            }
            for t in model.trees
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path: str | Path) -> BaggedEnsemble:
    p = Path(path)
    with open(p, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{p}: not a valid model file ({e})") from e
    if not isinstance(doc, dict) or doc.get("kind") != "rssi-pair-bagging":
        raise ValueError(f"{p}: not a recognized model file")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{p}: unsupported schema version {doc.get('schema_version')!r}"
        )
    try:
        cfg = EnsembleConfig(**doc["config"])
        trees = tuple(
            Tree(
                feature=np.asarray(t["feature"], dtype=np.int32),
                threshold=np.asarray(t["threshold"], dtype=np.float64),
                left=np.asarray(t["left"], dtype=np.int32),
                right=np.asarray(t["right"], dtype=np.int32),
                n_close=np.asarray(t["n_close"], dtype=np.int64),
                n_far=np.asarray(t["n_far"], dtype=np.int64),
                feature_subset=tuple(t["feature_subset"]),
            )
            for t in doc["trees"]
        )
        model = BaggedEnsemble(
            trees=trees,
            config=cfg,
            feature_names=tuple(doc["feature_names"]),
            train_seed=int(doc["train_seed"]),
            class_balance=tuple(doc["class_balance"]),  # type: ignore[arg-type]
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"{p}: malformed model file ({e})") from e
    return model
