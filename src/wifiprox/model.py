"""Attribute-bagged decision-tree ensemble for Close/Far classification.

Many shallow-input trees: each tree sees ``MAX_FEATURES`` random feature
columns (drawn without replacement) and a bootstrap sample of the training
rows.  Trees are plain CART with Gini impurity, grown until
pure, with deterministic tie-breaking (lowest feature index, then lowest
threshold) so that training is exactly reproducible from the seed.

Trees grow level-wise.  :func:`train_tree` sorts each subset column once,
then keeps every column's rows in (node, value, row) order: all open nodes
of one depth are scored together in one pass over the stacked columns, and
their rows move to the children by a stable sort on small integer child
keys, so no node sorts its own rows.  A node's candidates are the midpoints
between consecutive distinct values of each column; it splits on the one
with the lowest weighted child Gini if that is strictly below its own Gini,
ties going to the lowest feature index, then the lowest threshold.  A
midpoint that rounds up to the upper value is snapped down to the lower.

Node ids do not depend on the growth order.  Node 0 is the root, and ids
are those a depth-first grower assigns when it visits a node, then its left
subtree, then its right subtree, numbering a node's two children
consecutively (left, then right) as it visits the node: the t-th split node
in that order has children 2t + 1 and 2t + 2.  A saved model therefore
does not depend on how its trees were grown; ``tests/test_model.py`` checks
``train_tree`` array for array against a node-at-a-time grower.

The ensemble's score for a pair is the fraction of trees voting Close; the
pair is Close when that score is at least ``DECISION_THRESHOLD``.  Scoring
walks all trees at once over one set of node arrays (QuickScorer's flat
traversal, Lucchese et al., SIGIR 2015): each (row, tree) lane leaves the
walk at its leaf with a vote of 1.0, 0.0 or 0.5 (Close, Far, tied leaf).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import open_utf8

SCHEMA_VERSION = 1
#: feature columns each tree draws (all of them when the table is narrower)
MAX_FEATURES = 3
#: a pair is Close when at least this fraction of the trees votes Close
DECISION_THRESHOLD = 0.5
#: scoring walks the (row, tree) lanes of at most this many at a time
SCORE_LANES = 1 << 16
#: a tree's node arrays, by the name a model file stores each under, with their dtypes
_NODE_ARRAYS = {"feature": np.int32, "threshold": np.float64, "left": np.int32,
                "right": np.int32, "n_close": np.int64, "n_far": np.int64}


def _recorded_config(n_trees: int) -> dict:
    """The training protocol as a model file of ``n_trees`` trees records it."""
    return {"n_estimators": n_trees, "max_features": MAX_FEATURES, "bootstrap": True}


@dataclass(frozen=True)
class EnsembleConfig:
    n_estimators: int = 300

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")


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

    @property
    def depth(self) -> int:
        """Edges on the longest root-to-leaf path (0 for a lone leaf)."""
        depth, level = 0, np.zeros(1, dtype=np.intp)
        while True:
            level = level[self.feature[level] >= 0]
            if not level.size:
                return depth
            level = np.concatenate((self.left[level], self.right[level]))
            depth += 1


def train_tree(
    X: np.ndarray, y: np.ndarray, feature_subset: Sequence[int]
) -> Tree:
    """Grow one CART tree on (X, y) restricted to ``feature_subset`` columns.

    ``y`` is boolean/0-1 with 1 meaning Close.  Fully deterministic: splits
    and structure depend only on the data and the subset.  See the module
    docstring for how the tree grows and how its nodes are numbered.
    """
    subset = tuple(sorted(int(f) for f in feature_subset))
    if len(set(subset)) != len(subset):
        raise ValueError("feature_subset contains duplicates")
    if not subset or subset[0] < 0 or subset[-1] >= X.shape[1]:
        raise ValueError(f"feature_subset out of range for {X.shape[1]} columns")
    y = np.asarray(y, dtype=np.int64)
    n_rows, k = len(X), len(subset)
    # column-major: the value of row r in subset column j is values[j * n_rows + r]
    values = np.asarray(X, dtype=np.float64)[:, list(subset)].T.ravel()
    offset = np.arange(k)[:, None] * n_rows

    # open nodes of the current depth, by breadth-first id
    ids = np.zeros(1, dtype=np.intp)
    sizes = np.array([n_rows], dtype=np.intp)
    closes = np.array([y.sum()], dtype=np.intp)
    n_nodes = 1
    # per depth: split nodes, their children, chosen subset column, threshold
    none = np.zeros(0, dtype=np.intp)
    splits, lefts, rights, cols = [none], [none], [none], [none]
    thresholds = [np.zeros(0)]
    leaves, leaf_closes, leaf_sizes = [none], [none], [none]
    if 0 < closes[0] < n_rows:
        # every column's rows in (node, value, row) order; sorted once, then
        # kept in that order by a stable partition at each depth
        perm = np.argsort(values.reshape(k, n_rows), axis=1, kind="stable")
    else:
        leaves, leaf_closes, leaf_sizes = [ids], [closes], [sizes]
        sizes = none
    while sizes.size:
        n_open, width = sizes.size, perm.shape[1]
        starts = np.cumsum(sizes) - sizes
        pos_node = np.repeat(np.arange(n_open), sizes)
        sv = values[perm + offset]
        sy = y[perm].ravel()
        cum = sy.cumsum()
        # candidates: value changes inside one node's segment of a column,
        # as flat (column, position) indices in (column, node, position) order
        edge = np.zeros((k, width), dtype=bool)
        np.not_equal(sv[:, 1:], sv[:, :-1], out=edge[:, :-1])
        edge[:, starts[1:] - 1] = False
        sv = sv.ravel()
        q = edge.ravel().nonzero()[0]
        pos = q % width
        node = pos_node[pos]
        n = sizes[node]
        n_close_total = closes[node]
        n_far_total = n - n_close_total
        n_left = pos - starts[node] + 1
        head = q - n_left + 1  # flat index of the segment's first row
        close_left = cum[q] - cum[head] + sy[head]
        far_left = n_left - close_left
        n_right = n - n_left
        close_right = n_close_total - close_left
        far_right = n_far_total - far_left
        gini_left = 1.0 - (close_left / n_left) ** 2 - (far_left / n_left) ** 2
        gini_right = 1.0 - (close_right / n_right) ** 2 - (far_right / n_right) ** 2
        weighted = (n_left * gini_left + n_right * gini_right) / n
        # each node's lowest weighted Gini and its first candidate, which is
        # the lowest column, then the lowest threshold
        best = np.full(n_open, np.inf)
        np.minimum.at(best, node, weighted)
        at_min = (weighted == best[node]).nonzero()[0]
        first = np.full(n_open, q.size)
        np.minimum.at(first, node[at_min], at_min)
        # each node's own Gini in Python floats, which a split must beat
        # strictly: float ``**`` (C pow) rounds unlike numpy's elementwise
        # square for about 0.1% of class ratios
        parent = np.array([
            1.0 - (cl / m) ** 2 - ((m - cl) / m) ** 2
            for cl, m in zip(closes.tolist(), sizes.tolist())
        ])
        split = best < parent
        cand = q[first[split]]
        col = np.zeros(n_open, dtype=np.intp)
        col[split] = cand // width
        lo = sv[cand]
        hi = sv[cand + 1]
        mid = (lo + hi) / 2.0
        thr = np.zeros(n_open)
        # midpoint of two nearly-adjacent floats can round up to the upper
        # value, which would route its rows to the wrong side; snap down so
        # the realized partition matches the scored one
        thr[split] = np.where(mid >= hi, lo, mid)

        rows = perm[0]
        go_left = values[col[pos_node] * n_rows + rows] <= thr[pos_node]
        n_go_left = np.add.reduceat(go_left, starts, dtype=np.intp)
        # a threshold that sends every row one way (a midpoint overflowing
        # to -inf, or NaN values) leaves the node a leaf
        split &= (n_go_left > 0) & (n_go_left < sizes)
        close_go_left = np.add.reduceat(go_left * sy[:width], starts)
        leaves.append(ids[~split])
        leaf_closes.append(closes[~split])
        leaf_sizes.append(sizes[~split])
        sn = split.nonzero()[0]
        # children: all left ones, then all right ones
        child_sizes = np.concatenate((n_go_left[sn], sizes[sn] - n_go_left[sn]))
        child_closes = np.concatenate((close_go_left[sn], closes[sn] - close_go_left[sn]))
        child_ids = n_nodes + np.arange(child_sizes.size)
        n_nodes += child_sizes.size
        splits.append(ids[sn])
        lefts.append(child_ids[: sn.size])
        rights.append(child_ids[sn.size:])
        cols.append(col[sn])
        thresholds.append(thr[sn])

        pure = (child_closes == 0) | (child_closes == child_sizes)
        leaves.append(child_ids[pure])
        leaf_closes.append(child_closes[pure])
        leaf_sizes.append(child_sizes[pure])
        ids, sizes, closes = child_ids[~pure], child_sizes[~pure], child_closes[~pure]
        if not sizes.size:
            break
        # stable partition of every column by the row's open child; rows
        # that reached a leaf get the last key and are dropped
        child_key = np.full(child_sizes.size, sizes.size)
        child_key[~pure] = np.arange(sizes.size)
        left_key = np.full(n_open, sizes.size)
        right_key = np.full(n_open, sizes.size)
        left_key[sn], right_key[sn] = child_key[: sn.size], child_key[sn.size:]
        row_key = np.empty(n_rows, dtype=np.min_scalar_type(sizes.size))
        row_key[rows] = np.where(go_left, left_key[pos_node], right_key[pos_node])
        keep = np.argsort(row_key[perm], axis=1, kind="stable")[:, : sizes.sum()]
        perm = perm.ravel()[keep + np.arange(k)[:, None] * width]

    new_id = _depth_first_ids(splits, lefts, rights, n_nodes)
    parents = new_id[np.concatenate(splits)]
    leaf = new_id[np.concatenate(leaves)]
    feature = np.full(n_nodes, -1, dtype=np.int32)
    threshold = np.zeros(n_nodes, dtype=np.float64)
    left = np.full(n_nodes, -1, dtype=np.int32)
    right = np.full(n_nodes, -1, dtype=np.int32)
    n_close = np.zeros(n_nodes, dtype=np.int64)
    n_far = np.zeros(n_nodes, dtype=np.int64)
    feature[parents] = np.asarray(subset)[np.concatenate(cols)]
    threshold[parents] = np.concatenate(thresholds)
    left[parents] = new_id[np.concatenate(lefts)]
    right[parents] = new_id[np.concatenate(rights)]
    n_close[leaf] = np.concatenate(leaf_closes)
    n_far[leaf] = np.concatenate(leaf_sizes) - n_close[leaf]
    return Tree(feature=feature, threshold=threshold, left=left, right=right,
                n_close=n_close, n_far=n_far, feature_subset=subset)


def _depth_first_ids(
    splits: list[np.ndarray],
    lefts: list[np.ndarray],
    rights: list[np.ndarray],
    n_nodes: int,
) -> np.ndarray:
    """Map breadth-first node ids to stored ids.

    ``splits``, ``lefts`` and ``rights`` hold, per depth, the split nodes and
    their children.  The t-th split node in depth-first order, left subtree
    first, has stored children 2t + 1 and 2t + 2 (the root is t = 0).
    """
    splits_below = np.zeros(n_nodes, dtype=np.intp)  # split nodes per subtree
    for u, lc, rc in zip(reversed(splits), reversed(lefts), reversed(rights)):
        splits_below[u] = 1 + splits_below[lc] + splits_below[rc]
    rank = np.zeros(n_nodes, dtype=np.intp)  # t of each split node
    new_id = np.zeros(n_nodes, dtype=np.intp)
    for u, lc, rc in zip(splits, lefts, rights):
        rank[lc] = rank[u] + 1
        rank[rc] = rank[u] + 1 + splits_below[lc]
        new_id[lc] = 2 * rank[u] + 1
        new_id[rc] = 2 * rank[u] + 2
    return new_id


@dataclass(frozen=True)
class BaggedEnsemble:
    trees: tuple[Tree, ...]
    feature_names: tuple[str, ...]
    train_seed: int
    class_balance: tuple[int, int]  # (n_close, n_far) in the training data

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, ...]:
        """All trees' nodes in one set of arrays: the roots, then per node the
        split feature (-1 at a leaf), threshold, both children and vote."""
        sizes = [tree.n_nodes for tree in self.trees]
        roots = np.cumsum(sizes) - sizes
        feature, threshold, left, right, close, far = (
            np.concatenate([getattr(tree, name) for tree in self.trees]) for name in _NODE_ARRAYS)
        vote = np.where(close > far, 1.0, np.where(close < far, 0.0, 0.5))
        offset = np.repeat(roots, sizes)
        return roots, feature.astype(np.intp), threshold, left + offset, right + offset, vote

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Fraction of trees voting Close, per row of X."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected (n, {len(self.feature_names)}) matrix, got {X.shape}"
            )
        roots, feature, threshold, left, right, vote = self._nodes
        total = np.zeros(len(X), dtype=np.float64)
        step = max(1, SCORE_LANES // len(roots))
        for start in range(0, len(X), step):
            block, out = X[start:start + step], total[start:start + step]
            # lane k walks tree k % len(roots) for row k // len(roots) of the block
            row, node = np.repeat(np.arange(len(block)), len(roots)), np.tile(roots, len(block))
            while node.size:
                split = feature[node]
                leaf = split < 0
                out += np.bincount(row[leaf], vote[node[leaf]], minlength=len(block))
                row, node, split = row[~leaf], node[~leaf], split[~leaf]
                # NaN compares False and goes right
                node = np.where(block[row, split] <= threshold[node], left[node], right[node])
        return total / len(self.trees)

    def predict_score(self, values: np.ndarray) -> float:
        """Vote score in [0, 1] for a single feature vector."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(self.feature_names),):
            raise ValueError(
                f"expected {len(self.feature_names)} feature values, got {values.shape}"
            )
        return float(self.predict_scores(values[None, :])[0])

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        """Boolean per row: True means Close (score >= DECISION_THRESHOLD)."""
        return self.predict_scores(X) >= DECISION_THRESHOLD


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
    k = min(MAX_FEATURES, n_feat)
    trees = []
    for i in range(config.n_estimators):
        rng = np.random.default_rng([seed, i])
        rows = rng.integers(0, n, size=n)
        subset = np.sort(rng.choice(n_feat, size=k, replace=False))
        # grow on the k-column slice, then remap indices back to global
        local = train_tree(X[np.ix_(rows, subset)], y[rows], range(k))
        remap = np.concatenate([subset, [-1]]).astype(np.int32)
        trees.append(replace(local, feature=remap[local.feature],
                             feature_subset=tuple(int(g) for g in subset)))
    return BaggedEnsemble(
        trees=tuple(trees),
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
        "config": _recorded_config(len(model.trees)),
        "feature_names": list(model.feature_names),
        "train_seed": model.train_seed,
        "class_balance": list(model.class_balance),
        "trees": [
            {"feature_subset": list(t.feature_subset),
             **{name: getattr(t, name).tolist() for name in _NODE_ARRAYS}}
            for t in model.trees
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path: str | Path) -> BaggedEnsemble:
    p = Path(path)
    with open_utf8(p) as fh:
        text = fh.read()  # outside the try: a byte that does not decode is open_utf8's error
        try:
            doc = json.loads(text)
        except ValueError as e:  # also an integer past Python's digit limit
            raise ValueError(f"{p}: not a valid model file ({e})") from e
    if not isinstance(doc, dict) or doc.get("kind") != "rssi-pair-bagging":
        raise ValueError(f"{p}: not a recognized model file")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # as saved: not true, not 1.0
        raise ValueError(f"{p}: unsupported schema version {version!r}")
    try:
        recorded = doc["config"]
        names, seed, balance = doc["feature_names"], doc["train_seed"], doc["class_balance"]
        # as saved: 1.7 or "7" does not pass for a seed, nor true for 1
        if type(seed) is not int:
            raise ValueError(f"train_seed {seed!r} is not an integer")
        if not (isinstance(balance, list) and len(balance) == 2
                and all(type(n) is int and n >= 0 for n in balance)):
            raise ValueError(f"class_balance {balance!r} is not two non-negative integers")
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ValueError("feature_names is not a list of strings")
        if len(set(names)) != len(names):
            repeated = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"feature_names repeats {repeated!r}")
        trees = tuple(_tree_from_record(i, t, len(names)) for i, t in enumerate(doc["trees"]))
        model = BaggedEnsemble(
            trees=trees,
            feature_names=tuple(names),
            train_seed=seed,
            class_balance=tuple(balance),  # type: ignore[arg-type]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{p}: malformed model file ({e})") from e
    if not model.trees:
        raise ValueError(f"{p}: malformed model file (no trees)")
    # compared as saved, so that 1 does not pass for true nor 3.0 for 3
    expected = _recorded_config(len(model.trees))
    if json.dumps(recorded, sort_keys=True) != json.dumps(expected, sort_keys=True):
        raise ValueError(
            f"{p}: malformed model file (config records {recorded}, "
            f"but a {len(model.trees)}-tree model records {expected})"
        )
    for i, tree in enumerate(model.trees):
        problem = _tree_problem(tree, len(model.feature_names))
        if problem is not None:
            raise ValueError(f"{p}: malformed model file (tree {i}: {problem})")
    return model


def _tree_from_record(index: int, rec: dict, n_features: int) -> Tree:
    """A saved tree's arrays, as saved: JSON floats in ``threshold``, JSON
    integers elsewhere, and at most ``MAX_FEATURES`` distinct columns of
    the model in ``feature_subset``."""
    for name in ("feature_subset", *_NODE_ARRAYS):
        values = rec[name]
        kind, noun = (float, "a float") if name == "threshold" else (int, "an integer")
        if not set(map(type, values)) <= {kind}:
            bad = next(v for v in values if type(v) is not kind)
            raise ValueError(f"tree {index} {name} holds {bad!r}, which is not {noun}")
    subset = rec["feature_subset"]
    if (len(subset) > MAX_FEATURES or len(set(subset)) != len(subset)
            or not all(0 <= f < n_features for f in subset)):
        raise ValueError(f"tree {index} feature_subset {subset!r} is not at most "
                         f"{MAX_FEATURES} distinct columns of 0..{n_features - 1}")
    return Tree(**{name: np.asarray(rec[name], dtype=d) for name, d in _NODE_ARRAYS.items()},
                feature_subset=tuple(rec["feature_subset"]))


def _tree_problem(tree: Tree, n_features: int) -> Optional[str]:
    """Why ``tree`` cannot be traversed and voted safely, or None.

    Every internal node must send rows to children stored after itself and
    inside the tree (so a walk from the root ends at a leaf) and split on a
    ``feature_subset`` column at a non-NaN threshold; no count is negative.
    """
    n = tree.feature.size
    arrays = [getattr(tree, name) for name in _NODE_ARRAYS]
    if n == 0 or any(a.shape != (n,) for a in arrays):
        return "node arrays are empty or differ in length"
    if tree.feature.min() < -1 or tree.feature.max() >= n_features:
        return f"feature index outside -1..{n_features - 1}"
    node = np.nonzero(tree.feature >= 0)[0]
    if not np.isin(tree.feature[node], tree.feature_subset).all():
        return "split feature outside the tree's feature_subset"
    if np.isnan(tree.threshold[node]).any() or min(tree.n_close.min(), tree.n_far.min()) < 0:
        return "NaN split threshold or negative n_close/n_far"
    for child in (tree.left[node], tree.right[node]):
        if np.any(child <= node) or np.any(child >= n):
            return "child index not after its parent inside the tree"
    return None
