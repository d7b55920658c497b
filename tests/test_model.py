"""Tree induction, bagging determinism, vote semantics, scoring, persistence."""

import json
import math
import re
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifiprox.model import (
    DECISION_THRESHOLD,
    MAX_FEATURES,
    SCHEMA_VERSION,
    SCORE_LANES,
    BaggedEnsemble,
    EnsembleConfig,
    Tree,
    load_model,
    save_model,
    train_ensemble,
    train_tree,
)


def _ensemble(trees, n_features: int) -> BaggedEnsemble:
    names = tuple(f"f{i}" for i in range(n_features))
    return BaggedEnsemble(trees=tuple(trees), feature_names=names, train_seed=0,
                          class_balance=(1, 1))


def _labels(tree, X):
    """``tree``'s vote per row of X, scored as a one-tree ensemble."""
    X = np.asarray(X, dtype=np.float64)
    return _ensemble([tree], X.shape[1]).predict_scores(X)


# ---------------------------------------------------------------------------
# Oracle: each tree walked on its own, one level of its rows at a time, and
# the votes summed tree by tree.
# ---------------------------------------------------------------------------

def oracle_leaves(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf index for every row of X."""
    idx = np.zeros(len(X), dtype=np.int32)
    while True:
        feat = tree.feature[idx]
        active = np.nonzero(feat >= 0)[0]
        if active.size == 0:
            return idx
        node = idx[active]
        vals = X[active, tree.feature[node]]
        go_left = vals <= tree.threshold[node]
        idx[active] = np.where(go_left, tree.left[node], tree.right[node])


def oracle_votes(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Per-row vote: 1.0 Close, 0.0 Far, 0.5 when the leaf is tied."""
    leaf = oracle_leaves(tree, X)
    close = tree.n_close[leaf]
    far = tree.n_far[leaf]
    return np.where(close > far, 1.0, np.where(close < far, 0.0, 0.5))


def oracle_scores(model: BaggedEnsemble, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    total = np.zeros(len(X), dtype=np.float64)
    for tree in model.trees:
        total += oracle_votes(tree, X)
    return total / len(model.trees)


class TestConfig:
    def test_defaults(self):
        assert EnsembleConfig().n_estimators == 300
        assert (MAX_FEATURES, DECISION_THRESHOLD) == (3, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n_estimators=0)


class TestTrainTree:
    def test_separable_single_split(self):
        X = np.array([[1.0], [2.0], [10.0], [11.0]])
        y = np.array([1, 1, 0, 0])
        tree = train_tree(X, y, [0])
        assert tree.n_nodes == 3
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 6.0  # midpoint of 2 and 10
        np.testing.assert_array_equal(_labels(tree, X), [1, 1, 0, 0])

    def test_pure_input_is_single_leaf(self):
        X = np.array([[1.0], [2.0]])
        tree = train_tree(X, np.array([1, 1]), [0])
        assert tree.n_nodes == 1
        assert tree.feature[0] == -1
        assert (tree.n_close[0], tree.n_far[0]) == (2, 0)

    def test_constant_feature_leaves_mixed_leaf(self):
        X = np.zeros((4, 1))
        y = np.array([1, 0, 1, 0])
        tree = train_tree(X, y, [0])
        assert tree.n_nodes == 1
        assert (tree.n_close[0], tree.n_far[0]) == (2, 2)
        assert _labels(tree, X)[0] == 0.5  # tied leaf votes half

    def test_grows_to_purity_on_conjunction(self):
        # y = x0 AND x1 needs two levels; exercises recursion and leaf counts
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 0, 0, 1])
        tree = train_tree(X, y, [0, 1])
        assert tree.n_nodes == 5
        np.testing.assert_array_equal(_labels(tree, X), y.astype(float))
        leaves = tree.feature == -1
        assert (tree.n_close[leaves] + tree.n_far[leaves]).sum() == 4

    def test_depth_counts_edges_on_longest_path(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert train_tree(X, np.array([0, 0, 0, 1]), [0, 1]).depth == 2
        assert train_tree(X, np.array([0, 0, 1, 1]), [0, 1]).depth == 1
        assert train_tree(X, np.array([1, 1, 1, 1]), [0, 1]).depth == 0

    def test_xor_is_greedily_unsplittable(self):
        # no single split strictly reduces Gini on xor, so greedy CART
        # correctly stops at a mixed root leaf rather than splitting blindly
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = train_tree(X, y, [0, 1])
        assert tree.n_nodes == 1
        np.testing.assert_array_equal(_labels(tree, X), [0.5] * 4)

    def test_tie_breaks_to_lowest_feature_index(self):
        # both columns separate the classes perfectly
        X = np.array([[0.0, 10.0], [1.0, 11.0], [5.0, 20.0], [6.0, 21.0]])
        y = np.array([1, 1, 0, 0])
        tree = train_tree(X, y, [0, 1])
        assert tree.feature[0] == 0
        flipped = train_tree(X[:, ::-1].copy(), y, [0, 1])
        assert flipped.feature[0] == 0  # still the lowest index of the tie

    def test_tie_breaks_to_lowest_threshold(self):
        # class pattern 1,0,1: splitting after the first or before the last
        # value gives the same weighted impurity; pick the lower threshold
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1, 0, 1])
        tree = train_tree(X, y, [0])
        assert tree.threshold[0] == 1.5

    def test_threshold_snaps_when_midpoint_rounds_up(self):
        lo = math.nextafter(1.0, 0.0)
        X = np.array([[lo], [1.0]])
        y = np.array([1, 0])
        assert (lo + 1.0) / 2.0 == 1.0  # midpoint is not representable; rounds up
        tree = train_tree(X, y, [0])
        assert tree.threshold[0] == lo  # snapped down to the left value
        np.testing.assert_array_equal(_labels(tree, X), [1.0, 0.0])

    def test_subset_restricts_columns(self):
        X = np.array([[0.0, 5.0], [1.0, 6.0], [2.0, 1.0], [3.0, 2.0]])
        y = np.array([1, 1, 0, 0])
        tree = train_tree(X, y, [1])
        assert set(tree.feature[tree.feature >= 0]) == {1}

    def test_bad_subsets_rejected(self):
        X = np.zeros((2, 2))
        y = np.array([0, 1])
        with pytest.raises(ValueError, match="duplicates"):
            train_tree(X, y, [0, 0])
        with pytest.raises(ValueError, match="out of range"):
            train_tree(X, y, [2])
        with pytest.raises(ValueError, match="out of range"):
            train_tree(X, y, [])


# ---------------------------------------------------------------------------
# Oracle: a node-at-a-time CART grower.  Each node sorts its own rows per
# feature and takes the first minimum; children are numbered when their
# parent is visited, left subtree first.
# ---------------------------------------------------------------------------

def _oracle_best_split(
    X: np.ndarray, y: np.ndarray, rows: np.ndarray, subset: Sequence[int]
) -> Optional[tuple[int, float]]:
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
        i = int(np.argmin(weighted))
        if weighted[i] < parent and (best is None or weighted[i] < best[0]):
            lo = float(sv[boundary[i]])
            hi = float(sv[boundary[i] + 1])
            thr = (lo + hi) / 2.0
            if thr >= hi:
                thr = lo
            best = (float(weighted[i]), f, thr)
    if best is None:
        return None
    return best[1], best[2]


def oracle_tree(X: np.ndarray, y: np.ndarray, feature_subset: Sequence[int]) -> Tree:
    subset = tuple(sorted(int(f) for f in feature_subset))
    y = np.asarray(y, dtype=np.int64)
    feature, threshold, left, right, n_close, n_far = [], [], [], [], [], []

    def new_node() -> int:
        for column, blank in ((feature, -1), (threshold, 0.0), (left, -1),
                              (right, -1), (n_close, 0), (n_far, 0)):
            column.append(blank)
        return len(feature) - 1

    stack = [(new_node(), np.arange(len(X), dtype=np.intp))]
    while stack:
        node, rows = stack.pop()
        closes = int(y[rows].sum())
        fars = rows.size - closes
        split = _oracle_best_split(X, y, rows, subset) if closes and fars else None
        go_left = None if split is None else X[rows, split[0]] <= split[1]
        if split is None or go_left.all() or not go_left.any():
            n_close[node] = closes
            n_far[node] = fars
            continue
        feature[node], threshold[node] = split
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], rows[~go_left]))
        stack.append((left[node], rows[go_left]))

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        n_close=np.asarray(n_close, dtype=np.int64),
        n_far=np.asarray(n_far, dtype=np.int64),
        feature_subset=subset,
    )


def assert_same_tree(got: Tree, want: Tree) -> None:
    """Array for array, dtype for dtype; thresholds compared by their bits."""
    assert got.feature_subset == want.feature_subset
    for name in ("feature", "left", "right", "n_close", "n_far", "threshold"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        if name == "threshold":  # by bits, so -0.0 differs from 0.0
            a, b = a.view(np.uint64), b.view(np.uint64)
        np.testing.assert_array_equal(a, b, err_msg=name)


BELOW_ONE = math.nextafter(1.0, 0.0)  # (BELOW_ONE + 1.0) / 2 rounds up to 1.0
ABOVE_ONE = math.nextafter(1.0, 2.0)  # (1.0 + ABOVE_ONE) / 2 rounds down to 1.0
EDGE_VALUES = (0.0, -0.0, 1.0, BELOW_ONE, ABOVE_ONE, -2.5, 7.0)


class TestMatchesOracle:
    @pytest.mark.parametrize("X, y", [
        ([[3.0]], [1]),  # a single row
        ([[1.0], [1.0], [1.0]], [1, 0, 1]),  # constant column
        ([[1.0, 4.0], [2.0, 5.0]], [0, 0]),  # pure root
        ([[BELOW_ONE], [1.0], [BELOW_ONE], [1.0]], [1, 0, 1, 0]),  # snaps down to lo
        ([[1.0], [ABOVE_ONE], [1.0]], [1, 0, 1]),  # midpoint rounds to lo
        ([[0.0], [-0.0], [1.0], [-0.0], [0.0]], [1, 0, 0, 1, 0]),  # signed zeros tie
        ([[-0.0, 2.0], [0.0, 1.0], [-1.0, 2.0], [0.0, 2.0]], [0, 1, 1, 0]),
    ])
    def test_edge_cases(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        subset = range(X.shape[1])
        assert_same_tree(train_tree(X, np.asarray(y), subset), oracle_tree(X, y, subset))

    @given(
        n=st.integers(1, 80),
        n_cols=st.integers(1, 5),
        pool=st.lists(
            st.sampled_from(EDGE_VALUES) | st.floats(-1e3, 1e3, allow_nan=False),
            min_size=1, max_size=10,
        ),
        seed=st.integers(0, 2**32 - 1),
        bootstrap=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_matrices(self, n, n_cols, pool, seed, bootstrap):
        rng = np.random.default_rng(seed)
        pool = np.asarray(pool, dtype=np.float64)
        # per column a prefix of the pool: length-1 prefixes give constant columns
        X = np.stack([rng.choice(pool[: rng.integers(1, len(pool) + 1)], size=n)
                      for _ in range(n_cols)], axis=1)
        y = rng.integers(0, 2, size=n) if rng.random() < 0.9 else np.ones(n, dtype=np.int64)
        if bootstrap:  # repeated rows, as train_ensemble draws them
            rows = rng.integers(0, n, size=n)
            X, y = X[rows], y[rows]
        subset = rng.permutation(n_cols)[: rng.integers(1, n_cols + 1)]
        assert_same_tree(train_tree(X, y, subset), oracle_tree(X, y, subset))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_deep_trees_on_thousands_of_rows(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(-60, 61, size=(3000, 4)) / 8.0
        y = X[:, 0] - X[:, 2] + rng.normal(0, 8, size=len(X)) > 0
        rows = rng.integers(0, len(X), size=len(X))
        got = train_tree(X[rows], y[rows], [0, 2, 3])
        assert got.n_nodes > 1000
        assert_same_tree(got, oracle_tree(X[rows], y[rows], [0, 2, 3]))


def _toy_data(rng, n=80, n_feat=6):
    X = rng.normal(size=(n, n_feat))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


class TestEnsemble:
    def test_training_is_deterministic(self, rng):
        X, y = _toy_data(rng)
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        cfg = EnsembleConfig(n_estimators=12)
        m1 = train_ensemble(X, y, names, cfg, seed=5)
        m2 = train_ensemble(X, y, names, cfg, seed=5)
        for t1, t2 in zip(m1.trees, m2.trees):
            np.testing.assert_array_equal(t1.feature, t2.feature)
            np.testing.assert_array_equal(t1.threshold, t2.threshold)
            assert t1.feature_subset == t2.feature_subset
        m3 = train_ensemble(X, y, names, cfg, seed=6)
        assert any(
            t1.feature_subset != t3.feature_subset for t1, t3 in zip(m1.trees, m3.trees)
        )

    def test_tree_streams_are_independent_of_count(self, rng):
        # tree i is seeded (seed, i): growing the forest keeps old trees
        X, y = _toy_data(rng)
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        small = train_ensemble(X, y, names, EnsembleConfig(n_estimators=4), seed=9)
        big = train_ensemble(X, y, names, EnsembleConfig(n_estimators=8), seed=9)
        for ts, tb in zip(small.trees, big.trees):
            np.testing.assert_array_equal(ts.feature, tb.feature)
            np.testing.assert_array_equal(ts.threshold, tb.threshold)

    def test_full_view_tree_memorizes_training_set(self, rng):
        # a table MAX_FEATURES wide: the one tree sees every column and
        # memorizes the bootstrap rows drawn from its (seed, 0) stream
        X, y = _toy_data(rng, n=40, n_feat=MAX_FEATURES)
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        m = train_ensemble(X, y, names, EnsembleConfig(n_estimators=1), seed=0)
        rows = np.random.default_rng([0, 0]).integers(0, len(X), size=len(X))
        assert m.trees[0].feature_subset == tuple(range(MAX_FEATURES))
        np.testing.assert_array_equal(m.predict_scores(X[rows]), y[rows].astype(float))

    def test_scores_are_vote_fractions(self, rng):
        X, y = _toy_data(rng)
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        m = train_ensemble(X, y, names, EnsembleConfig(n_estimators=7), seed=1)
        scores = m.predict_scores(X)
        assert np.all((scores >= 0) & (scores <= 1))
        votes = np.stack([oracle_votes(t, X) for t in m.trees])
        np.testing.assert_allclose(scores, votes.mean(axis=0))

    def test_predict_label_threshold_is_inclusive(self):
        # two single-leaf trees: one tied leaf, one Far leaf; the score 0.25
        # sits below the threshold, a lone tied tree's 0.5 exactly on it
        def leaf(n_close, n_far):
            return Tree(
                feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
                left=np.array([-1], dtype=np.int32), right=np.array([-1], dtype=np.int32),
                n_close=np.array([n_close]), n_far=np.array([n_far]), feature_subset=(0,),
            )

        def ensemble(*trees):
            return _ensemble(trees, 1)

        X = np.zeros((3, 1))
        tied = ensemble(leaf(1, 1))
        assert (tied.predict_scores(X) == DECISION_THRESHOLD).all()
        assert tied.predict_labels(X).all()
        below = ensemble(leaf(1, 1), leaf(0, 2))
        assert (below.predict_scores(X) == 0.25).all()
        assert not below.predict_labels(X).any()

    def test_predict_score_single_vector(self, rng):
        X, y = _toy_data(rng)
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        m = train_ensemble(X, y, names, EnsembleConfig(n_estimators=5), seed=3)
        assert m.predict_score(X[0]) == m.predict_scores(X[:1])[0]
        with pytest.raises(ValueError, match="feature values"):
            m.predict_score(X[0][:3])

    def test_matrix_width_checked(self, rng):
        X, y = _toy_data(rng)
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        m = train_ensemble(X, y, names, EnsembleConfig(n_estimators=2), seed=0)
        with pytest.raises(ValueError, match="matrix"):
            m.predict_scores(X[:, :4])

    def test_training_input_validation(self, rng):
        X, y = _toy_data(rng, n=10)
        with pytest.raises(ValueError, match="empty"):
            train_ensemble(X[:0], y[:0], ("a",) * X.shape[1])
        with pytest.raises(ValueError, match="shapes"):
            train_ensemble(X, y[:-1], ("a",) * X.shape[1])
        with pytest.raises(ValueError, match="feature_names"):
            train_ensemble(X, y, ("a", "b"))

    def test_max_features_capped_at_width(self, rng):
        X, y = _toy_data(rng, n=30, n_feat=2)
        m = train_ensemble(
            X, y, ("a", "b"), EnsembleConfig(n_estimators=3), seed=0
        )
        assert all(len(t.feature_subset) == 2 for t in m.trees)

    def test_class_balance_recorded(self, rng):
        X, y = _toy_data(rng)
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        m = train_ensemble(X, y, names, EnsembleConfig(n_estimators=2), seed=0)
        assert m.class_balance == (int(y.sum()), int(len(y) - y.sum()))


def _random_tree(rng, n_features: int, cuts: np.ndarray, max_nodes: int) -> Tree:
    """A tree as ``train_tree`` numbers one (children after their parent),
    splitting at ``cuts``; leaves hold 0-2 rows of each class, so many tie."""
    subset = np.sort(rng.choice(n_features, size=min(MAX_FEATURES, n_features), replace=False))
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    node = 0
    while node < len(feature):
        if len(feature) + 2 <= max_nodes and rng.random() < 0.6:
            feature[node], threshold[node] = int(rng.choice(subset)), float(rng.choice(cuts))
            left[node], right[node] = len(feature), len(feature) + 1
            for column, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1)):
                column += [blank, blank]
        node += 1
    counts = rng.integers(0, 3, size=(2, len(feature)))
    counts[:, np.asarray(feature) >= 0] = 0
    return Tree(feature=np.asarray(feature, dtype=np.int32), threshold=np.asarray(threshold),
                left=np.asarray(left, dtype=np.int32), right=np.asarray(right, dtype=np.int32),
                n_close=counts[0], n_far=counts[1], feature_subset=tuple(subset.tolist()))


class TestAgainstPerTreeOracle:
    """``predict_scores`` walks every tree at once; the bytes must be the
    per-tree walk's."""

    CUTS = np.array([-np.inf, -2.5, -0.0, 0.0, 1.0, BELOW_ONE, 7.0, np.inf])
    CELLS = np.array([np.nan, np.inf, -np.inf, -2.5, -0.0, 0.0, 1.0, BELOW_ONE, ABOVE_ONE, 7.0])

    @given(
        n_trees=st.sampled_from([1, 2, 7, 300]),
        rows=st.sampled_from(["none", "one", "few", "block-1", "block", "block+1"]),
        n_features=st.integers(1, 6),
        max_nodes=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_forests(self, n_trees, rows, n_features, max_nodes, seed):
        rng = np.random.default_rng(seed)
        trees = [_random_tree(rng, n_features, self.CUTS, max_nodes) for _ in range(n_trees)]
        block = SCORE_LANES // n_trees
        n_rows = {"none": 0, "one": 1, "few": 5,
                  "block-1": block - 1, "block": block, "block+1": block + 1}[rows]
        X = rng.choice(self.CELLS, size=(n_rows, n_features))
        off_grid = rng.random(X.shape) < 0.3
        X[off_grid] = rng.normal(0, 4, size=off_grid.sum())
        model = _ensemble(trees, n_features)
        got = model.predict_scores(X)
        assert got.dtype == np.float64 and got.shape == (n_rows,)
        assert got.tobytes() == oracle_scores(model, X).tobytes()
        if n_rows:
            assert model.predict_score(X[-1]) == oracle_scores(model, X[-1:])[0]

    def test_trained_deep_trees(self):
        # thousands of nodes per tree, NaN and +-inf cells, and cells on the
        # midpoints of the training grid, where the thresholds sit
        rng = np.random.default_rng(11)
        X = rng.integers(-60, 61, size=(3000, 5)) / 8.0
        y = X[:, 0] - X[:, 2] + rng.normal(0, 8, size=len(X)) > 0
        model = train_ensemble(X, y, tuple(f"f{i}" for i in range(5)),
                               EnsembleConfig(n_estimators=30), seed=2)
        assert max(t.depth for t in model.trees) > 20
        Z = rng.integers(-70, 71, size=(2500, 5)) / 8.0
        Z += 1 / 16
        Z[rng.random(Z.shape) < 0.05] = np.nan
        Z[rng.random(Z.shape) < 0.05] = rng.choice([np.inf, -np.inf])
        assert model.predict_scores(Z).tobytes() == oracle_scores(model, Z).tobytes()


class TestPersistence:
    def _model(self, rng, **kw):
        X, y = _toy_data(rng)
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        return train_ensemble(
            X, y, names, EnsembleConfig(n_estimators=kw.pop("n", 6)), seed=4
        ), X

    def test_round_trip_preserves_predictions(self, rng, tmp_path):
        m, X = self._model(rng)
        path = tmp_path / "m.json"
        save_model(m, path)
        back = load_model(path)
        assert back.feature_names == m.feature_names
        assert len(back.trees) == len(m.trees)
        assert back.train_seed == m.train_seed
        assert back.class_balance == m.class_balance
        np.testing.assert_array_equal(back.predict_scores(X), m.predict_scores(X))

    def test_save_load_save_is_byte_identical(self, rng, tmp_path):
        m, _ = self._model(rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_garbage_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{ not json")
        with pytest.raises(ValueError, match="not a valid model file"):
            load_model(path)

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "something-else", "schema_version": 1}))
        with pytest.raises(ValueError, match="not a recognized"):
            load_model(path)

    def test_rejects_unknown_schema_version(self, rng, tmp_path):
        m, _ = self._model(rng, n=1)
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema version"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [
        ("max_features", 5), ("bootstrap", False), ("max_features", 3.0), ("bootstrap", 1),
    ])
    def test_rejects_other_fixed_config(self, rng, tmp_path, key, value):
        # every model is trained on 3 features per tree and bootstrap rows;
        # a file recording anything else, even 3.0 or 1, was not made by
        # this protocol and would not save back to the same bytes
        m, _ = self._model(rng, n=1)
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        assert (doc["config"]["max_features"], doc["config"]["bootstrap"]) == (3, True)
        doc["config"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed model file (") + f".*{key}"):
            load_model(path)

    @pytest.mark.parametrize("edit", ["drop-n_estimators", "extra-key"])
    def test_rejects_config_other_than_recorded(self, rng, tmp_path, edit):
        m, _ = self._model(rng, n=2)
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        if edit == "drop-n_estimators":
            del doc["config"]["n_estimators"]
        else:
            doc["config"]["min_samples_leaf"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
            f"{path}: malformed model file (config records {doc['config']}, but a 2-tree "
            "model records {'n_estimators': 2, 'max_features': 3, 'bootstrap': True})"
        )):
            load_model(path)

    @pytest.mark.parametrize("field, value, loads", [
        ("threshold", math.inf, True), ("threshold", -math.inf, True),
        ("threshold", math.nan, False), ("n_far", -5, False),
    ], ids=["inf-threshold", "-inf-threshold", "nan-threshold", "negative-n_far"])
    def test_load_checks_thresholds_and_leaf_counts(self, rng, tmp_path, field, value, loads):
        # training on data holding -inf can write an infinite threshold; a
        # NaN one would send every row right, a negative count skew votes
        m, _ = self._model(rng, n=1)
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        tree = doc["trees"][0]
        node = 0 if field == "threshold" else tree["feature"].index(-1)
        assert (tree["feature"][node] >= 0) == (field == "threshold")
        tree[field][node] = value
        path.write_text(json.dumps(doc))
        if loads:
            assert getattr(load_model(path).trees[0], field)[node] == value
        else:
            with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed model file (tree 0: NaN split threshold or negative "
                "n_close/n_far)"
            )):
                load_model(path)

    @pytest.mark.parametrize("key, value, problem", [
        ("train_seed", 1.7, "train_seed 1.7 is not an integer"),
        ("train_seed", "7", "train_seed '7' is not an integer"),
        ("train_seed", True, "train_seed True is not an integer"),
        ("class_balance", [1], "class_balance [1] is not two non-negative integers"),
        ("class_balance", "ab", "class_balance 'ab' is not two non-negative integers"),
        ("class_balance", [3, -1], "class_balance [3, -1] is not two non-negative integers"),
        ("feature_names", ["f0", "f1", "f2", "f3", "f4", 5],
         "feature_names is not a list of strings"),
        ("feature_names", ["f0", "f1", "f2", "f3", "f4", "f0"], "feature_names repeats 'f0'"),
    ], ids=["float-seed", "string-seed", "bool-seed", "one-count-balance", "string-balance",
            "negative-balance", "non-string-name", "repeated-name"])
    def test_rejects_mistyped_header_fields(self, rng, tmp_path, key, value, problem):
        # int() would read a 1.7 or "7" seed as 1 or 7, and a repeated name
        # would score one table column twice
        m, _ = self._model(rng, n=1)
        assert m.feature_names == ("f0", "f1", "f2", "f3", "f4", "f5")
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed model file ({problem})")):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("n_close", 19.7), ("left", 1.9), ("feature", 0.5), ("n_far", True),
        ("right", "2"), ("feature_subset", 1.0),
    ])
    def test_rejects_non_integer_node_values(self, rng, tmp_path, field, value):
        # an integer cast would read 19.7 as 19 and true as 1, and save back
        # the bytes it was given
        m, _ = self._model(rng, n=1)
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc["trees"][0][field][0] = value
        path.write_text(json.dumps(doc))
        problem = f"tree 0 {field} holds {value!r}, which is not an integer"
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed model file ({problem})")):
            load_model(path)

    @pytest.mark.parametrize("value", ["-0.155", True, 2, None], ids=["string", "bool", "int", "null"])
    def test_rejects_thresholds_not_saved_as_floats(self, rng, tmp_path, value):
        # numpy would parse "-0.155" and read true as 1.0; save_model writes
        # every threshold as a JSON float
        m, _ = self._model(rng, n=1)
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc["trees"][0]["threshold"][0] = value
        path.write_text(json.dumps(doc))
        problem = f"tree 0 threshold holds {value!r}, which is not a float"
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed model file ({problem})")):
            load_model(path)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_rejects_schema_version_not_saved_as_integer(self, rng, tmp_path, version):
        m, _ = self._model(rng, n=1)
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        assert version == SCHEMA_VERSION
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported schema version {version!r}")):
            load_model(path)

    @pytest.mark.parametrize("edit", ["repeat", "past-last-column", "negative", "too-many"])
    def test_rejects_feature_subset_training_cannot_write(self, rng, tmp_path, edit):
        # training draws at most MAX_FEATURES distinct columns of the table
        m, _ = self._model(rng, n=1)
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        tree = doc["trees"][0]
        subset = tree["feature_subset"]
        assert len(subset) == MAX_FEATURES and len(doc["feature_names"]) == 6
        subset = {"repeat": subset + subset[:1], "past-last-column": subset + [999],
                  "negative": [-5] + subset,
                  "too-many": sorted(set(subset) | set(range(5)))[:5]}[edit]
        tree["feature_subset"] = subset
        path.write_text(json.dumps(doc))
        problem = f"tree 0 feature_subset {subset!r} is not at most 3 distinct columns of 0..5"
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed model file ({problem})")):
            load_model(path)

    def test_narrow_and_one_column_models_load(self, rng, tmp_path):
        # subsets as short as the table is narrow, down to one column
        for n_feat in (1, 2, MAX_FEATURES):
            X = rng.normal(size=(30, n_feat))
            y = X[:, 0] + rng.normal(0, 0.5, size=30) > 0
            m = train_ensemble(X, y, tuple(f"f{i}" for i in range(n_feat)),
                               EnsembleConfig(n_estimators=3), seed=0)
            path = tmp_path / f"m{n_feat}.json"
            save_model(m, path)
            assert load_model(path).predict_scores(X).tobytes() == m.predict_scores(X).tobytes()

    def test_rejects_missing_fields(self, rng, tmp_path):
        m, _ = self._model(rng, n=1)
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        del doc["trees"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)
