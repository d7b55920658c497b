"""Metrics, PR curves, discretization, mutual information, mRMR."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wifiprox.model import DECISION_THRESHOLD, EnsembleConfig, train_ensemble
from wifiprox.features import FeatureTable
from wifiprox.core import ProximityClass
from wifiprox.selection_metrics import (
    DISCRETIZE_ALPHA,
    EvalReport,
    balanced_accuracy,
    confusion_counts,
    discretize,
    evaluate,
    mrmr_select,
    mutual_information,
    pr_points_from_scores,
    read_ranking,
    report_from_scores,
    write_pr_points,
    write_ranking,
)


class TestMetrics:
    def test_balanced_accuracy_is_rate_mean(self):
        assert balanced_accuracy(1.0, 0.0) == 0.5
        assert balanced_accuracy(0.8, 0.6) == pytest.approx(0.7)

    def test_confusion_counts_hand_case(self):
        assert DECISION_THRESHOLD == 0.5
        scores = np.array([0.9, 0.4, 0.6, 0.1])
        is_close = np.array([True, True, False, False])
        assert confusion_counts(scores, is_close) == (1, 1, 1, 1)
        # threshold is inclusive
        assert confusion_counts(np.array([0.5, 0.5]), np.array([True, False])) == (1, 0, 1, 0)

    def test_report_from_scores(self):
        scores = np.array([0.9, 0.9, 0.1, 0.9])
        is_close = np.array([True, True, False, False])
        rep = report_from_scores(scores, is_close)
        assert (rep.tp, rep.tn, rep.fp, rep.fn) == (2, 1, 1, 0)
        assert rep.tpr == 1.0
        assert rep.tnr == 0.5
        assert rep.balanced_accuracy == 0.75
        assert rep.n_pairs == 4

    def test_report_handles_single_class_gracefully(self):
        scores = np.array([0.9, 0.2])
        rep = report_from_scores(scores, np.array([True, True]))
        assert rep.tnr == 0.0  # no Far pairs: rate defined as 0, not a crash
        assert rep.tpr == 0.5

    def test_report_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            report_from_scores(np.empty(0), np.empty(0, dtype=bool))

    def test_report_json_round_trip(self):
        rep = report_from_scores(np.array([0.9, 0.1]), np.array([True, False]))
        doc = json.loads(rep.to_json())
        assert doc == {
            "tp": 1, "tn": 1, "fp": 0, "fn": 0,
            "tpr": 1.0, "tnr": 1.0, "balanced_accuracy": 1.0, "threshold": 0.5,
        }

    def test_summary_mentions_the_numbers(self):
        rep = report_from_scores(np.array([0.9, 0.1]), np.array([True, False]))
        text = rep.summary()
        assert "balanced accuracy" in text
        assert "1.0000" in text

    def test_evaluate_projects_model_columns(self, rng):
        X = rng.normal(size=(40, 3))
        y = X[:, 0] > 0
        m = train_ensemble(
            X, y, ("a", "b", "c"), EnsembleConfig(n_estimators=5), seed=0
        )
        # table carries an extra column and a different column order
        matrix = np.column_stack([X[:, 2], X[:, 0], rng.normal(size=40), X[:, 1]])
        table = FeatureTable(
            names=("c", "a", "zzz", "b"),
            pair_ids=tuple(str(i) for i in range(40)),
            distances=np.zeros(40),
            labels=tuple(
                ProximityClass.CLOSE if c else ProximityClass.FAR for c in y
            ),
            matrix=matrix,
        )
        rep = evaluate(m, table)
        direct = report_from_scores(m.predict_scores(X), y)
        assert rep == direct


class TestPrCurve:
    def test_hand_case(self):
        scores = np.array([0.2, 0.6, 0.8])
        is_close = np.array([False, True, True])
        points = pr_points_from_scores(scores, is_close)
        as_dict = {thr: (p, r) for thr, p, r in points}
        assert as_dict[0.0] == (pytest.approx(2 / 3), 1.0)
        assert as_dict[0.2] == (pytest.approx(2 / 3), 1.0)
        assert as_dict[0.6] == (1.0, 1.0)
        assert as_dict[0.8] == (1.0, 0.5)
        assert as_dict[1.0] == (1.0, 0.0)  # precision convention at zero predictions
        # sentinel threshold just above the top score closes the curve
        top = max(as_dict)
        assert top > 1.0
        assert as_dict[top] == (1.0, 0.0)

    def test_thresholds_ascending_recall_non_increasing(self, rng):
        scores = rng.random(500)
        is_close = rng.random(500) < 0.4
        points = pr_points_from_scores(scores, is_close)
        thrs = [p[0] for p in points]
        recalls = [p[2] for p in points]
        assert thrs == sorted(thrs)
        assert all(r1 >= r2 for r1, r2 in zip(recalls, recalls[1:]))
        assert recalls[0] == 1.0
        assert recalls[-1] == 0.0

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="empty"):
            pr_points_from_scores(np.empty(0), np.empty(0, dtype=bool))
        with pytest.raises(ValueError, match="both classes"):
            pr_points_from_scores(np.array([0.5, 0.6]), np.array([True, True]))

    def test_matches_per_threshold_oracle(self, rng):
        # vote fractions of 20 trees: heavy ties, and both 0 and 1 appear
        for n in (2, 9, 300):
            scores = rng.integers(0, 21, size=n) / 20
            is_close = rng.random(n) < 0.5
            is_close[:2] = (True, False)
            assert pr_points_from_scores(scores, is_close) == oracle_pr_points(scores, is_close)

    def test_write_pr_points_format(self, tmp_path):
        path = tmp_path / "pr.txt"
        write_pr_points([(0.0, 2 / 3, 1.0), (1.0, 1.0, 0.0)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# recall precision"
        assert lines[1].split() == ["1.0", repr(2 / 3)]


# ---------------------------------------------------------------------------
# Scalar oracles: the per-threshold precision-recall sweep, the per-column
# discretizer, the two-array plug-in mutual information and the greedy loop
# that the whole-array passes replaced.
# ---------------------------------------------------------------------------

def oracle_pr_points(scores, is_close):
    """The sweep that masked the whole table once per threshold."""
    grid = sorted(set(scores.tolist()) | {0.0, 1.0})
    grid.append(math.nextafter(grid[-1], math.inf))
    n_pos = int(is_close.sum())
    points = []
    for thr in grid:
        pred = scores >= thr
        tp = int(np.sum(pred & is_close))
        fp = int(np.sum(pred & ~is_close))
        precision = tp / (tp + fp) if tp + fp else 1.0
        points.append((float(thr), precision, tp / n_pos))
    return tuple(points)


def oracle_discretize_column(v):
    mu = float(v.mean())
    sigma = float(v.std(ddof=0))
    if sigma == 0.0:
        return np.zeros(len(v), dtype=np.int64)
    lo = mu - 1.0 * sigma
    hi = mu + 1.0 * sigma
    return np.where(v <= lo, 0, np.where(v >= hi, 2, 1)).astype(np.int64)


def oracle_mutual_information(u, v):
    n = len(u)
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


def oracle_mrmr(matrix, names, is_close, k):
    labels = np.asarray(is_close, dtype=np.int64)
    n_feat = matrix.shape[1]
    disc = [oracle_discretize_column(matrix[:, j]) for j in range(n_feat)]
    relevance = np.array([oracle_mutual_information(d, labels) for d in disc])
    by_name = sorted(range(n_feat), key=lambda j: names[j])
    selected = []
    redundancy_sum = np.zeros(n_feat)
    while len(selected) < min(k, n_feat):
        if selected:
            last = selected[-1]
            for j in by_name:
                if j not in selected:
                    redundancy_sum[j] += oracle_mutual_information(disc[j], disc[last])
        best_j = None
        best_score = -math.inf
        for j in by_name:
            if j in selected:
                continue
            score = relevance[j] - (redundancy_sum[j] / len(selected) if selected else 0.0)
            if score > best_score:
                best_j, best_score = j, score
        selected.append(best_j)
    return [names[j] for j in selected]


def mi(u, v):
    """The kernel on one row of states."""
    return float(mutual_information(np.asarray(u)[None, :], np.asarray(v))[0])


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


#: column kinds for the oracle comparison; "rounded" and "binary" give many
#: ties on the cut points, "duplicate" repeats an earlier column
_COLUMN_KINDS = ("normal", "constant", "rounded", "binary", "duplicate")


def _oracle_table(n_rows, kinds, seed):
    rng = np.random.default_rng(seed)
    cols = []
    for kind in kinds:
        if kind == "constant":
            col = np.full(n_rows, rng.normal())
        elif kind == "rounded":
            col = np.round(rng.normal(size=n_rows) * 2.0) / 2.0
        elif kind == "binary":
            col = (rng.random(n_rows) < rng.uniform(0.1, 0.9)).astype(np.float64)
        elif kind == "duplicate" and cols:
            col = cols[int(rng.integers(len(cols)))].copy()
        else:  # scaled noise, partly driven by the previous column
            col = rng.normal(size=n_rows) * rng.uniform(0.1, 100.0)
            if cols:
                col += rng.uniform(-3.0, 3.0) * cols[-1]
        cols.append(col)
    matrix = np.column_stack(cols)
    is_close = rng.random(n_rows) < rng.uniform(0.2, 0.8)
    is_close[rng.choice(n_rows, size=2, replace=False)] = [True, False]
    names = [f"f{i:02d}" for i in rng.permutation(len(kinds))]
    return matrix, names, is_close


class TestDiscretize:
    def test_balanced_binary_keeps_two_states(self):
        # mean +/- sigma lands exactly on the two values; inclusive outer
        # states keep the indicator binary instead of collapsing it
        v = np.array([0.0, 0.0, 1.0, 1.0])
        states = discretize(v[:, None])[0]
        assert sorted(set(states.tolist())) == [0, 2]
        np.testing.assert_array_equal(states, [0, 0, 2, 2])

    def test_three_states_on_spread_data(self):
        v = np.array([0.0, 5.0, 10.0])
        np.testing.assert_array_equal(discretize(v[:, None]), [[0, 1, 2]])

    def test_constant_column_is_single_state(self):
        v = np.full(5, 3.3)
        np.testing.assert_array_equal(discretize(v[:, None]), [[0] * 5])

    def test_cuts_at_one_sigma(self):
        # sigma is sqrt(2): +/-1 stay in the middle band, +/-2 leave it
        assert DISCRETIZE_ALPHA == 1.0
        v = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        np.testing.assert_array_equal(discretize(v[:, None]), [[0, 1, 1, 1, 2]])

    def test_one_row_of_states_per_column(self, rng):
        matrix = np.column_stack([rng.normal(size=7), np.full(7, 2.0), rng.normal(size=7)])
        states = discretize(matrix)
        assert states.shape == (3, 7)
        for j in range(3):
            np.testing.assert_array_equal(states[j], oracle_discretize_column(matrix[:, j]))

    def test_config_validation(self):
        # k is the only selection setting left; it must be at least 1
        v = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        label = np.array([True, False, True, False])
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                mrmr_select(v, ["a", "b"], label, k)
        # the cut width must be positive: the mean of a symmetric column
        # keeps the middle state rather than falling on an outer cut
        assert DISCRETIZE_ALPHA > 0
        np.testing.assert_array_equal(discretize(np.array([[-1.0], [0.0], [1.0]])), [[0, 1, 2]])


class TestMutualInformation:
    def test_identical_balanced_binary_is_one_bit(self):
        u = np.array([0, 0, 1, 1])
        assert mi(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_independent_is_zero(self):
        u = np.array([0, 0, 1, 1])
        v = np.array([0, 1, 0, 1])
        assert mi(u, v) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_partial_dependence(self):
        # joint counts: (0,0)=2, (0,1)=1, (1,0)=0, (1,1)=1 over n=4
        u = np.array([0, 0, 0, 1])
        v = np.array([0, 0, 1, 1])
        expected = (
            0.5 * math.log2(0.5 / (0.75 * 0.5))
            + 0.25 * math.log2(0.25 / (0.75 * 0.5))
            + 0.25 * math.log2(0.25 / (0.25 * 0.5))
        )
        assert mi(u, v) == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self, rng):
        u = rng.integers(0, 3, size=200)
        v = rng.integers(0, 3, size=200)
        assert mi(u, v) == pytest.approx(mi(v, u), abs=1e-12)

    def test_state_labels_are_irrelevant(self, rng):
        # any relabelling of the three states gives the same information
        u = rng.integers(0, 3, size=100)
        v = rng.integers(0, 3, size=100)
        relabel = np.array([2, 0, 1])
        assert mi(relabel[u], v) == pytest.approx(mi(u, v), abs=1e-12)

    def test_every_row_against_one_target(self, rng):
        states = rng.integers(0, 3, size=(6, 50))
        target = rng.integers(0, 2, size=50)
        got = mutual_information(states, target)
        assert got.shape == (6,)
        want = [oracle_mutual_information(row, target) for row in states]
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_rows_filling_eight_and_nine_cells_match_oracle_bits(self):
        # np.sum adds eight or more terms pairwise, fewer one by one: a kernel
        # that pads every row to nine terms moves the last bit of these rows
        rng = np.random.default_rng(11)
        base = rng.normal(size=300)
        matrix = np.column_stack(
            [base] + [c * base + rng.normal(size=300) for c in np.linspace(0.0, 4.0, 40)]
        )
        states = discretize(matrix)
        got = mutual_information(states, states[0])
        cells = [len(set(zip(row.tolist(), states[0].tolist()))) for row in states]
        assert {8, 9} <= set(cells)
        want = [oracle_mutual_information(row, states[0]) for row in states]
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_validation(self):
        with pytest.raises(ValueError):
            mutual_information(np.array([[1]]), np.array([1, 2]))
        with pytest.raises(ValueError):
            mutual_information(np.empty((1, 0), dtype=int), np.empty(0, dtype=int))


def _score(disc, rel, selected, j):
    red = sum(mi(disc[j], disc[s]) for s in selected)
    return rel[j] - red / len(selected)


class TestMrmr:
    # 12-row fixture: `signal` agrees with the label on 10/12 rows, so unlike
    # a label-equal feature it does NOT exhaust the label information, and the
    # second-step scores separate strictly: the duplicate's redundancy (1 bit,
    # its full entropy) exceeds its relevance, while `extra` carries fresh
    # signal nearly independent of `signal`.
    LABEL = np.array([0] * 6 + [1] * 6)
    SIGNAL = np.array([1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    EXTRA = np.array([0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1])
    NOISE_A = np.array([0, 1, 0, 1, 0, 1] * 2)
    NOISE_B = np.array([1, 0, 1, 0, 1, 0] * 2)

    def _fixture(self):
        cols = {
            "signal": self.SIGNAL,
            "signal_copy": self.SIGNAL.copy(),
            "extra": self.EXTRA,
            "noise_a": self.NOISE_A,
            "noise_b": self.NOISE_B,
        }
        matrix = np.column_stack([c.astype(float) for c in cols.values()])
        return matrix, list(cols), self.LABEL.astype(bool)

    def test_first_pick_is_max_relevance(self):
        matrix, names, label = self._fixture()
        rel = mutual_information(discretize(matrix), self.LABEL)
        brute = names[int(np.argmax(rel))]
        assert mrmr_select(matrix, names, label, 1) == [brute] == ["signal"]

    def test_duplicate_scores_strictly_negative_at_step_two(self):
        matrix, names, label = self._fixture()
        states = discretize(matrix)
        disc = dict(zip(names, states))
        rel = dict(zip(names, mutual_information(states, self.LABEL).tolist()))
        assert rel["signal"] == rel["signal_copy"] > 0
        dup_score = _score(disc, rel, ["signal"], "signal_copy")
        extra_score = _score(disc, rel, ["signal"], "extra")
        assert dup_score < 0 < extra_score
        assert mrmr_select(matrix, names, label, 2) == ["signal", "extra"]

    def test_noise_never_precedes_informative_features(self):
        matrix, names, label = self._fixture()
        order = mrmr_select(matrix, names, label, 5)
        assert order.index("signal") == 0
        assert order.index("extra") == 1
        assert len(order) == 5

    def test_score_ties_break_by_name_ascending(self):
        # two identical columns: identical scores at every step
        matrix = np.column_stack([self.SIGNAL, self.SIGNAL]).astype(float)
        order = mrmr_select(matrix, ["beta", "alpha"], self.LABEL.astype(bool), 2)
        assert order == ["alpha", "beta"]

    def test_k_capped_at_feature_count(self):
        matrix, names, label = self._fixture()
        assert len(mrmr_select(matrix, names, label, 99)) == len(names)

    def test_validation(self):
        matrix, names, label = self._fixture()
        with pytest.raises(ValueError, match="width"):
            mrmr_select(matrix[:, :2], names, label, 1)
        with pytest.raises(ValueError, match="constant"):
            mrmr_select(matrix, names, np.zeros(12, dtype=bool), 1)
        with pytest.raises(ValueError, match="rows"):
            mrmr_select(matrix[:1], names, label[:1], 1)
        with pytest.raises(ValueError, match="k must be >= 1"):
            mrmr_select(matrix, names, label, 0)


class TestAgainstScalarOracles:
    """States, MI bits and full rankings equal the scalar implementation's."""

    @given(
        n_rows=st.integers(2, 600),
        kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_rows=600, kinds=list(_COLUMN_KINDS) * 8, seed=1)  # 40 columns
    @example(n_rows=9, kinds=["normal"] * 6, seed=2)
    @settings(max_examples=150, deadline=None)
    def test_random_tables(self, n_rows, kinds, seed):
        matrix, names, is_close = _oracle_table(n_rows, kinds, seed)
        states = discretize(matrix)
        want_states = [oracle_discretize_column(matrix[:, j]) for j in range(len(names))]
        np.testing.assert_array_equal(states, np.stack(want_states))
        labels = is_close.astype(np.int64)
        for target in (labels, states[0], states[-1]):
            want = [oracle_mutual_information(row, target) for row in states]
            np.testing.assert_array_equal(bits(mutual_information(states, target)), bits(want))
        k = len(names)
        assert mrmr_select(matrix, names, is_close, k) == oracle_mrmr(matrix, names, is_close, k)


class TestRankingIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ranking.txt"
        write_ranking(["b.x.none", "a.y.single_ls"], path)
        assert read_ranking(path) == {"b.x.none": 1, "a.y.single_ls": 2}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ranking.txt"
        path.write_text("one\n\ntwo\n   \n")
        assert read_ranking(path) == {"one": 1, "two": 3}
