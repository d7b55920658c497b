"""Metrics, PR curves, discretization, mutual information, mRMR."""

import json
import math

import numpy as np
import pytest

from wifiprox.model import EnsembleConfig, train_ensemble
from wifiprox.features import FeatureTable
from wifiprox.core import ProximityClass
from wifiprox.selection_metrics import (
    EvalReport,
    MrmrConfig,
    balanced_accuracy,
    confusion_counts,
    discretize_column,
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
        scores = np.array([0.9, 0.4, 0.6, 0.1])
        is_close = np.array([True, True, False, False])
        assert confusion_counts(scores, is_close, 0.5) == (1, 1, 1, 1)
        # threshold is inclusive
        assert confusion_counts(scores, is_close, 0.4) == (2, 1, 1, 0)

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
        rep = report_from_scores(
            np.array([0.9, 0.1]), np.array([True, False]), threshold=0.5
        )
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
            X, y, ("a", "b", "c"), EnsembleConfig(n_estimators=5, bootstrap=False),
            seed=0,
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

    def test_subsample_keeps_endpoints(self, rng):
        scores = rng.random(300)
        is_close = rng.random(300) < 0.5
        full = pr_points_from_scores(scores, is_close)
        sub = pr_points_from_scores(scores, is_close, n_thresholds=10)
        assert len(sub) <= 10 < len(full)
        assert sub[0] == full[0]
        assert sub[-1] == full[-1]

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="empty"):
            pr_points_from_scores(np.empty(0), np.empty(0, dtype=bool))
        with pytest.raises(ValueError, match="both classes"):
            pr_points_from_scores(np.array([0.5, 0.6]), np.array([True, True]))
        with pytest.raises(ValueError, match="n_thresholds"):
            pr_points_from_scores(
                np.array([0.5, 0.6]), np.array([True, False]), n_thresholds=1
            )

    def test_write_pr_points_format(self, tmp_path):
        path = tmp_path / "pr.txt"
        write_pr_points([(0.0, 2 / 3, 1.0), (1.0, 1.0, 0.0)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# recall precision"
        assert lines[1].split() == ["1.0", repr(2 / 3)]


class TestDiscretize:
    def test_balanced_binary_keeps_two_states(self):
        # mean +/- sigma lands exactly on the two values; inclusive outer
        # states keep the indicator binary instead of collapsing it
        v = np.array([0.0, 0.0, 1.0, 1.0])
        states = discretize_column(v, MrmrConfig(k=1))
        assert sorted(set(states.tolist())) == [0, 2]
        np.testing.assert_array_equal(states, [0, 0, 2, 2])

    def test_three_states_on_spread_data(self):
        v = np.array([0.0, 5.0, 10.0])
        np.testing.assert_array_equal(discretize_column(v, MrmrConfig(k=1)), [0, 1, 2])

    def test_constant_column_is_single_state(self):
        v = np.full(5, 3.3)
        np.testing.assert_array_equal(discretize_column(v, MrmrConfig(k=1)), [0] * 5)

    def test_alpha_widens_middle_band(self):
        v = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        narrow = discretize_column(v, MrmrConfig(k=1, alpha=0.5))
        wide = discretize_column(v, MrmrConfig(k=1, alpha=2.0))
        assert len(set(narrow.tolist())) == 3
        assert set(wide.tolist()) == {1}  # everything within 2 sigma

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MrmrConfig(k=0)
        with pytest.raises(ValueError):
            MrmrConfig(k=1, alpha=0.0)


class TestMutualInformation:
    def test_identical_balanced_binary_is_one_bit(self):
        u = np.array([0, 0, 1, 1])
        assert mutual_information(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_independent_is_zero(self):
        u = np.array([0, 0, 1, 1])
        v = np.array([0, 1, 0, 1])
        assert mutual_information(u, v) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_partial_dependence(self):
        # joint counts: (0,0)=2, (0,1)=1, (1,0)=0, (1,1)=1 over n=4
        u = np.array([0, 0, 0, 1])
        v = np.array([0, 0, 1, 1])
        expected = (
            0.5 * math.log2(0.5 / (0.75 * 0.5))
            + 0.25 * math.log2(0.25 / (0.75 * 0.5))
            + 0.25 * math.log2(0.25 / (0.25 * 0.5))
        )
        assert mutual_information(u, v) == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self, rng):
        u = rng.integers(0, 3, size=200)
        v = rng.integers(0, 4, size=200)
        assert mutual_information(u, v) == pytest.approx(
            mutual_information(v, u), abs=1e-12
        )

    def test_state_labels_are_irrelevant(self, rng):
        u = rng.integers(0, 3, size=100)
        v = rng.integers(0, 3, size=100)
        assert mutual_information(u * 7 + 2, v) == pytest.approx(
            mutual_information(u, v), abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            mutual_information(np.array([1]), np.array([1, 2]))
        with pytest.raises(ValueError):
            mutual_information(np.empty(0, dtype=int), np.empty(0, dtype=int))


def _score(disc, rel, selected, j):
    red = sum(mutual_information(disc[j], disc[s]) for s in selected)
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
        cfg = MrmrConfig(k=1)
        disc = [discretize_column(matrix[:, j], cfg) for j in range(len(names))]
        rel = [mutual_information(d, self.LABEL) for d in disc]
        brute = names[int(np.argmax(rel))]
        assert mrmr_select(matrix, names, label, cfg) == [brute] == ["signal"]

    def test_duplicate_scores_strictly_negative_at_step_two(self):
        matrix, names, label = self._fixture()
        cfg = MrmrConfig(k=2)
        disc = {n: discretize_column(matrix[:, j], cfg) for j, n in enumerate(names)}
        rel = {n: mutual_information(d, self.LABEL) for n, d in disc.items()}
        assert rel["signal"] == rel["signal_copy"] > 0
        dup_score = _score(disc, rel, ["signal"], "signal_copy")
        extra_score = _score(disc, rel, ["signal"], "extra")
        assert dup_score < 0 < extra_score
        assert mrmr_select(matrix, names, label, cfg) == ["signal", "extra"]

    def test_noise_never_precedes_informative_features(self):
        matrix, names, label = self._fixture()
        order = mrmr_select(matrix, names, label, MrmrConfig(k=5))
        assert order.index("signal") == 0
        assert order.index("extra") == 1
        assert len(order) == 5

    def test_score_ties_break_by_name_ascending(self):
        # two identical columns: identical scores at every step
        matrix = np.column_stack([self.SIGNAL, self.SIGNAL]).astype(float)
        order = mrmr_select(
            matrix, ["beta", "alpha"], self.LABEL.astype(bool), MrmrConfig(k=2)
        )
        assert order == ["alpha", "beta"]

    def test_k_capped_at_feature_count(self):
        matrix, names, label = self._fixture()
        assert len(mrmr_select(matrix, names, label, MrmrConfig(k=99))) == len(names)

    def test_validation(self):
        matrix, names, label = self._fixture()
        with pytest.raises(ValueError, match="width"):
            mrmr_select(matrix[:, :2], names, label, MrmrConfig(k=1))
        with pytest.raises(ValueError, match="constant"):
            mrmr_select(matrix, names, np.zeros(12, dtype=bool), MrmrConfig(k=1))
        with pytest.raises(ValueError, match="rows"):
            mrmr_select(matrix[:1], names, label[:1], MrmrConfig(k=1))


class TestRankingIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ranking.txt"
        write_ranking(["b.x.none", "a.y.single_ls"], path)
        assert read_ranking(path) == ["b.x.none", "a.y.single_ls"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ranking.txt"
        path.write_text("one\n\ntwo\n   \n")
        assert read_ranking(path) == ["one", "two"]
