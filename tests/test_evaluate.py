"""Classifier training, prediction protocols, F1 metrics, split protocol."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfactor.evaluate as evaluate_module
from graphfactor import EvalConfig
from graphfactor._blas import openblas_thread_controls
from graphfactor.evaluate import (
    OvrClassifier,
    _logistic_objective,
    evaluate,
    macro_f1,
    micro_f1,
    predict,
    stratified_split,
    train_ovr,
)

from oracles import (
    oracle_logistic_newton,
    oracle_macro_f1,
    oracle_micro_f1,
    oracle_stratified_split,
    oracle_top_k,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)


def labelset(assignments, num_labels=None):
    """Boolean node-by-label matrix whose row i marks the labels of assignments[i]."""
    sets = [sorted(s) for s in assignments]
    if num_labels is None:
        num_labels = max((s[-1] for s in sets if s), default=-1) + 1
    labels = np.zeros((len(sets), num_labels), dtype=bool)
    for node, held in enumerate(sets):
        labels[node, held] = True
    return labels


def emb_of(rows):
    return np.asarray(rows, dtype=float)


def picked_sets(picked):
    """The label sets a boolean row-by-label prediction holds, row by row."""
    return [set(np.flatnonzero(row).tolist()) for row in picked]


class TestTrainOvr:
    def test_separable_toy_reaches_perfect_training_accuracy(self):
        emb = emb_of([[1.0, 0.0], [1.2, 0.0], [-1.0, 0.0], [-0.8, 0.0]])
        labels = labelset([{0}, {0}, {1}, {1}])
        clf = train_ovr(emb, labels, [0, 1, 2, 3])
        assert picked_sets(predict(clf, emb, 1)) == [{0}, {0}, {1}, {1}]

    def test_train_node_past_the_label_set_rejected(self):
        emb = emb_of([[1.0], [2.0], [3.0]])
        labels = labelset([{0}, {1}])
        with pytest.raises(ValueError, match="outside the label set"):
            train_ovr(emb, labels, [0, 2])

    def test_identical_embeddings_hit_entropy_bound(self):
        emb = emb_of([[0.5, 0.5]] * 10)
        labels = labelset([{0}] * 7 + [{1}] * 3)
        clf = train_ovr(emb, labels, list(range(10)))
        p = 0.7
        bound = 10 * (-p * np.log(p) - (1 - p) * np.log(1 - p))
        y = np.array([1.0] * 7 + [-1.0] * 3)
        loss = _logistic_objective(np.append(clf.weights[0], clf.biases[0]), emb, y, 1.0)[0]
        assert loss == pytest.approx(bound, abs=1e-6)

    def test_matches_newton_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 3))
        y = np.where(x @ np.array([1.0, -2.0, 0.5]) + 0.3 + rng.standard_normal(30) > 0, 1.0, -1.0)
        emb = emb_of(x)
        labels = labelset([{0} if v > 0 else {1} for v in y])
        clf = train_ovr(emb, labels, list(range(30)), l2_strength=1.0)
        w_ref, b_ref = oracle_logistic_newton(x, y, 1.0)
        assert np.abs(clf.weights[0] - w_ref).max() <= 1e-4
        assert abs(clf.biases[0] - b_ref) <= 1e-4

    def test_never_worse_than_zero_weights(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((25, 4))
        emb = emb_of(x)
        labels = labelset([{int(v)} for v in rng.integers(0, 3, 25)])
        clf = train_ovr(emb, labels, list(range(25)))
        for label in range(3):
            y = np.where(labels[:, label], 1.0, -1.0)
            fitted_params = np.append(clf.weights[label], clf.biases[label])
            fitted = _logistic_objective(fitted_params, x, y, 1.0)[0]
            at_zero = _logistic_objective(np.zeros(5), x, y, 1.0)[0]
            assert fitted <= at_zero + 1e-9

    def test_zero_positive_label_flagged_not_error(self):
        emb = emb_of([[1.0], [2.0], [3.0]])
        labels = labelset([{0}, {0}, {1}], num_labels=3)
        clf = train_ovr(emb, labels, [0, 1, 2])
        assert clf.degenerate_labels == (2,)
        # the degenerate label is never predicted
        assert not predict(clf, emb, 1)[:, 2].any()

    def test_preconditions(self):
        emb = emb_of([[1.0], [2.0]])
        labels = labelset([{0}, set()], num_labels=1)
        with pytest.raises(ValueError):
            train_ovr(emb, labels, [])
        with pytest.raises(ValueError):
            train_ovr(emb, labels, [1])  # unlabeled train node
        with pytest.raises(ValueError):
            train_ovr(emb, labels, [5])  # out of range
        with pytest.raises(ValueError):
            train_ovr(emb, labels, [0], l2_strength=0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        emb = emb_of(rng.standard_normal((20, 3)))
        labels = labelset([{int(v)} for v in rng.integers(0, 2, 20)])
        c1 = train_ovr(emb, labels, list(range(20)))
        c2 = train_ovr(emb, labels, list(range(20)))
        assert np.array_equal(c1.weights, c2.weights)
        assert np.array_equal(c1.biases, c2.biases)


class TestPredict:
    def clf_with_scores(self, scores):
        """Classifier whose per-label score for the all-ones 1-d embedding
        equals the given vector (weights zero, biases = scores)."""
        scores = np.asarray(scores, dtype=float)
        return OvrClassifier(
            num_labels=scores.size,
            weights=np.zeros((scores.size, 1)),
            biases=scores,
        )

    def test_single_label_argmax(self):
        clf = self.clf_with_scores([0.1, 0.9, 0.4])
        assert picked_sets(predict(clf, np.ones((1, 1)), 1)) == [{1}]

    def test_tie_goes_to_lowest_label(self):
        clf = self.clf_with_scores([0.5, 0.5])
        assert picked_sets(predict(clf, np.ones((1, 1)), 1)) == [{0}]

    def test_topk_size_and_content(self):
        clf = self.clf_with_scores([0.3, 0.9, 0.5, 0.1])
        assert picked_sets(predict(clf, np.ones((1, 1)), 2)) == [{1, 2}]

    def test_topk_ties_prefer_lower_ids(self):
        clf = self.clf_with_scores([0.5, 0.5, 0.5])
        assert picked_sets(predict(clf, np.ones((1, 1)), 2)) == [{0, 1}]

    def test_one_k_per_row(self):
        clf = OvrClassifier(
            num_labels=3, weights=np.array([[1.0], [-1.0], [0.0]]), biases=np.zeros(3)
        )
        rows = np.array([[1.0], [-1.0], [0.0]])
        got = predict(clf, rows, np.array([1, 2, 3]))
        assert got.shape == (3, 3)
        assert picked_sets(got) == [{0}, {1, 2}, {0, 1, 2}]

    def test_k_validation(self):
        clf = self.clf_with_scores([0.5, 0.5])
        rows = np.ones((2, 1))
        with pytest.raises(ValueError):
            predict(clf, rows, 0)
        with pytest.raises(ValueError):
            predict(clf, rows, 3)
        with pytest.raises(ValueError):
            predict(clf, rows, np.array([1, 0]))

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_matches_per_row_oracle(self, data):
        num_labels = data.draw(st.integers(1, 6))
        num_rows = data.draw(st.integers(1, 8))
        values = st.sampled_from([-1.5, 0.0, 0.25, 2.0])
        scores = np.array(
            data.draw(st.lists(st.lists(values, min_size=num_labels, max_size=num_labels),
                               min_size=num_rows, max_size=num_rows))
        )
        degenerate = sorted(data.draw(st.sets(st.integers(0, num_labels - 1))))
        k = np.array(data.draw(st.lists(st.integers(1, num_labels),
                                        min_size=num_rows, max_size=num_rows)))
        # identity weights: each row's scores are the row itself
        clf = OvrClassifier(num_labels=num_labels, weights=np.eye(num_labels),
                            biases=np.zeros(num_labels), degenerate_labels=tuple(degenerate))
        masked = scores.copy()
        masked[:, degenerate] = -np.inf
        want = [set(oracle_top_k(row, int(kr))) for row, kr in zip(masked, k)]
        assert picked_sets(predict(clf, scores, k)) == want


class TestF1Metrics:
    def test_perfect_predictions(self):
        truth = [{0}, {1}, {2}]
        assert micro_f1(truth, truth) == 1.0
        assert macro_f1(truth, truth) == 1.0

    def test_all_wrong_swap(self):
        truth = [{0}, {1}]
        predicted = [{1}, {0}]
        assert micro_f1(predicted, truth) == 0.0
        assert macro_f1(predicted, truth) == 0.0

    def test_hand_pooled_three_label_case(self):
        # per-label (TP, FP, FN): a=(2,1,1), b=(1,0,2), c=(0,1,0)
        truth = [{0}, {0}, {0}, {1}, {1}, {1}]
        predicted = [{0}, {0}, {2}, {1}, {0}, set()]
        assert micro_f1(predicted, truth) == pytest.approx(6 / 11)
        assert macro_f1(predicted, truth, num_labels=3) == pytest.approx(
            (2 / 3 + 1 / 2 + 0.0) / 3
        )

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            n_labels = int(rng.integers(2, 5))
            truth = [set(rng.choice(n_labels, rng.integers(1, n_labels), replace=False).tolist()) for _ in range(n)]
            predicted = [set(rng.choice(n_labels, rng.integers(0, n_labels), replace=False).tolist()) for _ in range(n)]
            labels = range(n_labels)
            assert micro_f1(predicted, truth) == pytest.approx(
                oracle_micro_f1(predicted, truth, labels)
            )
            assert macro_f1(predicted, truth, num_labels=n_labels) == pytest.approx(
                oracle_macro_f1(predicted, truth, labels)
            )

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_match_oracles_exactly(self, data):
        # At most 7 labels: the oracle's np.mean adds pairwise from 8 terms up.
        num_labels = data.draw(st.integers(1, 7))
        one_set = st.sets(st.integers(0, num_labels - 1))
        truth = data.draw(st.lists(one_set, min_size=1, max_size=12))
        predicted = data.draw(st.lists(one_set, min_size=len(truth), max_size=len(truth)))
        universe = range(num_labels)
        assert micro_f1(predicted, truth) == oracle_micro_f1(predicted, truth, universe)
        assert macro_f1(predicted, truth, num_labels) == oracle_macro_f1(
            predicted, truth, universe
        )
        seen = sorted(set().union(*predicted, *truth))
        if seen:
            assert macro_f1(predicted, truth) == oracle_macro_f1(predicted, truth, seen)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        truth = [{0}, {1}, {0, 1}, {2}, {1}]
        predicted = [{0}, {0}, {1}, {2}, {1}]
        perm = rng.permutation(5)
        assert micro_f1(predicted, truth) == micro_f1(
            [predicted[i] for i in perm], [truth[i] for i in perm]
        )
        assert macro_f1(predicted, truth) == macro_f1(
            [predicted[i] for i in perm], [truth[i] for i in perm]
        )

    def test_single_label_micro_equals_accuracy(self):
        rng = np.random.default_rng(5)
        truth = [{int(v)} for v in rng.integers(0, 4, 30)]
        predicted = [{int(v)} for v in rng.integers(0, 4, 30)]
        accuracy = np.mean([p == t for p, t in zip(predicted, truth)])
        assert micro_f1(predicted, truth) == pytest.approx(accuracy)

    def test_macro_zero_convention_for_absent_labels(self):
        truth = [{0}, {0}]
        predicted = [{0}, {0}]
        # label 1 exists in the universe but never appears: contributes 0
        assert macro_f1(predicted, truth, num_labels=2) == pytest.approx(0.5)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            micro_f1([], [])
        with pytest.raises(ValueError):
            macro_f1([], [])
        with pytest.raises(ValueError):
            micro_f1([{0}], [])


class TestStratifiedSplit:
    def test_fraction_respected_per_group(self):
        labels = labelset([{0}] * 10 + [{1}] * 10)
        rng = np.random.default_rng(0)
        train, test = stratified_split(labels, 0.5, rng)
        train_set = set(train)
        assert len([v for v in train_set if v < 10]) == 5
        assert len([v for v in train_set if v >= 10]) == 5
        assert sorted(train + test) == list(range(20))

    def test_multi_label_signature_grouping(self):
        labels = labelset([{0, 1}] * 4 + [{0}] * 4)
        train, test = stratified_split(labels, 0.5, np.random.default_rng(1))
        both = [v for v in train if v < 4]
        assert len(both) == 2  # exactly half of the {0,1} stratum

    def test_unlabeled_nodes_excluded(self):
        labels = labelset([{0}, set(), {0}, {1}, {1}], num_labels=2)
        train, test = stratified_split(labels, 0.5, np.random.default_rng(2))
        assert 1 not in train + test

    def test_tiny_groups_warn_but_split_stays_valid(self):
        labels = labelset([{0}] * 8 + [{1}])
        with pytest.warns(UserWarning):
            train, test = stratified_split(labels, 0.3, np.random.default_rng(3))
        assert train and test
        assert sorted(train + test) == list(range(9))

    def test_nonempty_sides_guaranteed(self):
        labels = labelset([{0}, {0}])
        with pytest.warns(UserWarning):
            train, test = stratified_split(labels, 0.01, np.random.default_rng(4))
        assert train and test

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_matches_set_based_oracle(self, data):
        # Nodes pick from a small pool of sets over 3 labels, so cases hold
        # multi-label, unlabeled, single-node and nested strata ({0}, {0, 1}).
        pool = data.draw(st.lists(st.frozensets(st.integers(0, 2)), min_size=1, max_size=5))
        sets = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
        fraction = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        seed = data.draw(st.integers(0, 2**32 - 1))
        outcomes = []
        for split, labels in ((oracle_stratified_split, sets),
                              (stratified_split, labelset(sets, num_labels=3))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    outcome = split(labels, fraction, np.random.default_rng(seed))
                except ValueError as exc:
                    outcome = str(exc)
            outcomes.append((outcome, [str(w.message) for w in caught]))
        assert outcomes[0] == outcomes[1]


class TestEvaluate:
    def one_hot_setup(self, per_class=10, classes=3):
        rows = np.repeat(np.eye(classes), per_class, axis=0)
        labels = labelset([{c} for c in range(classes) for _ in range(per_class)])
        return emb_of(rows), labels

    def test_same_seed_identical_reports(self):
        emb, labels = self.one_hot_setup()
        r1 = evaluate(emb, labels, EvalConfig(0.5, repeats=10, seed=3))
        r2 = evaluate(emb, labels, EvalConfig(0.5, repeats=10, seed=3))
        assert r1.to_dict() == r2.to_dict()
        # different seeds must draw different splits (scores here are all 1.0
        # because the toy is perfectly separable, so compare the splits)
        split_a = stratified_split(labels, 0.5, np.random.default_rng([3, 0]))
        split_b = stratified_split(labels, 0.5, np.random.default_rng([4, 0]))
        assert split_a != split_b

    def test_perfectly_embeddable_toy_scores_one(self):
        emb, labels = self.one_hot_setup()
        report = evaluate(emb, labels, EvalConfig(0.9, repeats=3, seed=0))
        assert report.micro_f1_mean == pytest.approx(1.0)
        assert report.macro_f1_mean == pytest.approx(1.0)

    def test_report_shape_and_ranges(self):
        rng = np.random.default_rng(6)
        emb = emb_of(rng.standard_normal((40, 4)))
        labels = labelset([{int(v)} for v in rng.integers(0, 3, 40)])
        report = evaluate(emb, labels, EvalConfig(0.5, repeats=7, seed=1))
        assert report.config.repeats == 7
        assert len(report.per_repeat_micro) == 7
        assert len(report.per_repeat_macro) == 7
        assert all(0.0 <= v <= 1.0 for v in report.per_repeat_micro)
        assert all(0.0 <= v <= 1.0 for v in report.per_repeat_macro)
        assert report.micro_f1_mean == pytest.approx(np.mean(report.per_repeat_micro))
        assert report.micro_f1_std == pytest.approx(np.std(report.per_repeat_micro))

    def test_multi_label_nodes_use_topk_protocol(self):
        # two-label nodes must receive exactly two predicted labels
        rows = np.vstack([np.eye(2)] * 6 + [[1.0, 1.0]] * 6)
        labels = labelset([{0}, {1}] * 6 + [{0, 1}] * 6)
        report = evaluate(emb_of(rows), labels, EvalConfig(0.5, repeats=2, seed=0))
        assert report.micro_f1_mean > 0.8

    def test_parameter_validation(self):
        emb, labels = self.one_hot_setup(per_class=2)
        with pytest.raises(ValueError):
            EvalConfig(0.0, repeats=1)
        with pytest.raises(ValueError):
            EvalConfig(1.0, repeats=1)
        for bad in ({"repeats": 0}, {"repeats": 2.5}, {"repeats": 1, "seed": -1}):
            with pytest.raises(ValueError):
                EvalConfig(0.5, **bad)
        evaluate(emb, labels, EvalConfig(0.5, repeats=np.int64(1), seed=np.int32(1)))
        short = labelset([{0}], num_labels=1)
        with pytest.raises(ValueError):
            evaluate(emb, short, EvalConfig(0.5, repeats=1))

    def test_labels_beyond_embedding_rejected(self):
        emb = emb_of(np.eye(2))
        labels = labelset([{0}, {0}, {1}])
        with pytest.raises(ValueError):
            evaluate(emb, labels, EvalConfig(0.5, repeats=1))

    def test_runs_on_one_blas_thread_and_restores(self, monkeypatch):
        controls = openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded to pin")
        original = [get() for get, _ in controls]
        emb, labels = self.one_hot_setup()
        seen = []
        real_train = evaluate_module.train_ovr

        def train(*args):
            seen.append([get() for get, _ in controls])
            return real_train(*args)

        def explode(*args):
            raise RuntimeError("boom")

        try:
            for _, set_ in controls:
                set_(2)
            before = [get() for get, _ in controls]
            monkeypatch.setattr(evaluate_module, "train_ovr", train)
            evaluate(emb, labels, EvalConfig(0.5, repeats=3, seed=0))
            assert seen == [[1] * len(controls)] * 3
            assert [get() for get, _ in controls] == before
            monkeypatch.setattr(evaluate_module, "train_ovr", explode)
            with pytest.raises(RuntimeError, match="boom"):
                evaluate(emb, labels, EvalConfig(0.5, repeats=3, seed=0))
            assert [get() for get, _ in controls] == before
        finally:
            for (_, set_), count in zip(controls, original):
                set_(count)
