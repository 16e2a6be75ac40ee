"""Tests for the view-weight table, pruning report, and correlations."""

import numpy as np
import pytest

from graphfactor import (
    AlsConfig,
    EvalConfig,
    FactorModel,
    LabelSet,
    Tensor3,
    decompose,
    dimension_correlation,
    evaluate,
    extract_embeddings,
    pruning_report,
    view_weights,
    write_weights_csv,
)


def make_model(a, b, c, scales):
    return FactorModel(
        A=np.asarray(a, dtype=float),
        B=np.asarray(b, dtype=float),
        C=np.asarray(c, dtype=float),
        column_scales=np.asarray(scales, dtype=float),
    )


def emb_of(rows):
    return np.asarray(rows, dtype=float)


def labelset(sets):
    return LabelSet(
        num_nodes=len(sets),
        num_labels=max((max(s) for s in sets if s), default=-1) + 1,
        assignments=tuple(frozenset(s) for s in sets),
    )


class TestViewWeights:
    def test_hand_example_on_canonical_model(self):
        # node factors already unit-norm, so weights are just |C * scales|
        model = make_model(
            a=[[1.0, 0.0], [0.0, 1.0]],
            b=[[0.0, 1.0], [1.0, 0.0]],
            c=[[0.5, -0.05], [0.4, 0.01]],
            scales=[1.0, 1.0],
        )
        weights = view_weights(model)
        assert weights.shape == (2, 2)
        np.testing.assert_allclose(weights, [[0.5, 0.05], [0.4, 0.01]])

    def test_invariant_to_scale_representation(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 3))
        b = rng.random((5, 3))
        c = rng.random((2, 3))
        base = make_model(a, b, c, [1.0, 1.0, 1.0])
        # push magnitude into the node factors; same reconstruction
        alpha = np.array([2.0, 0.5, 3.0])
        beta = np.array([4.0, 1.0, 0.25])
        rescaled = make_model(a * alpha, b * beta, c, 1.0 / (alpha * beta))
        np.testing.assert_allclose(
            view_weights(base), view_weights(rescaled), rtol=1e-12
        )

    def test_zero_view_gets_negligible_weight(self):
        # slice 1 is all zeros, so its weights must be tiny after fitting
        rng = np.random.default_rng(3)
        slice0 = (rng.random((12, 2)) @ rng.random((2, 12))).round(1)
        dense = np.stack([slice0, np.zeros_like(slice0)], axis=2)
        x = Tensor3.from_dense(dense)
        model = decompose(x, AlsConfig(rank=2, max_iters=200, tol=1e-10, seed=0))
        w = view_weights(model)
        assert w[1].max() <= 1e-6 * w[0].max()

    def test_csv_format(self, tmp_path):
        model = make_model(
            a=np.eye(3), b=np.eye(3), c=[[0.5, 0.25, 0.125], [1.0, 2.0, 4.0]],
            scales=[1.0, 1.0, 1.0],
        )
        path = tmp_path / "weights.csv"
        write_weights_csv(view_weights(model), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dimension,view_0,view_1"
        assert lines[1] == "0,0.5,1.0"
        assert lines[2] == "1,0.25,2.0"
        assert lines[3] == "2,0.125,4.0"
        assert len(lines) == 4


class TestDimensionCorrelation:
    def test_duplicated_column_correlates_one(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(30)
        other = rng.standard_normal(30)
        emb = emb_of(np.column_stack([col, other, col * 2.0 + 1.0]))
        corr = dimension_correlation(emb, [2])
        assert corr[2] == pytest.approx(1.0)

    def test_independent_noise_correlates_weakly(self):
        rng = np.random.default_rng(2)
        emb = emb_of(rng.standard_normal((2000, 3)))
        corr = dimension_correlation(emb, [0])
        assert corr[0] < 0.1

    def test_constant_column_correlates_zero(self):
        emb = emb_of(np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0) ** 2]))
        corr = dimension_correlation(emb, [0])
        assert corr[0] == 0.0

    def test_bounded_by_one(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal(50)
        emb = emb_of(np.column_stack([base, base, base]))
        corr = dimension_correlation(emb, [0])
        assert corr[0] <= 1.0

    def test_preconditions(self):
        emb = emb_of(np.ones((5, 3)))
        with pytest.raises(ValueError):
            dimension_correlation(emb, [5])
        with pytest.raises(ValueError):
            dimension_correlation(emb, [0, 1])  # only one survivor
        with pytest.raises(ValueError):
            dimension_correlation(emb_of(np.ones((2, 4))), [0])  # too few nodes


class TestPruningReport:
    def fitted_setup(self):
        # two informative dimensions plus one tiny-weight dimension
        rng = np.random.default_rng(5)
        a = np.column_stack([
            np.repeat([1.0, 0.0], 15) + 0.05 * rng.random(30),
            np.repeat([0.0, 1.0], 15) + 0.05 * rng.random(30),
            rng.random(30),
        ])
        model = make_model(
            a=a / np.linalg.norm(a, axis=0),
            b=rng.random((30, 3)),
            c=[[1.0, 1.0, 0.001], [1.0, 1.0, 0.001]],
            scales=[1.0, 1.0, 1.0],
        )
        emb = extract_embeddings(model, source="A")
        labels = labelset([{0}] * 15 + [{1}] * 15)
        return model, emb, labels

    def test_before_matches_standalone_evaluate(self):
        model, emb, labels = self.fitted_setup()
        report = pruning_report(model, emb, labels, threshold=0.5)
        standalone = evaluate(emb, labels, EvalConfig(train_fraction=0.5, repeats=10, seed=0))
        assert report["evaluation_before"] == standalone.to_dict()
        assert report["micro_f1_before"] == pytest.approx(standalone.micro_f1_mean)

    def test_removal_bookkeeping(self):
        model, emb, labels = self.fitted_setup()
        report = pruning_report(model, emb, labels, threshold=0.5)
        assert report["removed_dimensions"] == [2]
        assert report["dims_before"] == 3
        assert report["dims_after"] == 2
        assert report["micro_f1_delta"] == pytest.approx(
            report["micro_f1_after"] - report["micro_f1_before"]
        )
        corr_dims = [c["dimension"] for c in report["removed_dimension_correlations"]]
        assert corr_dims == [2]
        assert 0.0 <= report["removed_dimension_correlations"][0]["max_abs_pearson"] <= 1.0

    def test_zero_threshold_removes_nothing(self):
        model, emb, labels = self.fitted_setup()
        report = pruning_report(model, emb, labels, threshold=0.0)
        assert report["removed_dimensions"] == []
        assert report["dims_after"] == report["dims_before"]
        assert report["evaluation_after"] == report["evaluation_before"]
        assert report["micro_f1_delta"] == 0.0
        assert report["removed_dimension_correlations"] == []

    def test_eval_config_echoed_and_validated(self):
        model, emb, labels = self.fitted_setup()
        report = pruning_report(
            model, emb, labels, threshold=0.0,
            eval_config=EvalConfig(repeats=3, seed=7),
        )
        assert report["eval_config"] == {
            "train_fraction": 0.5, "repeats": 3, "seed": 7, "l2_strength": 1.0,
        }
        with pytest.raises(TypeError, match="folds"):
            pruning_report(model, emb, labels, 0.0, eval_config=EvalConfig(folds=5))

    def test_given_before_report_replaces_the_first_evaluation(self):
        model, emb, labels = self.fitted_setup()
        before = evaluate(emb, labels, EvalConfig(train_fraction=0.5, repeats=10, seed=0))
        reused = pruning_report(model, emb, labels, threshold=0.5, before=before)
        assert reused == pruning_report(model, emb, labels, threshold=0.5)
        with pytest.raises(ValueError, match="train fraction 0.3"):
            pruning_report(model, emb, labels, threshold=0.5, before=evaluate(
                emb, labels, EvalConfig(train_fraction=0.3, repeats=10, seed=0)))
        with pytest.raises(ValueError, match="10 repeats"):
            pruning_report(model, emb, labels, threshold=0.5,
                           eval_config=EvalConfig(repeats=3), before=before)

    def test_before_under_another_seed_or_l2_strength_rejected(self):
        # a report scored under seed 1 must not be passed off as seed 0's
        model, emb, labels = self.fitted_setup()
        for other in (EvalConfig(seed=1), EvalConfig(l2_strength=2.0)):
            before = evaluate(emb, labels, other)
            with pytest.raises(ValueError, match="does not match EvalConfig"):
                pruning_report(model, emb, labels, threshold=0.5, before=before)

    def test_pruning_everything_is_an_error(self):
        model, emb, labels = self.fitted_setup()
        with pytest.raises(ValueError):
            pruning_report(model, emb, labels, threshold=1e9)
