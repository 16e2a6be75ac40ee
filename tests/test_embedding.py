"""Embedding extraction and weight-threshold dimension pruning."""

import numpy as np
import pytest

from graphfactor import extract_embeddings
from graphfactor.cpals import FactorModel
from graphfactor.embedding import dimension_weights, prune_dimensions


def model_from(a, b, c, scales):
    return FactorModel(
        A=np.asarray(a, dtype=float),
        B=np.asarray(b, dtype=float),
        C=np.asarray(c, dtype=float),
        column_scales=np.asarray(scales, dtype=float),
    )


def unit_cols(rng, rows, rank):
    m = rng.standard_normal((rows, rank))
    return m / np.linalg.norm(m, axis=0)


class TestExtractEmbeddings:
    def test_source_a_is_scale_weighted_a(self):
        m = model_from(
            [[1.0, 2.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]], [2.0, 0.5],
        )
        emb = extract_embeddings(m, "A")
        assert np.array_equal(emb, [[2.0, 1.0], [6.0, 2.0]])

    def test_source_b_is_scale_weighted_b(self):
        m = model_from(
            [[1.0, 0.0]], [[1.0, 2.0], [3.0, 4.0]], [[1.0, 1.0]], [3.0, 1.0],
        )
        emb = extract_embeddings(m, "B")
        assert np.array_equal(emb, [[3.0, 2.0], [9.0, 4.0]])

    def test_concat_doubles_dim(self):
        rng = np.random.default_rng(0)
        m = model_from(rng.random((4, 2)), rng.random((4, 2)), rng.random((2, 2)), [1.0, 1.0])
        emb = extract_embeddings(m, "A-concat-B")
        assert emb.shape[1] == 4
        assert np.array_equal(emb[:, :2], extract_embeddings(m, "A"))
        assert np.array_equal(emb[:, 2:], extract_embeddings(m, "B"))

    def test_one_node_model(self):
        m = model_from([[5.0]], [[1.0]], [[1.0], [2.0]], [1.0])
        emb = extract_embeddings(m)
        assert emb.shape == (1, 1)

    def test_unknown_source_rejected(self):
        m = model_from([[1.0]], [[1.0]], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            extract_embeddings(m, "Z")


class TestDimensionWeights:
    def test_max_over_views_with_scales(self):
        m = model_from(
            np.eye(2), np.eye(2), [[0.5, 0.05], [0.4, 0.01]], [1.0, 1.0],
        )
        assert np.allclose(dimension_weights(m), [0.5, 0.05])

    def test_invariant_to_scale_representation(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((4, 3))
        c = rng.standard_normal((2, 3))
        scales = rng.random(3) + 0.5
        m1 = model_from(a, b, c, scales)
        # double one node-factor column, halve its scale: same reconstruction
        a2 = a.copy()
        a2[:, 1] *= 2.0
        s2 = scales.copy()
        s2[1] /= 2.0
        m2 = model_from(a2, b, c, s2)
        assert np.allclose(dimension_weights(m1), dimension_weights(m2), atol=1e-12)


class TestPruneDimensions:
    def test_threshold_rule_hand_example(self):
        rng = np.random.default_rng(2)
        m = model_from(
            unit_cols(rng, 4, 2), unit_cols(rng, 4, 2),
            [[0.5, 0.05], [0.4, 0.01]], [1.0, 1.0],
        )
        emb = extract_embeddings(m)
        pruned, removed = prune_dimensions(emb, m, 0.12)
        assert removed == [1]
        assert pruned.shape[1] == 1
        assert np.array_equal(pruned, emb[:, [0]])

    def test_threshold_zero_removes_nothing(self):
        rng = np.random.default_rng(3)
        m = model_from(unit_cols(rng, 4, 3), unit_cols(rng, 4, 3), rng.random((2, 3)), np.ones(3))
        emb = extract_embeddings(m)
        pruned, removed = prune_dimensions(emb, m, 0.0)
        assert removed == []
        assert pruned is emb

    def test_all_removed_is_an_error(self):
        rng = np.random.default_rng(4)
        m = model_from(unit_cols(rng, 4, 2), unit_cols(rng, 4, 2), [[0.01, 0.02], [0.01, 0.02]], np.ones(2))
        emb = extract_embeddings(m)
        with pytest.raises(ValueError):
            prune_dimensions(emb, m, 0.5)

    def test_already_pruned_embedding_rejected(self):
        rng = np.random.default_rng(5)
        m = model_from(
            unit_cols(rng, 5, 3), unit_cols(rng, 5, 3),
            [[0.8, 0.05, 0.6], [0.7, 0.02, 0.5]], np.ones(3),
        )
        once, removed = prune_dimensions(extract_embeddings(m), m, 0.12)
        assert removed == [1]
        with pytest.raises(ValueError, match="dim 2 is not a multiple of model rank 3"):
            prune_dimensions(once, m, 0.12)

    @pytest.mark.parametrize("width", [1, 2, 4, 5, 7])
    def test_width_not_a_multiple_of_rank_rejected(self, width):
        rng = np.random.default_rng(10)
        m = model_from(
            unit_cols(rng, 5, 3), unit_cols(rng, 5, 3),
            [[0.8, 0.05, 0.6], [0.7, 0.02, 0.5]], np.ones(3),
        )
        emb = rng.standard_normal((5, width))
        with pytest.raises(ValueError, match="not a multiple of model rank 3"):
            prune_dimensions(emb, m, 0.12)

    def test_concat_prunes_the_component_in_both_copies(self):
        rng = np.random.default_rng(11)
        m = model_from(
            unit_cols(rng, 6, 4), unit_cols(rng, 6, 4),
            [[0.9, 0.05, 0.4, 0.01], [0.8, 0.03, 0.3, 0.02]], rng.random(4) + 0.5,
        )
        pruned_a, removed_a = prune_dimensions(extract_embeddings(m, "A"), m, 0.12)
        pruned_b, removed_b = prune_dimensions(extract_embeddings(m, "B"), m, 0.12)
        pruned, removed = prune_dimensions(extract_embeddings(m, "A-concat-B"), m, 0.12)
        assert removed_a == removed_b == [1, 3]
        assert removed == [1, 3, 5, 7]
        assert np.array_equal(pruned, np.hstack([pruned_a, pruned_b]))
        assert pruned.flags.c_contiguous

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        c = rng.random((2, 6))
        m = model_from(unit_cols(rng, 5, 6), unit_cols(rng, 5, 6), c, np.ones(6))
        emb = extract_embeddings(m)
        weights = dimension_weights(m)
        thresholds = sorted(weights)[:-1]  # keep at least one dimension
        previous: set = set()
        for t in thresholds:
            _, removed = prune_dimensions(emb, m, t + 1e-12)
            assert previous.issubset(set(removed))
            previous = set(removed)

    def test_commutes_with_column_selection(self):
        rng = np.random.default_rng(7)
        m = model_from(
            unit_cols(rng, 6, 4), unit_cols(rng, 6, 4),
            [[0.9, 0.05, 0.4, 0.01], [0.8, 0.03, 0.3, 0.02]], np.ones(4),
        )
        emb = extract_embeddings(m, "A")
        pruned, removed = prune_dimensions(emb, m, 0.12)
        kept = [r for r in range(4) if r not in removed]
        direct = (m.A * m.column_scales)[:, kept]
        assert np.array_equal(pruned, direct)

    def test_mismatched_embedding_rejected(self):
        rng = np.random.default_rng(8)
        m = model_from(unit_cols(rng, 4, 3), unit_cols(rng, 4, 3), rng.random((2, 3)) + 0.5, np.ones(3))
        emb = extract_embeddings(m)
        bad = emb[:, :2]  # dim 2 vs rank 3, nothing sub-threshold
        with pytest.raises(ValueError):
            prune_dimensions(bad, m, 0.12)

    def test_negative_threshold_rejected(self):
        rng = np.random.default_rng(9)
        m = model_from(unit_cols(rng, 4, 2), unit_cols(rng, 4, 2), rng.random((2, 2)), np.ones(2))
        for bad in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                prune_dimensions(extract_embeddings(m), m, bad)
