"""View stacking, sparse MTTKRP, reconstruction, and the fit measure."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphfactor import build_knn_view, stack_views
from graphfactor.cpals import FactorModel
from graphfactor.dataio import Graph
from graphfactor.tensor import (
    Tensor3,
    fit_from_view_mttkrp,
    mttkrp,
    mttkrp_from_products,
    reconstruct_view,
    slice_products,
)

from oracles import khatri_rao, matricize, oracle_fit, oracle_mttkrp, oracle_reconstruct

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)


def random_model(rng, dims, rank):
    return FactorModel(
        A=rng.standard_normal((dims[0], rank)),
        B=rng.standard_normal((dims[1], rank)),
        C=rng.standard_normal((dims[2], rank)),
        column_scales=rng.random(rank) + 0.5,
    )


# Half-integers in [-3, 3]: the products and sums of a few of them are exact
# in float64, so the kernels and the oracles get equal sums in any order.
HALVES = st.integers(-6, 6).map(lambda v: v / 2)


@st.composite
def cp_cases(draw):
    """A dense tensor and a model of its shape: (dense, A, B, C, scales).

    Each mode has 1 to 4 entries and the rank runs to 5, so most draws
    have a rank above some dimension. One slice along a drawn mode is all
    zero, and about half of the other entries are.
    """
    dims = draw(st.tuples(*[st.integers(1, 4)] * 3))
    rank = draw(st.integers(1, 5))
    dense = draw(hnp.arrays(np.float64, dims, elements=st.one_of(st.just(0.0), HALVES)))
    zero_mode = draw(st.integers(0, 2))
    np.moveaxis(dense, zero_mode, 0)[draw(st.integers(0, dims[zero_mode] - 1))] = 0.0
    a, b, c = (draw(hnp.arrays(np.float64, (n, rank), elements=HALVES)) for n in dims)
    scales = draw(hnp.arrays(np.float64, rank, elements=st.integers(1, 6).map(lambda v: v / 2)))
    return dense, a, b, c, scales


# A 1 x 3 x 2 tensor at rank 4 whose second view is all zero.
SMALL_CASE = (
    np.array([[[1.0, 0.0], [0.0, 0.0], [-2.5, 0.0]]]),
    np.array([[1.0, -0.5, 2.0, 0.0]]),
    np.arange(12.0).reshape(3, 4) / 2 - 2,
    np.array([[0.5, 1.0, -1.0, 3.0], [2.0, 0.0, 1.5, -0.5]]),
    np.array([1.0, 0.5, 2.0, 1.5]),
)


class TestStackViews:
    def test_two_view_stack(self):
        g = Graph(num_nodes=4, edges=frozenset({(0, 1), (2, 3)}))
        f = sp.csr_matrix(np.eye(4)[:, :2] + 1.0)
        knn = build_knn_view(f, k=2)
        x = stack_views(g, knn)
        assert x.dims == (4, 4, 2)
        assert np.array_equal(x.slices[0].toarray(), g.to_csr().toarray())
        assert np.array_equal(x.slices[1].toarray(), knn.to_csr().toarray())
        assert x.nnz == g.to_csr().nnz + knn.to_csr().nnz  # nnz is additive

    def test_single_view_stack(self):
        g = Graph(num_nodes=3, edges=frozenset({(0, 1)}))
        x = stack_views(g, None)
        assert x.dims == (3, 3, 1)

    def test_sparse_matrix_accepted_for_second_view(self):
        g = Graph(num_nodes=3, edges=frozenset({(0, 2)}))
        z = sp.csr_matrix(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float))
        x = stack_views(g, z)
        assert np.array_equal(x.slices[1].toarray(), z.toarray())

    def test_smaller_view_padded_and_non_square_view_rejected(self):
        g = Graph(num_nodes=3, edges=frozenset({(0, 1)}))
        x = stack_views(g, sp.csr_matrix((4, 4)))
        assert x.dims == (4, 4, 2)
        with pytest.raises(ValueError):
            stack_views(g, sp.csr_matrix((4, 3)))

    def test_from_slices_validation(self):
        with pytest.raises(ValueError):
            Tensor3.from_slices([])
        with pytest.raises(ValueError):
            Tensor3.from_slices([sp.eye(2), sp.eye(3)])


class TestMttkrp:
    def test_matches_triple_loop_oracle(self):
        for case in range(30):
            rng = np.random.default_rng(case)
            dims = tuple(int(v) for v in rng.integers(2, high=(8, 8, 3), endpoint=True))
            rank = int(rng.integers(1, 4, endpoint=True))
            dense = rng.random(dims) * (rng.random(dims) < 0.5)
            x = Tensor3.from_dense(dense)
            shapes = {0: (dims[1], dims[2]), 1: (dims[0], dims[2]), 2: (dims[0], dims[1])}
            for mode in (0, 1, 2):
                f1 = rng.standard_normal((shapes[mode][0], rank))
                f2 = rng.standard_normal((shapes[mode][1], rank))
                got = mttkrp(x, f1, f2, mode)
                assert np.abs(got - oracle_mttkrp(dense, f1, f2, mode)).max() <= 1e-10

    @PROPERTY_SETTINGS
    @given(case=cp_cases())
    @example(case=SMALL_CASE)
    def test_every_mode_matches_oracle(self, case):
        dense, a, b, c, _ = case
        x = Tensor3.from_dense(dense)
        for mode, (f1, f2) in enumerate([(b, c), (a, c), (a, b)]):
            np.testing.assert_allclose(
                mttkrp(x, f1, f2, mode), oracle_mttkrp(dense, f1, f2, mode), rtol=0, atol=1e-12
            )

    @PROPERTY_SETTINGS
    @given(case=cp_cases())
    @example(case=SMALL_CASE)
    def test_slice_products_give_mode1_and_view_mode(self, case):
        dense, a, b, c, _ = case
        products = slice_products(Tensor3.from_dense(dense), a)
        for mode, f2 in ((1, c), (2, b)):
            np.testing.assert_allclose(
                mttkrp_from_products(products, f2, mode), oracle_mttkrp(dense, a, f2, mode),
                rtol=0, atol=1e-12,
            )

    def test_products_validation(self):
        x = Tensor3.from_dense(np.ones((3, 4, 2)))
        products = slice_products(x, np.ones((3, 2)))
        assert [p.shape for p in products] == [(4, 2), (4, 2)]
        with pytest.raises(ValueError):
            slice_products(x, np.ones((4, 2)))
        with pytest.raises(ValueError):
            mttkrp_from_products(products, np.ones((2, 2)), 0)
        with pytest.raises(ValueError):
            mttkrp_from_products(products, np.ones((3, 2)), 1)
        with pytest.raises(ValueError):
            mttkrp_from_products(products, np.ones((4, 3)), 2)

    def test_equals_unfolding_times_khatri_rao(self):
        rng = np.random.default_rng(77)
        dense = rng.random((5, 6, 2))
        x = Tensor3.from_dense(dense)
        f1 = rng.standard_normal((6, 3))
        f2 = rng.standard_normal((2, 3))
        want = matricize(dense, 0) @ khatri_rao(f2, f1)
        assert np.allclose(mttkrp(x, f1, f2, 0), want, atol=1e-12)

    def test_shape_and_mode_validation(self):
        x = Tensor3.from_dense(np.ones((3, 4, 2)))
        good1 = np.ones((4, 2))
        good2 = np.ones((2, 2))
        with pytest.raises(ValueError):
            mttkrp(x, good1, good2, 3)
        with pytest.raises(ValueError):
            mttkrp(x, np.ones((5, 2)), good2, 0)
        with pytest.raises(ValueError):
            mttkrp(x, good1, np.ones((2, 3)), 0)


class TestReconstructView:
    def test_rank1_hand_example(self):
        # A = B = [1; 1], C = [[2], [3]]: view 0 is the all-2s 2x2 matrix
        m = FactorModel(
            A=np.ones((2, 1)),
            B=np.ones((2, 1)),
            C=np.array([[2.0], [3.0]]),
            column_scales=np.ones(1),
        )
        assert np.array_equal(reconstruct_view(m, 0), np.full((2, 2), 2.0))
        assert np.array_equal(reconstruct_view(m, 1), np.full((2, 2), 3.0))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        m = random_model(rng, (5, 4, 3), rank=2)
        want = oracle_reconstruct(m.A, m.B, m.C, m.column_scales)
        for view in range(3):
            assert np.allclose(reconstruct_view(m, view), want[:, :, view], atol=1e-12)

    def test_view_out_of_range(self):
        m = random_model(np.random.default_rng(0), (3, 3, 2), rank=1)
        with pytest.raises(ValueError):
            reconstruct_view(m, 2)
        with pytest.raises(ValueError):
            reconstruct_view(m, -1)


# The fit as an ALS sweep records it, from the view-mode MTTKRP and the node Grams.
def fit(x, m):
    gram = (m.A.T @ m.A) * (m.B.T @ m.B)
    return fit_from_view_mttkrp(x, mttkrp(x, m.A, m.B, 2), gram, m.C * m.column_scales)


class TestFit:
    def test_matches_dense_oracle_on_random_instances(self):
        for case in range(20):
            rng = np.random.default_rng(1000 + case)
            dense = rng.random((6, 5, 2)) * (rng.random((6, 5, 2)) < 0.6)
            if not dense.any():
                continue
            x = Tensor3.from_dense(dense)
            m = random_model(rng, (6, 5, 2), rank=3)
            assert fit(x, m) == pytest.approx(
                oracle_fit(dense, m.A, m.B, m.C, m.column_scales), abs=1e-10
            )

    @PROPERTY_SETTINGS
    @given(case=cp_cases())
    @example(case=SMALL_CASE)
    def test_matches_oracle(self, case):
        dense, a, b, c, scales = case
        x = Tensor3.from_dense(dense)
        m = FactorModel(A=a, B=b, C=c, column_scales=scales)
        if not dense.any():
            with pytest.raises(ValueError):
                fit(x, m)
            return
        assert fit(x, m) == pytest.approx(oracle_fit(dense, a, b, c, scales), abs=1e-12)

    def test_exact_model_fit_is_one(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, (4, 4, 2), rank=2)
        dense = oracle_reconstruct(m.A, m.B, m.C, m.column_scales)
        assert fit(Tensor3.from_dense(dense), m) == pytest.approx(1.0, abs=1e-12)

    def test_resolvable_residual_is_not_rounded_to_exact(self):
        # The exact-fit floor only swallows rounding noise. Residuals of
        # 2e-6 to 1e-1 of the tensor's norm keep the oracle's fit: within
        # 1e-12 from 1e-3 up, and within the identity's error, about
        # 2 eps / (1 - fit), below that (1e-10 at 1 - fit = 2e-6).
        rng = np.random.default_rng(11)
        eps = np.finfo(np.float64).eps
        for level in (2e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
            m = random_model(rng, (6, 5, 2), rank=3)
            exact = oracle_reconstruct(m.A, m.B, m.C, m.column_scales)
            noise = rng.standard_normal(exact.shape)
            dense = exact + noise * (level * np.linalg.norm(exact) / np.linalg.norm(noise))
            want = oracle_fit(dense, m.A, m.B, m.C, m.column_scales)
            assert want <= 1.0 - 1e-6
            tol = 1e-12 if level >= 1e-3 else 4 * eps / (1.0 - want)
            assert fit(Tensor3.from_dense(dense), m) == pytest.approx(want, abs=tol)

    def test_zero_tensor_rejected(self):
        x = Tensor3.from_dense(np.zeros((3, 3, 2)))
        m = random_model(np.random.default_rng(0), (3, 3, 2), rank=1)
        with pytest.raises(ValueError):
            fit(x, m)

    def test_residual_never_negative_under_roundoff(self):
        # near-exact models can push the expanded identity slightly negative
        rng = np.random.default_rng(10)
        m = random_model(rng, (6, 6, 2), rank=4)
        dense = oracle_reconstruct(m.A, m.B, m.C, m.column_scales)
        value = fit(Tensor3.from_dense(dense), m)
        assert np.isfinite(value)
        assert value <= 1.0 + 1e-12
