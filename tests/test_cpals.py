"""Alternating least squares: sweeps, convergence, normalization, I/O."""

import dataclasses
import io
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import graphfactor._blas
import graphfactor.cpals
from graphfactor import AlsConfig, build_knn_view, decompose
from graphfactor._blas import openblas_thread_controls
from graphfactor.cpals import (
    FactorModel,
    _extrapolated,
    _solve_gram,
    als_step,
    init_factors,
    load_model,
    save_model,
)
from graphfactor.dataio import Graph
from graphfactor.errors import DataError, NumericalError, ParseError
from graphfactor.tensor import (
    Tensor3,
    fit_from_view_mttkrp,
    mttkrp,
    mttkrp_from_products,
    reconstruct_view,
    slice_products,
    stack_views,
)

from oracles import oracle_als, oracle_als_sweep, oracle_fit
from synthdata import CITESEER_SHAPED, WEBKB_SHAPED, planted_dataset, write_dataset


def random_tensor(rng, dims, density=0.6):
    dense = rng.random(dims) * (rng.random(dims) < density)
    dense[0, 0, 0] = max(dense[0, 0, 0], 0.5)  # keep the tensor nonzero
    return dense


def dense_fit(dense, m):
    return oracle_fit(dense, m.A, m.B, m.C, m.column_scales)


def plain_als(x, config):
    """ALS without extrapolation, stopped when a sweep moves the fit less than tol."""
    model = init_factors(x.dims, config)
    for _ in range(config.max_iters):
        model = als_step(x, model)
        if model.iterations > 1 and abs(model.fit_history[-1] - model.fit_history[-2]) < config.tol:
            model.converged = True
            break
    return model


def planted_tensor(seed=0, size=30, rank=4, noise=0.3):
    """A rank-``rank`` nonnegative tensor plus dense uniform noise; plain ALS
    converges on it at tol 1e-8 after a long, slowly gaining tail."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.random((size, rank)), rng.random((size, rank)), rng.random((2, rank))
    dense = np.einsum("ir,jr,lr->ijl", a, b, c) + noise * rng.random((size, size, 2))
    return Tensor3.from_dense(dense)


def counting_als_step(monkeypatch):
    """Route decompose's sweeps through a wrapper; returns the list of their fits."""
    fits = []
    real_step = graphfactor.cpals.als_step

    def step(x, model):
        out = real_step(x, model)
        fits.append(out.fit_history[-1])
        return out

    monkeypatch.setattr(graphfactor.cpals, "als_step", step)
    return fits


def zeroed_component_model(rng, i_dim, j_dim, l_dim):
    # duplicate components, with B's second one zero: every Gram of a
    # sweep has a zero row, so Cholesky fails and each solve falls back
    # to the pseudoinverse, and the zero component persists
    col_a, col_b, col_c = rng.random((i_dim, 1)), rng.random((j_dim, 1)), rng.random((l_dim, 1))
    return FactorModel(
        A=np.hstack([col_a, col_a]),
        B=np.hstack([col_b, np.zeros((j_dim, 1))]),
        C=np.hstack([col_c, col_c]),
        column_scales=np.ones(2),
    )


class TestConfigAndInit:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlsConfig(rank=0)
        with pytest.raises(ValueError):
            AlsConfig(rank=2, max_iters=0)
        with pytest.raises(ValueError):
            AlsConfig(rank=2, tol=0.0)
        with pytest.raises(ValueError):
            AlsConfig(rank=2, init="fancy")
        for bad in ({"rank": 2.5}, {"rank": 2, "max_iters": 10.0}, {"rank": 2, "seed": -1}):
            with pytest.raises(ValueError):
                AlsConfig(**bad)
        AlsConfig(rank=np.int64(2), max_iters=np.int64(5), seed=np.uint8(3))

    def test_config_is_frozen(self):
        config = AlsConfig(rank=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.rank = 0

    def test_init_deterministic_and_seed_sensitive(self):
        a = init_factors((4, 5, 2), AlsConfig(rank=3, seed=11))
        b = init_factors((4, 5, 2), AlsConfig(rank=3, seed=11))
        c = init_factors((4, 5, 2), AlsConfig(rank=3, seed=12))
        assert np.array_equal(a.A, b.A) and np.array_equal(a.C, b.C)
        assert not np.array_equal(a.A, c.A)
        assert a.A.shape == (4, 3) and a.B.shape == (5, 3) and a.C.shape == (2, 3)
        assert np.array_equal(a.column_scales, np.ones(3))

    def test_uniform_init_nonnegative_normal_init_signed(self):
        u = init_factors((20, 20, 2), AlsConfig(rank=2, seed=0, init="uniform"))
        n = init_factors((20, 20, 2), AlsConfig(rank=2, seed=0, init="normal"))
        assert u.A.min() >= 0.0 and u.A.max() < 1.0
        assert n.A.min() < 0.0


class TestAlsStep:
    def test_single_sweep_matches_dense_lstsq_oracle_3x3x2(self):
        rng = np.random.default_rng(42)
        dense = random_tensor(rng, (3, 3, 2))
        x = Tensor3.from_dense(dense)
        m0 = init_factors((3, 3, 2), AlsConfig(rank=2, seed=5))
        m1 = als_step(x, m0)
        oa, ob, oc, osc = oracle_als_sweep(dense, m0.A, m0.B, m0.C, m0.column_scales)
        assert np.abs(m1.A - oa).max() <= 1e-8
        assert np.abs(m1.B - ob).max() <= 1e-8
        assert np.abs(m1.C - oc).max() <= 1e-8
        assert np.abs(m1.column_scales - osc).max() <= 1e-8

    def test_node_factors_come_back_unit_norm(self):
        rng = np.random.default_rng(1)
        x = Tensor3.from_dense(random_tensor(rng, (6, 5, 2)))
        m1 = als_step(x, init_factors((6, 5, 2), AlsConfig(rank=3, seed=2)))
        assert np.allclose(np.linalg.norm(m1.A, axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(m1.B, axis=0), 1.0, atol=1e-12)

    def test_sweep_never_decreases_fit(self):
        rng = np.random.default_rng(2)
        dense = random_tensor(rng, (7, 6, 2))
        x = Tensor3.from_dense(dense)
        m = init_factors((7, 6, 2), AlsConfig(rank=3, seed=3))
        prev = dense_fit(dense, m)
        for _ in range(20):
            m = als_step(x, m)
            current = dense_fit(dense, m)
            assert current >= prev - 1e-12
            prev = current

    def test_singular_gram_does_not_raise(self):
        # duplicate components make every Gram matrix rank-deficient
        rng = np.random.default_rng(3)
        x = Tensor3.from_dense(random_tensor(rng, (5, 5, 2)))
        col_a = rng.random((5, 1))
        col_b = rng.random((5, 1))
        col_c = rng.random((2, 1))
        m = FactorModel(
            A=np.hstack([col_a, col_a]),
            B=np.hstack([col_b, col_b]),
            C=np.hstack([col_c, col_c]),
            column_scales=np.ones(2),
        )
        out = als_step(x, m)
        assert np.all(np.isfinite(out.A))
        assert np.all(np.isfinite(out.column_scales))
        # rounding leaves the first Gram's last Cholesky pivot at ~1.5e-8,
        # so only the condition estimate sends that solve to pinv
        gram = (m.B.T @ m.B) * (m.C.T @ m.C)
        scipy.linalg.cho_factor(gram, lower=True)  # factors without an error
        assert _solve_gram(mttkrp(x, m.B, m.C, 0), gram)[1]
        assert out.gram_fallbacks >= 1

    def test_inverse_gram_solve_matches_cho_solve(self):
        rng = np.random.default_rng(16)
        for rank, rows in ((3, 7), (16, 40), (64, 300)):
            factor = rng.standard_normal((rows, rank))
            gram = factor.T @ factor
            rhs = rng.standard_normal((rows, rank))
            got, fell = _solve_gram(rhs, gram)
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram, lower=True), rhs.T).T
            assert not fell
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_singular_gram_fallbacks_are_counted(self):
        rng = np.random.default_rng(3)
        x = Tensor3.from_dense(random_tensor(rng, (5, 5, 2)))
        out = als_step(x, zeroed_component_model(rng, 5, 5, 2))
        assert out.gram_fallbacks == 3
        assert np.all(np.isfinite(out.A))
        assert als_step(x, out).gram_fallbacks == 6


class TestNormalization:
    def test_scale_absorption_keeps_reconstruction(self):
        rng = np.random.default_rng(4)
        m = FactorModel(
            A=rng.standard_normal((5, 3)) * 4.0,
            B=rng.standard_normal((4, 3)) * 0.25,
            C=rng.standard_normal((2, 3)),
            column_scales=rng.random(3) + 0.5,
        )
        unit = FactorModel(
            A=m.A / np.linalg.norm(m.A, axis=0),
            B=m.B / np.linalg.norm(m.B, axis=0),
            C=m.C,
            column_scales=m.normalized_scales(),
        )
        for view in range(2):
            assert np.allclose(
                reconstruct_view(m, view), reconstruct_view(unit, view), atol=1e-10
            )

    def test_zero_column_normalizes_to_zero_without_dividing(self):
        # a divide-by-zero warning would fail the test: warnings are errors
        m = FactorModel(
            A=np.zeros((3, 1)),
            B=np.full((3, 1), 2.0),
            C=np.ones((2, 1)),
            column_scales=np.full(1, 0.5),
        )
        scales = m.normalized_scales()
        assert np.all(np.isfinite(scales))
        assert scales == pytest.approx([0.5 * 2.0 * np.sqrt(3.0)])  # the zero column counts 1


class TestDecompose:
    def test_monotone_history_and_flag(self):
        rng = np.random.default_rng(5)
        x = Tensor3.from_dense(random_tensor(rng, (8, 8, 2)))
        m = decompose(x, AlsConfig(rank=3, seed=6, tol=1e-4))
        assert len(m.fit_history) == m.iterations
        assert np.all(np.diff(m.fit_history) >= -1e-12)
        assert m.converged
        # convergence means the last step moved less than tol
        assert abs(m.fit_history[-1] - m.fit_history[-2]) < 1e-4

    def test_non_convergence_is_not_an_error(self):
        rng = np.random.default_rng(6)
        x = Tensor3.from_dense(random_tensor(rng, (8, 8, 2)))
        m = decompose(x, AlsConfig(rank=3, seed=6, tol=1e-15, max_iters=5))
        assert not m.converged
        assert m.iterations == 5

    def test_rank1_on_rank1_tensor_reaches_exact_fit(self):
        rng = np.random.default_rng(7)
        dense = np.einsum("i,j,l->ijl", rng.random(5), rng.random(4), rng.random(2))
        m = decompose(Tensor3.from_dense(dense), AlsConfig(rank=1, seed=0))
        assert m.fit_history[-1] == pytest.approx(1.0, abs=1e-8)

    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(8)
        a, b, c = rng.random((6, 3)), rng.random((5, 3)), rng.random((2, 3))
        dense = np.einsum("ir,jr,lr->ijl", a, b, c)
        m = decompose(Tensor3.from_dense(dense), AlsConfig(rank=3, seed=0, tol=1e-10, max_iters=600))
        assert m.fit_history[-1] >= 0.999

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        dense = random_tensor(rng, (6, 6, 2))
        x = Tensor3.from_dense(dense)
        m1 = decompose(x, AlsConfig(rank=2, seed=1, max_iters=20, tol=1e-12))
        m2 = decompose(x, AlsConfig(rank=2, seed=1, max_iters=20, tol=1e-12))
        assert np.array_equal(m1.A, m2.A)
        assert np.array_equal(m1.column_scales, m2.column_scales)
        assert m1.fit_history == m2.fit_history

    def test_recorded_fit_equals_fit_oracle(self):
        # random tensors, an exact-rank tensor, and a model whose every
        # sweep solves exactly singular Grams. The fit is compared where
        # it stays below 1: near an exact fit the expanded residual
        # identity is only accurate to about sqrt(machine epsilon).
        rng = np.random.default_rng(20)
        a, b, c = rng.random((7, 3)), rng.random((6, 3)), rng.random((2, 3))
        cases = [(random_tensor(rng, (9, 8, 2)), AlsConfig(rank=3, seed=s)) for s in range(4)]
        cases.append((np.einsum("ir,jr,lr->ijl", a, b, c), AlsConfig(rank=3, seed=1)))
        for dense, config in cases:
            x = Tensor3.from_dense(dense)
            m = decompose(x, config)
            assert m.gram_fallbacks == 0
            assert abs(m.fit_history[-1] - dense_fit(dense, m)) <= 1e-12
            assert np.all(np.diff(m.fit_history) >= -1e-12)

        dense = random_tensor(rng, (7, 6, 2))
        x = Tensor3.from_dense(dense)
        m = zeroed_component_model(rng, 7, 6, 2)
        for _ in range(10):
            m = als_step(x, m)
            assert abs(m.fit_history[-1] - dense_fit(dense, m)) <= 1e-12
        assert m.gram_fallbacks == 30
        assert np.all(np.diff(m.fit_history) >= -1e-12)

    def test_rank_above_unfolding_size_counts_fallbacks(self):
        # rank 3 > J * L = 2 makes the first node mode's Gram singular
        rng = np.random.default_rng(21)
        x = Tensor3.from_dense(random_tensor(rng, (6, 2, 1)))
        m = decompose(x, AlsConfig(rank=3, seed=1))
        assert m.gram_fallbacks > 0
        assert m.fit_history[-1] >= 1.0 - 1e-6

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            decompose(Tensor3.from_dense(np.zeros((3, 3, 2))), AlsConfig(rank=1))

    def test_small_instance_tracks_dense_oracle_residual(self):
        # same init, same sweep order: the sparse path must do at least
        # as well as 500 iterations of the dense reference
        rng = np.random.default_rng(10)
        dense = random_tensor(rng, (5, 6, 2))
        x = Tensor3.from_dense(dense)
        config = AlsConfig(rank=2, seed=11, tol=1e-12, max_iters=500)
        m = decompose(x, config)
        m0 = init_factors((5, 6, 2), config)
        _, _, _, _, history = oracle_als(dense, m0.A, m0.B, m0.C, m0.column_scales, 500)
        norm = np.linalg.norm(dense)
        resid_pkg = (1.0 - m.fit_history[-1]) * norm
        resid_oracle = (1.0 - history[-1]) * norm
        assert resid_pkg <= resid_oracle + 1e-6

    def test_history_matches_dense_oracle_trajectory(self):
        rng = np.random.default_rng(11)
        dense = random_tensor(rng, (4, 5, 2))
        x = Tensor3.from_dense(dense)
        config = AlsConfig(rank=2, seed=12, tol=1e-12, max_iters=25)
        m = decompose(x, config)
        m0 = init_factors((4, 5, 2), config)
        _, _, _, _, history = oracle_als(
            dense, m0.A, m0.B, m0.C, m0.column_scales, m.iterations
        )
        assert np.allclose(m.fit_history, history, atol=1e-8)


class TestExtrapolation:
    PLANTED = AlsConfig(rank=4, seed=0, max_iters=500, tol=1e-8)

    def test_run_that_never_slows_down_is_plain_als(self):
        # every sweep gains at least 10 tol, so extrapolation never starts
        rng = np.random.default_rng(30)
        for seed in range(3):
            x = Tensor3.from_dense(random_tensor(rng, (8, 7, 2)))
            config = AlsConfig(rank=3, seed=seed, max_iters=6, tol=1e-12)
            m = decompose(x, config)
            want = plain_als(x, config)
            assert np.diff(m.fit_history).min() >= 10 * config.tol
            assert m.fit_history == want.fit_history
            for name in ("A", "B", "C", "column_scales"):
                assert np.array_equal(getattr(m, name), getattr(want, name))
            assert (m.converged, m.extrapolations_accepted, m.extrapolations_rejected) == (
                False, 0, 0)

    def test_max_iters_counts_rejected_tries(self, monkeypatch):
        x = planted_tensor()
        fits = counting_als_step(monkeypatch)
        full = decompose(x, self.PLANTED)
        spent = len(fits)
        assert full.converged and full.extrapolations_rejected >= 1
        assert spent == full.iterations + full.extrapolations_rejected
        # a sweep whose fit was not kept is a rejected try; capping the run
        # there ends it on that try
        rejected_at = [i + 1 for i, fit in enumerate(fits) if fit not in full.fit_history]
        assert len(rejected_at) == full.extrapolations_rejected
        for cap in (*rejected_at, rejected_at[0] + 1, spent - 1, spent):
            fits.clear()
            m = decompose(x, dataclasses.replace(self.PLANTED, max_iters=cap))
            assert len(fits) == cap == m.iterations + m.extrapolations_rejected
            assert m.converged == (cap == spent)
            assert m.fit_history == full.fit_history[:m.iterations]

    def test_history_stays_monotone_once_extrapolating(self):
        for seed in (0, 2, 3):
            m = decompose(planted_tensor(seed), self.PLANTED)
            assert m.extrapolations_accepted >= 1
            assert np.all(np.diff(m.fit_history) >= -1e-12)

    def test_planted_tensor_needs_fewer_sweeps_for_the_same_fit(self):
        x = planted_tensor()
        want = plain_als(x, self.PLANTED)
        m = decompose(x, self.PLANTED)
        assert want.converged and m.converged
        assert m.iterations + m.extrapolations_rejected <= 0.7 * want.iterations
        assert m.fit_history[-1] >= (1 - 1e-3) * want.fit_history[-1]


def out_of_place_sweep(x, b, weighted_c):
    """An ALS sweep from B and the scale-weighted C, each step a new array:
    (A, B, C, column_scales, fit)."""
    c_gram = weighted_c.T @ weighted_c
    a_raw, _ = _solve_gram(mttkrp(x, b, weighted_c, 0), (b.T @ b) * c_gram)
    a_gram = a_raw.T @ a_raw
    products = slice_products(x, a_raw)
    b_raw, _ = _solve_gram(mttkrp_from_products(products, weighted_c, 1), a_gram * c_gram)
    b_gram = b_raw.T @ b_raw
    m_view = mttkrp_from_products(products, b_raw, 2)
    c_raw, _ = _solve_gram(m_view, a_gram * b_gram)
    fit = fit_from_view_mttkrp(x, m_view, a_gram * b_gram, c_raw)
    a_norms, b_norms = np.sqrt(np.diag(a_gram)), np.sqrt(np.diag(b_gram))
    a_div = np.where(a_norms > 0, a_norms, 1.0)
    b_div = np.where(b_norms > 0, b_norms, 1.0)
    return a_raw / a_div, b_raw / b_div, c_raw, np.ones(len(a_div)) * a_div * b_div, fit


def summed_view_terms(slices, f1, weights):
    """sum_l (slices[l] @ f1) * weights[l], each partial sum a new array, from zeros."""
    out = np.zeros((slices[0].shape[0], f1.shape[1]))
    for s, w in zip(slices, weights):
        out = out + (s @ f1) * w
    return out


def bits(arr):
    return np.asarray(arr, dtype=np.float64).view(np.int64)


class TestSweepWorkspace:
    def test_sweep_and_extrapolated_try_match_out_of_place_reference_bit_for_bit(self):
        rng = np.random.default_rng(8)
        dense = rng.random((10, 10, 2)) * (rng.random((10, 10, 2)) < 0.5)
        dense[3, :, :] = 0.0  # node 3 is isolated in both views
        dense[:, 3, :] = 0.0
        x = Tensor3.from_dense(dense)
        start = init_factors(x.dims, AlsConfig(rank=3, seed=0, init="normal"))
        weighted_c = start.C * start.column_scales
        # a component whose weight is negative in every view: each term of
        # the isolated node's MTTKRP rows is -0.0, and only a sum started
        # from +0.0 keeps the row +0.0
        assert (weighted_c < 0).all(axis=0).any()
        for mode, f1, slices in ((0, start.B, x.slices), (1, start.A, [s.T for s in x.slices])):
            got = mttkrp(x, f1, weighted_c, mode)
            assert np.array_equal(bits(got), bits(summed_view_terms(slices, f1, weighted_c)))
            assert not np.signbit(got[3]).any()

        previous = als_step(x, start)
        current = als_step(x, previous)
        step = 2 ** (1 / 3)
        b_moved = current.B + step * (current.B - previous.B)
        c_moved = current.C * current.column_scales
        c_moved = c_moved + step * (c_moved - previous.C * previous.column_scales)
        trial = _extrapolated((previous.B, previous.C * previous.column_scales), current, step)
        assert np.array_equal(bits(trial.B), bits(b_moved))
        assert np.array_equal(bits(trial.C), bits(c_moved))
        assert trial.A is current.A
        for model, (b, weighted_c) in ((previous, (previous.B, previous.C * previous.column_scales)),
                                       (trial, (b_moved, c_moved))):
            got = als_step(x, model)
            *want, fit = out_of_place_sweep(x, b, weighted_c)
            for name, arr in zip(("A", "B", "C", "column_scales"), want):
                assert np.array_equal(bits(getattr(got, name)), bits(arr)), name
            assert bits(got.fit_history[-1]) == bits(fit)
            assert not np.signbit(got.A[3]).any() and not np.signbit(got.B[3]).any()

    def test_decompose_holds_at_most_nine_factor_sized_arrays(self):
        ds = planted_dataset(CITESEER_SHAPED)
        graph = Graph(num_nodes=ds.config.num_nodes, edges=ds.edges)
        x = stack_views(graph, build_knn_view(ds.features_csr(), 15))
        config = AlsConfig(rank=64)
        tracemalloc.start()
        try:
            model = decompose(x, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the peak is set by an extrapolated try; a rejected one frees its factors
        assert model.extrapolations_accepted >= 1 and model.extrapolations_rejected >= 1
        arrays = peak / (x.dims[0] * config.rank * 8)
        assert arrays <= 9, f"decompose peaked at {arrays:.2f} nodes x rank float64 arrays"


class TestBlasThreads:
    def test_decompose_pins_one_thread_and_restores(self, monkeypatch):
        controls = openblas_thread_controls()
        before = [get() for get, _ in controls]
        seen = []
        real_step = graphfactor.cpals.als_step

        def step(x, model):
            seen.append([get() for get, _ in controls])
            return real_step(x, model)

        monkeypatch.setattr(graphfactor.cpals, "als_step", step)
        rng = np.random.default_rng(15)
        x = Tensor3.from_dense(random_tensor(rng, (6, 6, 2)))
        m = decompose(x, AlsConfig(rank=2, seed=0, max_iters=4, tol=1e-12))
        assert m.blas_threads == (1 if controls else None)
        assert seen == [[1] * len(controls)] * 4
        assert [get() for get, _ in controls] == before

        def explode(x, model):
            raise NumericalError("boom")

        monkeypatch.setattr(graphfactor.cpals, "als_step", explode)
        with pytest.raises(NumericalError):
            decompose(x, AlsConfig(rank=2))
        assert [get() for get, _ in controls] == before

    def test_run_artifacts_do_not_depend_on_caller_threads(self, tmp_path):
        # OpenBLAS reads its thread count from the environment when it
        # loads, so each setting needs its own process; without a setting
        # it uses one thread per CPU. The pruned run covers every artifact:
        # K-NN edges, model, embeddings, evaluations, weights and report.
        root = Path(__file__).resolve().parents[1]
        data = write_dataset(planted_dataset(WEBKB_SHAPED), tmp_path / "data")
        script = textwrap.dedent("""
            import json, sys
            from pathlib import Path
            from graphfactor import PipelineConfig, run_pipeline
            from graphfactor.dataio import sha256_file

            edges, features, labels, out = sys.argv[1:]
            run_dir = run_pipeline(PipelineConfig(
                edges=edges, features=features, labels=labels, k=40, rank=128,
                max_iters=3, tol=1e-12, repeats=2, prune_threshold=13.0,
            ), Path(out))
            print(json.dumps({str(p.relative_to(run_dir)): sha256_file(p)
                              for p in sorted(run_dir.rglob("*")) if p.is_file()}))
        """)
        runs = []
        for threads in ("1", None):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "tests")])
            for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
                env.pop(var, None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"run_{threads}"
            done = subprocess.run(
                [sys.executable, "-c", script,
                 str(data["edges"]), str(data["features"]), str(data["labels"]), str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            runs.append(json.loads(done.stdout))
        assert runs[0] == runs[1]
        assert {"eval_train_0p5.json", "weights.csv", "pruning_report.json", "embeddings.txt",
                "embeddings_pruned.txt", "model/A.txt", "model/C.txt"} <= set(runs[0])
        report = json.loads((tmp_path / "run_1" / "pruning_report.json").read_text())
        assert report["removed_dimensions"]


class TestBlasLibraryPaths:
    def test_a_library_path_with_spaces_is_found(self, tmp_path, monkeypatch):
        try:
            with open("/proc/self/maps") as handle:
                loaded = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
        except OSError:
            loaded = []
        if not loaded:
            pytest.skip("no OpenBLAS mapped into this process")
        link = tmp_path / "dir with space" / Path(loaded[0]).name
        link.parent.mkdir()
        link.symlink_to(loaded[0])
        line = f"7f0000000000-7f0000001000 r-xp 00000000 08:01 42          {link}\n"
        monkeypatch.setattr(graphfactor._blas, "open", lambda path: io.StringIO(line),
                            raising=False)
        assert len(openblas_thread_controls()) == 1


class TestModelIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        x = Tensor3.from_dense(random_tensor(rng, (6, 5, 2)))
        config = AlsConfig(rank=3, seed=13, max_iters=15, tol=1e-12)
        m = decompose(x, config)
        save_model(m, tmp_path / "model", config)
        back = load_model(tmp_path / "model")
        assert np.array_equal(back.A, m.A)
        assert np.array_equal(back.B, m.B)
        assert np.array_equal(back.C, m.C)
        assert np.array_equal(back.column_scales, m.column_scales)
        assert back.fit_history == [float(v) for v in m.fit_history]
        assert back.converged == m.converged
        assert back.iterations == m.iterations

    def test_run_record_contents(self, tmp_path):
        rng = np.random.default_rng(13)
        x = Tensor3.from_dense(random_tensor(rng, (4, 4, 2)))
        # numpy integers and an int tol, written as the types AlsConfig declares
        config = AlsConfig(rank=np.int64(2), seed=np.uint8(14), max_iters=np.int32(10), tol=1)
        m = decompose(x, config)
        save_model(m, tmp_path / "model", config)
        text = (tmp_path / "model" / "run.json").read_text()
        record = json.loads(text)
        assert record["rank"] == 2
        assert record["config"] == {
            "rank": 2, "max_iters": 10, "tol": 1.0, "seed": 14, "init": "uniform"
        }
        assert '"tol": 1.0' in text
        assert len(record["fit_history"]) == m.iterations
        assert set(record) == {"rank", "converged", "iterations", "fit_history", "config"}

    def test_load_missing_or_inconsistent(self, tmp_path):
        with pytest.raises(DataError):
            load_model(tmp_path / "missing")
        rng = np.random.default_rng(14)
        x = Tensor3.from_dense(random_tensor(rng, (4, 4, 2)))
        config = AlsConfig(rank=2, seed=0, max_iters=5, tol=1e-12)
        save_model(decompose(x, config), tmp_path / "model", config)
        (tmp_path / "model" / "scales.txt").write_text("1.0\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_model(tmp_path / "model")

    @pytest.mark.parametrize("bad", ['[1, 2]', '"text"', '{"fit_history": 5}',
                                     '{"fit_history": null}', '{"fit_history": [1, "x"]}',
                                     '{"fit_history": "12", "converged": "false"}',
                                     '{"converged": "false"}', '{"fit_history": [true]}',
                                     '{"fit_history": ["1.5"]}', '{', b"\xff"])
    def test_malformed_run_record_is_a_data_error_naming_it(self, tmp_path, bad):
        rng = np.random.default_rng(16)
        x = Tensor3.from_dense(random_tensor(rng, (4, 4, 2)))
        config = AlsConfig(rank=2, seed=0, max_iters=5, tol=1e-12)
        save_model(decompose(x, config), tmp_path / "model", config)
        (tmp_path / "model" / "run.json").write_bytes(
            bad if isinstance(bad, bytes) else bad.encode("utf-8"))
        with pytest.raises(DataError, match=r"run\.json"):
            load_model(tmp_path / "model")

    def test_scales_text_is_the_repr_of_each_scale(self, tmp_path):
        scales = np.array([0.1, 3.0, 1e16, 2.5e-7, 1.234e-05, 5e-324, 10.00001, 123456.78901234567])
        rank = scales.size
        model = FactorModel(A=np.ones((3, rank)), B=np.ones((3, rank)), C=np.ones((2, rank)),
                            column_scales=scales)
        config = AlsConfig(rank=rank, seed=0, max_iters=5, tol=1e-12)
        save_model(model, tmp_path / "model", config)
        text = (tmp_path / "model" / "scales.txt").read_text(encoding="utf-8")
        assert text == "".join(f"{float(v)!r}\n" for v in scales)

    @pytest.mark.parametrize("bad", ["nan", "abc", "-inf", "1.0 2.0"])
    def test_scales_must_be_one_finite_number_per_line(self, tmp_path, bad):
        rng = np.random.default_rng(15)
        x = Tensor3.from_dense(random_tensor(rng, (4, 4, 2)))
        config = AlsConfig(rank=2, seed=0, max_iters=5, tol=1e-12)
        save_model(decompose(x, config), tmp_path / "model", config)
        (tmp_path / "model" / "scales.txt").write_text(f"1.0\n{bad}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"scales\.txt:2:"):
            load_model(tmp_path / "model")
