"""Alternating least squares: sweeps, convergence, normalization, I/O."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import graphfactor.cpals
from graphfactor import (
    AlsConfig,
    FactorModel,
    Tensor3,
    als_step,
    decompose,
    fit,
    init_factors,
    load_model,
    reconstruct_view,
    save_model,
)
from graphfactor._blas import openblas_thread_controls
from graphfactor.errors import DataError, NumericalError, ParseError

from oracles import oracle_als, oracle_als_sweep
from synthdata import WEBKB_SHAPED, planted_dataset, write_dataset


def random_tensor(rng, dims, density=0.6):
    dense = rng.random(dims) * (rng.random(dims) < density)
    dense[0, 0, 0] = max(dense[0, 0, 0], 0.5)  # keep the tensor nonzero
    return dense


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
            AlsConfig(rank=0).validate()
        with pytest.raises(ValueError):
            AlsConfig(rank=2, max_iters=0).validate()
        with pytest.raises(ValueError):
            AlsConfig(rank=2, tol=0.0).validate()
        with pytest.raises(ValueError):
            AlsConfig(rank=2, init="fancy").validate()
        for bad in (AlsConfig(rank=2.5), AlsConfig(rank=2, max_iters=10.0),
                    AlsConfig(rank=2, seed=-1)):
            with pytest.raises(ValueError):
                bad.validate()
        AlsConfig(rank=np.int64(2), max_iters=np.int64(5), seed=np.uint8(3)).validate()

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
        prev = fit(x, m)
        for _ in range(20):
            m = als_step(x, m)
            current = fit(x, m)
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
        norm = m.normalized()
        assert np.allclose(np.linalg.norm(norm.A, axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(norm.B, axis=0), 1.0, atol=1e-12)
        for view in range(2):
            assert np.allclose(
                reconstruct_view(m, view), reconstruct_view(norm, view), atol=1e-10
            )

    def test_zero_column_normalizes_to_zero_without_dividing(self):
        m = FactorModel(
            A=np.zeros((3, 1)),
            B=np.ones((3, 1)),
            C=np.ones((2, 1)),
            column_scales=np.ones(1),
        )
        norm = m.normalized()
        assert np.all(np.isfinite(norm.A))
        assert np.array_equal(norm.A, np.zeros((3, 1)))


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
            assert abs(m.fit_history[-1] - fit(x, m)) <= 1e-12
            assert np.all(np.diff(m.fit_history) >= -1e-12)

        x = Tensor3.from_dense(random_tensor(rng, (7, 6, 2)))
        m = zeroed_component_model(rng, 7, 6, 2)
        for _ in range(10):
            m = als_step(x, m)
            assert abs(m.fit_history[-1] - fit(x, m)) <= 1e-12
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
        config = AlsConfig(rank=2, seed=14, max_iters=10, tol=1e-12)
        m = decompose(x, config)
        save_model(m, tmp_path / "model", config)
        record = json.loads((tmp_path / "model" / "run.json").read_text())
        assert record["rank"] == 2
        assert record["config"]["seed"] == 14
        assert len(record["fit_history"]) == m.iterations
        assert set(record) == {"rank", "converged", "iterations", "fit_history", "config"}

    def test_load_missing_or_inconsistent(self, tmp_path):
        with pytest.raises(DataError):
            load_model(tmp_path / "missing")
        rng = np.random.default_rng(14)
        x = Tensor3.from_dense(random_tensor(rng, (4, 4, 2)))
        m = decompose(x, AlsConfig(rank=2, seed=0, max_iters=5, tol=1e-12))
        save_model(m, tmp_path / "model")
        (tmp_path / "model" / "scales.txt").write_text("1.0\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_model(tmp_path / "model")

    @pytest.mark.parametrize("bad", ["nan", "abc", "-inf", "1.0 2.0"])
    def test_scales_must_be_one_finite_number_per_line(self, tmp_path, bad):
        rng = np.random.default_rng(15)
        x = Tensor3.from_dense(random_tensor(rng, (4, 4, 2)))
        m = decompose(x, AlsConfig(rank=2, seed=0, max_iters=5, tol=1e-12))
        save_model(m, tmp_path / "model")
        (tmp_path / "model" / "scales.txt").write_text(f"1.0\n{bad}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"scales\.txt:2:"):
            load_model(tmp_path / "model")
