"""Rank-d CP decomposition of the view tensor via alternating least squares.

Each sweep solves the three exact least-squares subproblems in the order
first node mode, second node mode, view mode (Gauss-Seidel: every solve
uses the freshest other factors), then renormalizes the node factors and
pushes their column norms into per-component scales. Each sweep also
records the new model's fit, taken from the view-mode MTTKRP and Gram
products the view-factor solve has already formed.

``decompose`` sets every loaded OpenBLAS to one thread while it runs and
restores the previous counts when it returns, so its factors do not
depend on the caller's BLAS thread count. The setting is process-global:
BLAS calls made by other threads of the process during ``decompose``
also run on one thread.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np
import scipy.linalg

from ._blas import single_blas_thread
from .dataio import load_json, load_matrix, parse_records, read_records, save_json, save_matrix
from .errors import DataError, NumericalError
from .tensor import Tensor3, fit_from_view_mttkrp, mttkrp

__all__ = [
    "AlsConfig",
    "FactorModel",
    "init_factors",
    "als_step",
    "decompose",
    "save_model",
    "load_model",
]

INIT_CHOICES = ("uniform", "normal")


@dataclass
class AlsConfig:
    """Solver settings; two runs with equal configs give equal models."""

    rank: int
    max_iters: int = 100
    tol: float = 1e-6
    seed: int = 0
    init: str = "uniform"

    def validate(self) -> None:
        if not isinstance(self.rank, Integral) or self.rank < 1:
            raise ValueError(f"rank must be an integer >= 1, got {self.rank}")
        if not isinstance(self.max_iters, Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters}")
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.init not in INIT_CHOICES:
            raise ValueError(f"init must be one of {INIT_CHOICES}, got {self.init!r}")


@dataclass
class FactorModel:
    """CP factors plus absorbed component scales and the fit trace.

    Reconstruction of view l is sum_r column_scales[r] * C[l, r] *
    outer(A[:, r], B[:, r]). Treat instances as immutable once returned
    by the solver. ``gram_fallbacks`` counts the Gram solves that fell
    back from Cholesky to the pseudoinverse; ``blas_threads`` is the BLAS
    thread count ``decompose`` ran with (None when it found no OpenBLAS
    to pin). Neither is saved by ``save_model``.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    column_scales: np.ndarray
    fit_history: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    gram_fallbacks: int = 0
    blas_threads: int | None = None

    @property
    def rank(self) -> int:
        return self.A.shape[1]

    def normalized(self) -> "FactorModel":
        """Absorb the node-factor column norms into column_scales."""
        a_norms = np.linalg.norm(self.A, axis=0)
        b_norms = np.linalg.norm(self.B, axis=0)
        a_div = np.where(a_norms > 0, a_norms, 1.0)
        b_div = np.where(b_norms > 0, b_norms, 1.0)
        return dataclasses.replace(
            self,
            A=self.A / a_div,
            B=self.B / b_div,
            C=self.C.copy(),
            column_scales=self.column_scales * a_div * b_div,
            fit_history=list(self.fit_history),
        )


def init_factors(dims, config: AlsConfig) -> FactorModel:
    """Seeded random factors; identical seeds give identical models."""
    config.validate()
    i_dim, j_dim, l_dim = dims
    rng = np.random.default_rng(config.seed)
    if config.init == "uniform":
        draw = rng.random
    else:
        draw = rng.standard_normal
    return FactorModel(
        A=draw((i_dim, config.rank)),
        B=draw((j_dim, config.rank)),
        C=draw((l_dim, config.rank)),
        column_scales=np.ones(config.rank),
    )


def _solve_gram(rhs: np.ndarray, gram: np.ndarray) -> tuple:
    """Solve factor @ gram = rhs for a symmetric PSD gram matrix.

    Cholesky on the fast path; rank-deficient grams fall back to the
    pseudoinverse of a trace-scaled ridge regularization. Returns the
    solution and whether it fell back.
    """
    try:
        chol = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
        out = scipy.linalg.cho_solve(chol, rhs.T, check_finite=False).T
        if np.all(np.isfinite(out)):
            return out, False
    except scipy.linalg.LinAlgError:
        pass
    ridge = 1e-12 * np.trace(gram)
    regularized = gram + ridge * np.eye(gram.shape[0])
    return rhs @ np.linalg.pinv(regularized), True


def als_step(x: Tensor3, model: FactorModel) -> FactorModel:
    """One full sweep over the three factors.

    The view factor keeps the solved magnitudes; the node factors come
    back with unit-norm columns and their norms pushed into
    column_scales. The new model's fit is appended to fit_history, and
    the sweep's Cholesky-to-pinv fallbacks are added to gram_fallbacks.
    Never raises on singular grams.
    """
    weighted_c = model.C * model.column_scales
    c_gram = weighted_c.T @ weighted_c

    a_raw, a_fell = _solve_gram(
        mttkrp(x, model.B, weighted_c, 0), (model.B.T @ model.B) * c_gram
    )
    a_gram = a_raw.T @ a_raw
    b_raw, b_fell = _solve_gram(mttkrp(x, a_raw, weighted_c, 1), a_gram * c_gram)
    ab_gram = a_gram * (b_raw.T @ b_raw)
    m_view = mttkrp(x, a_raw, b_raw, 2)
    c_raw, c_fell = _solve_gram(m_view, ab_gram)

    fit_history = [*model.fit_history, fit_from_view_mttkrp(x, m_view, ab_gram, c_raw)]
    updated = dataclasses.replace(
        model,
        A=a_raw,
        B=b_raw,
        C=c_raw,
        column_scales=np.ones(model.rank),
        fit_history=fit_history,
        iterations=len(fit_history),
        gram_fallbacks=model.gram_fallbacks + a_fell + b_fell + c_fell,
    )
    return updated.normalized()


def decompose(x: Tensor3, config: AlsConfig) -> FactorModel:
    """Iterate ALS sweeps until the fit stops changing or max_iters.

    Non-convergence within max_iters is not an error; the returned model
    carries a converged flag and the full per-iteration fit history.
    The history comes from the expanded fit identity (``tensor.fit``), so
    near an exact fit it is only accurate to about sqrt(eps): it can drop
    by a few times 1e-8 between sweeps, and a tol below that level may
    not stop the sweeps early. Every loaded OpenBLAS runs on one thread
    until this returns.
    """
    config.validate()
    if x.nnz == 0:
        raise ValueError("cannot decompose a tensor with no nonzero entries")
    model = init_factors(x.dims, config)
    with single_blas_thread() as threads:
        model.blas_threads = threads
        prev_fit = None
        for _ in range(config.max_iters):
            model = als_step(x, model)
            current = model.fit_history[-1]
            if not np.isfinite(current):
                raise NumericalError("fit became non-finite during ALS")
            if prev_fit is not None and abs(current - prev_fit) < config.tol:
                model.converged = True
                break
            prev_fit = current
    return model


def save_model(model: FactorModel, directory, config: AlsConfig | None = None) -> None:
    """Persist factors, scales, and the run record under a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_matrix(model.A, directory / "A.txt")
    save_matrix(model.B, directory / "B.txt")
    save_matrix(model.C, directory / "C.txt")
    lines = [repr(float(v)) for v in model.column_scales]
    (directory / "scales.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    record = {
        "rank": model.rank,
        "converged": model.converged,
        "iterations": model.iterations,
        "fit_history": [float(v) for v in model.fit_history],
    }
    if config is not None:
        record["config"] = dataclasses.asdict(config)
    save_json(record, directory / "run.json")


def load_model(directory) -> FactorModel:
    directory = Path(directory)
    a = load_matrix(directory / "A.txt")
    b = load_matrix(directory / "B.txt")
    c = load_matrix(directory / "C.txt")
    scales_path = directory / "scales.txt"
    (scales,) = parse_records(scales_path, read_records(scales_path), "scale", "f")
    if not (a.shape[1] == b.shape[1] == c.shape[1] == scales.shape[0]):
        raise DataError(f"{directory}: factor ranks disagree")
    model = FactorModel(A=a, B=b, C=c, column_scales=scales)
    run_path = directory / "run.json"
    if run_path.exists():
        record = load_json(run_path)
        model.fit_history = [float(v) for v in record.get("fit_history", [])]
        model.converged = bool(record.get("converged", False))
        model.iterations = int(record.get("iterations", len(model.fit_history)))
    return model
