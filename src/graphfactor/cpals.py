"""Rank-d CP decomposition of the view tensor via alternating least squares.

Each sweep solves the three exact least-squares subproblems in the order
first node mode, second node mode, view mode (Gauss-Seidel: every solve
uses the freshest other factors), then renormalizes the node factors and
pushes their column norms into per-component scales. Each sweep also
records the new model's fit, taken from the view-mode MTTKRP and Gram
products the view-factor solve has already formed. The sparse slices are
multiplied twice per view and sweep: once for the first node mode, and
once for the second node mode and the view mode together
(``tensor.slice_products``). The column norms come from the diagonals of
the Gram matrices the sweep has formed.

Each Gram solve multiplies by the inverse Gram matrix formed from its
Cholesky factor, after a LAPACK estimate of its reciprocal condition
number says the inverse is accurate; an ill-conditioned or singular Gram
takes the pseudoinverse instead and is counted.

Besides the sparse slices, a sweep holds at most 6 + L arrays of nodes x
rank float64 for L views, 8 for the two-view tensor (about 8 x nodes x
rank x 8 bytes): the current model's A and B, the extrapolated B of a
try, the new A, its L slice products, and the second-node-mode MTTKRP
with the one term buffer it sums through. The first node mode forms
one view's slice product at a time; the new node factors are normalized
in place. Of the model kept before the current one, ``decompose`` keeps
only B and the weighted C, and only until the try built from them.

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
from scipy.linalg import lapack

from ._blas import single_blas_thread
from .dataio import (config_record, format_table, load_json, load_matrix, load_table, save_json,
                     save_matrix, save_text)
from .errors import DataError, NumericalError
from .tensor import Tensor3, fit_from_view_mttkrp, mttkrp, mttkrp_from_products, slice_products

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

# A Gram solve whose estimated reciprocal condition number (1-norm, LAPACK
# dpocon) is at or below this takes the pseudoinverse. Measured at seed 1,
# the smallest estimate on the benchmark workloads is 9.5e-6 (webkb-r128,
# first node mode), 2.8e-5 (citeseer-prune) and 6.1e-4 (stagewise-8k); the
# Gram of two duplicate components estimates 4.9e-17. At the threshold the
# solve's relative error bound, about eps / rcond, is 2e-6.
_RCOND_MIN = 1e-10

# ``decompose`` extrapolates only after a plain sweep gains less than this
# many times ``tol`` (1e-4 at the default tol). Started from the fourth
# sweep, extrapolation pulled two components of an 8000-node planted
# graph's model together and cut micro-F1 from 0.894 to 0.789; started
# here, it never engages on a run whose every sweep still gains more.
_EXTRAPOLATE_BELOW = 10.0


@dataclass(frozen=True)
class AlsConfig:
    """Solver settings, checked when built; frozen. Equal configs give equal models.

    ``max_iters`` caps the sweeps ``decompose`` spends, rejected
    extrapolation tries included; ``tol`` bounds the fit gain per sweep
    spent at convergence (see ``decompose``). The default 1e-5 stops an
    877-node WebKB-shaped model (k=40, rank 128) after 37 sweeps, where
    1e-6 spent all 100 while each sweep still gained about 1.3e-5, with
    micro-F1 no lower.
    """

    rank: int
    max_iters: int = 100
    tol: float = 1e-5
    seed: int = 0
    init: str = "uniform"

    def __post_init__(self) -> None:
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
    by the solver. ``gram_fallbacks`` counts the Gram solves that took
    the pseudoinverse: the Gram had no Cholesky factor, its estimated
    reciprocal condition number was at or below ``_RCOND_MIN``, or the
    inverse gave a non-finite result, in kept sweeps and rejected
    extrapolation tries alike. ``blas_threads`` is the BLAS thread count
    ``decompose`` ran with (None when it found no OpenBLAS to pin).
    ``extrapolations_accepted`` and ``extrapolations_rejected`` count the
    extrapolated sweeps ``decompose`` kept and dropped. None of these is
    saved by ``save_model``.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    column_scales: np.ndarray
    fit_history: list = field(default_factory=list)
    converged: bool = False
    gram_fallbacks: int = 0
    blas_threads: int | None = None
    extrapolations_accepted: int = 0
    extrapolations_rejected: int = 0

    @property
    def rank(self) -> int:
        return self.A.shape[1]

    @property
    def iterations(self) -> int:
        return len(self.fit_history)


def init_factors(dims, config: AlsConfig) -> FactorModel:
    """Seeded random factors; identical seeds give identical models."""
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

    The fast path factors the gram by Cholesky (LAPACK dpotrf), estimates
    its reciprocal condition number from the factor (dpocon), and when
    that is above ``_RCOND_MIN`` returns rhs @ inv(gram) with the inverse
    formed from the factor (dpotri): one product, not two triangular
    solves. A nonzero ``info`` from any of the three LAPACK calls, a
    condition estimate at or below the threshold, or a non-finite result
    falls back to the pseudoinverse of a trace-scaled ridge regularization.
    Returns the solution and whether it fell back.
    """
    chol, info = lapack.dpotrf(gram, lower=1, clean=0)
    if info == 0:
        rcond, info = lapack.dpocon(chol, np.linalg.norm(gram, 1), uplo="L")
        if info == 0 and rcond > _RCOND_MIN:
            # dpotri fills the lower triangle only
            lower, info = lapack.dpotri(chol, lower=1)
            out = rhs @ (np.tril(lower) + np.tril(lower, -1).T)
            if info == 0 and np.all(np.isfinite(out)):
                return out, False
    ridge = 1e-12 * np.trace(gram)
    regularized = gram + ridge * np.eye(gram.shape[0])
    return rhs @ np.linalg.pinv(regularized), True


def als_step(x: Tensor3, model: FactorModel) -> FactorModel:
    """One full sweep over the three factors.

    The view factor keeps the solved magnitudes; the node factors come
    back with unit-norm columns and their norms, read off the diagonals
    of the sweep's Gram matrices, pushed into column_scales. The new
    model's fit is appended to fit_history, and the sweep's pseudoinverse
    fallbacks are added to gram_fallbacks. Never raises on singular grams.
    """
    weighted_c = model.C * model.column_scales
    c_gram = weighted_c.T @ weighted_c

    a_raw, a_fell = _solve_gram(
        mttkrp(x, model.B, weighted_c, 0), (model.B.T @ model.B) * c_gram
    )
    a_gram = a_raw.T @ a_raw
    products = slice_products(x, a_raw)
    b_raw, b_fell = _solve_gram(mttkrp_from_products(products, weighted_c, 1), a_gram * c_gram)
    b_gram = b_raw.T @ b_raw
    ab_gram = a_gram * b_gram
    m_view = mttkrp_from_products(products, b_raw, 2)
    del products
    c_raw, c_fell = _solve_gram(m_view, ab_gram)

    fit_history = [*model.fit_history, fit_from_view_mttkrp(x, m_view, ab_gram, c_raw)]
    # a zero column divides by 1, so it stays zero instead of turning NaN
    a_norms, b_norms = np.sqrt(np.diag(a_gram)), np.sqrt(np.diag(b_gram))
    a_div = np.where(a_norms > 0, a_norms, 1.0)
    b_div = np.where(b_norms > 0, b_norms, 1.0)
    a_raw /= a_div
    b_raw /= b_div
    return dataclasses.replace(
        model,
        A=a_raw,
        B=b_raw,
        C=c_raw,
        column_scales=a_div * b_div,
        fit_history=fit_history,
        gram_fallbacks=model.gram_fallbacks + a_fell + b_fell + c_fell,
    )


def _extrapolated(previous: tuple, current: FactorModel, step: float) -> FactorModel:
    """``current`` moved on by ``step`` times the step from ``previous``,
    in the factors a sweep reads: B and the scale-weighted C.

    ``previous`` holds those two factors of the kept model before
    ``current``. The moved B is built in one buffer.
    """
    previous_b, previous_weighted_c = previous
    moved_b = current.B - previous_b
    moved_b *= step
    moved_b += current.B
    weighted_c = current.C * current.column_scales
    return dataclasses.replace(
        current,
        B=moved_b,
        C=weighted_c + step * (weighted_c - previous_weighted_c),
        column_scales=np.ones(current.rank),
    )


def decompose(x: Tensor3, config: AlsConfig) -> FactorModel:
    """Iterate ALS sweeps until the fit stops gaining or max_iters.

    Plain sweeps run until one gains less than ``_EXTRAPOLATE_BELOW *
    tol``. Then each step first tries a sweep from B and the
    scale-weighted C moved on by k ** (1/3) times the last step between
    kept models (k = 2 at the first try, plus one per sweep spent), keeps
    it only if its fit beats the current fit, and otherwise runs a plain
    sweep (Bro 1998; Rajih, Comon & Harshman, SIAM J. Matrix Anal. Appl.
    2008). ``max_iters`` counts every sweep spent, rejected tries
    included. The run has converged when the last kept model's fit gain
    per sweep it cost (1, or 2 after a rejected try) is below ``tol`` in
    absolute value: for a run that never extrapolates, one sweep moving
    the fit by less than ``tol``.

    Non-convergence within max_iters is not an error; the returned model
    carries a converged flag and the fit history of its kept sweeps.
    The history comes from the expanded fit identity
    (``tensor.fit_from_view_mttkrp``): a residual within that identity's
    rounding error reads as a fit of exactly 1, and just above it the fit
    is accurate to about 2 eps / (1 - fit), so a tol below about 1e-8
    may not stop the sweeps early. ``gram_fallbacks`` counts the solves
    whose Gram was too ill-conditioned for the inverse (see
    ``_solve_gram``). Every loaded OpenBLAS runs on one thread until this
    returns.
    """
    if x.nnz == 0:
        raise ValueError("cannot decompose a tensor with no nonzero entries")
    model = init_factors(x.dims, config)
    with single_blas_thread() as threads:
        model.blas_threads = threads
        previous = None  # B and the weighted C of the kept model before ``model``
        start = None  # sweeps spent when extrapolation began
        cost = 1  # sweeps spent on the next kept model: 2 after a rejected try
        for spent in range(1, config.max_iters + 1):
            if start is None or cost == 2:
                previous = None
                kept = als_step(x, model)
            else:
                trial = _extrapolated(previous, model, (spent - start + 1) ** (1 / 3))
                previous = None
                kept = als_step(x, trial)
                del trial
                if not kept.fit_history[-1] > model.fit_history[-1]:
                    model.extrapolations_rejected += 1
                    model.gram_fallbacks = kept.gram_fallbacks
                    del kept
                    cost = 2
                    continue
                kept.extrapolations_accepted += 1
            current = kept.fit_history[-1]
            if not np.isfinite(current):
                raise NumericalError("fit became non-finite during ALS")
            last_fit = model.fit_history[-1] if model.fit_history else None
            previous, model = (model.B, model.C * model.column_scales), kept
            if last_fit is not None:
                gain = current - last_fit
                if abs(gain) / cost < config.tol:
                    model.converged = True
                    break
                if start is None and gain < _EXTRAPOLATE_BELOW * config.tol:
                    start = spent
            cost = 1
    return model


def save_model(model: FactorModel, directory, config: AlsConfig) -> None:
    """Persist factors, scales, and the run record of ``config`` under a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_matrix(model.A, directory / "A.txt")
    save_matrix(model.B, directory / "B.txt")
    save_matrix(model.C, directory / "C.txt")
    scales = np.asarray(model.column_scales, dtype=np.float64).reshape(-1, 1)
    save_text(directory / "scales.txt", format_table(scales))
    record = {
        "rank": model.rank,
        "converged": model.converged,
        "iterations": model.iterations,
        "fit_history": [float(v) for v in model.fit_history],
        "config": config_record(config),
    }
    save_json(record, directory / "run.json")


def load_model(directory) -> FactorModel:
    directory = Path(directory)
    a = load_matrix(directory / "A.txt")
    b = load_matrix(directory / "B.txt")
    c = load_matrix(directory / "C.txt")
    scales_path = directory / "scales.txt"
    (scales,) = load_table(scales_path, "scale", "f")
    if not (a.shape[1] == b.shape[1] == c.shape[1] == scales.shape[0]):
        raise DataError(f"{directory}: factor ranks disagree")
    model = FactorModel(A=a, B=b, C=c, column_scales=scales)
    run_path = directory / "run.json"
    if run_path.exists():
        record = load_json(run_path)
        try:
            history = record.get("fit_history", [])
            model.fit_history = [float(v) for v in history]
            model.converged = record.get("converged", False)
            if not isinstance(history, list) or not all(type(v) in (int, float) for v in history):
                raise TypeError("fit_history is not a list of numbers")
            if not isinstance(model.converged, bool):
                raise TypeError("converged is not true or false")
        except (AttributeError, TypeError, ValueError) as exc:
            raise DataError(f"{run_path}: malformed run record: {exc}") from exc
    return model
