"""Three-mode view tensor: sparse per-view slices plus the contractions
needed by alternating least squares.

The tensor is stored as a list of sparse frontal slices (one per view),
which matches its construction from stacked node-by-node matrices and
keeps the dominant contraction (MTTKRP) at O(nnz * rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .dataio import Graph
from .knn import KnnView

__all__ = [
    "Tensor3",
    "stack_views",
    "mttkrp",
    "slice_products",
    "mttkrp_from_products",
    "reconstruct_view",
]


@dataclass(frozen=True)
class Tensor3:
    """Sparse I x J x L tensor stored as per-view CSR slices.

    Treat the slices as read-only: the squared norm is computed once and
    cached on the instance.
    """

    slices: tuple

    @property
    def dims(self):
        i, j = self.slices[0].shape
        return (i, j, len(self.slices))

    @property
    def nnz(self) -> int:
        return sum(s.nnz for s in self.slices)

    @cached_property
    def norm_sq(self) -> float:
        return float(sum(s.multiply(s).sum() for s in self.slices))

    @classmethod
    def from_slices(cls, slices) -> "Tensor3":
        if len(slices) < 1:
            raise ValueError("a tensor needs at least one view slice")
        shape = slices[0].shape
        for s in slices[1:]:
            if s.shape != shape:
                raise ValueError(f"slice shapes differ: {s.shape} vs {shape}")
        converted = tuple(sp.csr_matrix(s, dtype=np.float64) for s in slices)
        return cls(slices=converted)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "Tensor3":
        if dense.ndim != 3:
            raise ValueError("expected a 3-d array")
        return cls.from_slices([sp.csr_matrix(dense[:, :, l]) for l in range(dense.shape[2])])


def stack_views(graph: Graph, knn) -> Tensor3:
    """Stack the adjacency view and (optionally) the K-NN view.

    View 0 is the symmetric adjacency matrix; view 1 the directed K-NN
    matrix, given either as a KnnView or as an already-built square
    sparse matrix. Passing ``knn=None`` builds the single-view tensor
    used for adjacency-only ablations. A node that only one view names
    (features past the edge list's largest id, or the reverse) is added
    to the other view as an isolated node: both views are resized, with
    empty rows and columns, to the larger node count.
    """
    if knn is None:
        return Tensor3.from_slices([graph.to_csr()])
    z = knn.to_csr() if isinstance(knn, KnnView) else sp.csr_matrix(knn)
    if z.shape[0] != z.shape[1]:
        raise ValueError(f"K-NN view must be square, got {z.shape[0]}x{z.shape[1]}")
    num_nodes, adj = max(graph.num_nodes, z.shape[0]), graph.to_csr()
    for view in (adj, z):
        view.resize((num_nodes, num_nodes))
    return Tensor3.from_slices([adj, z])


def _check_factor(name: str, arr: np.ndarray, rows: int, rank: int | None):
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got ndim={arr.ndim}")
    if arr.shape[0] != rows:
        raise ValueError(f"{name} has {arr.shape[0]} rows, expected {rows}")
    if rank is not None and arr.shape[1] != rank:
        raise ValueError(f"{name} has {arr.shape[1]} columns, expected {rank}")


def mttkrp(x: Tensor3, f1: np.ndarray, f2: np.ndarray, mode: int) -> np.ndarray:
    """Matricized-tensor-times-Khatri-Rao-product for one mode.

    ``f1`` and ``f2`` are the factors of the two non-target modes in
    ascending mode order; the result equals the mode-``mode``
    matricization times the Khatri-Rao product (f2 column-wise-Kron f1),
    computed from the sparse slices without forming either product. Mode
    0 forms one view's slice product at a time and scales it in place.
    """
    if mode not in (0, 1, 2):
        raise ValueError(f"mode must be 0, 1, or 2, got {mode}")
    if mode == 0:
        f1 = np.asarray(f1, dtype=np.float64)
        _check_factor("f1", f1, x.dims[1], None)
        f2 = np.asarray(f2, dtype=np.float64)
        _check_factor("f2", f2, len(x.slices), f1.shape[1])
        return _weighted_sum((s @ f1 for s in x.slices), f2, (x.dims[0], f1.shape[1]), owned=True)
    return mttkrp_from_products(slice_products(x, f1), f2, mode)


def slice_products(x: Tensor3, f1: np.ndarray) -> tuple:
    """The J x R products S_l^T f1 of every view slice S_l with a factor of
    the first node mode.

    They are the sparse work of both the second-node-mode and the view-mode
    MTTKRP of ``f1``; ``mttkrp_from_products`` finishes either one, so an
    ALS sweep that solves the second node factor and then the view factor
    multiplies each slice once for the two.
    """
    i_dim = x.dims[0]
    f1 = np.asarray(f1, dtype=np.float64)
    _check_factor("f1", f1, i_dim, None)
    return tuple(s.T @ f1 for s in x.slices)


def mttkrp_from_products(products, f2: np.ndarray, mode: int) -> np.ndarray:
    """The mode-1 or mode-2 MTTKRP from ``slice_products(x, f1)``.

    Equal to ``mttkrp(x, f1, f2, mode)``: ``f2`` is the view factor for
    mode 1 (the result is sum_l products[l] * f2[l]) and the second node
    factor for mode 2 (row l of the result is the column sums of
    f2 * products[l]). Mode 1 of the products S_l f1 is the mode-0 MTTKRP.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    j_dim, rank = products[0].shape
    f2 = np.asarray(f2, dtype=np.float64)
    _check_factor("f2", f2, len(products) if mode == 1 else j_dim, rank)
    if mode == 1:
        return _weighted_sum(products, f2, (j_dim, rank), owned=False)
    return np.array([np.einsum("jr,jr->r", f2, p) for p in products])


def _weighted_sum(products, weights: np.ndarray, shape, owned: bool) -> np.ndarray:
    """sum_l products[l] * weights[l], the modes 0 and 1 of the MTTKRP.

    The terms are added in view order into zeros, never into the first
    term: 0.0 + (-0.0) is 0.0, so a node that no view names gets a row of
    +0.0 whatever the signs of the weights. ``owned`` products are the
    caller's to overwrite and are scaled in place; otherwise one term
    buffer serves every view.
    """
    out = np.zeros(shape)
    term = None if owned else np.empty(shape)
    for p, w in zip(products, weights):
        out += np.multiply(p, w, out=p if owned else term)
    return out


def reconstruct_view(model, view: int) -> np.ndarray:
    """Dense reconstruction of one view from the factor model."""
    n_views = model.C.shape[0]
    if not 0 <= view < n_views:
        raise ValueError(f"view {view} out of range for {n_views} views")
    coef = model.column_scales * model.C[view]
    return (model.A * coef) @ model.B.T


def fit_from_view_mttkrp(x: Tensor3, m_view, ab_gram, weighted_c) -> float:
    """The fit of a model from pieces an ALS sweep already holds.

    ``m_view`` is the view-mode MTTKRP of the node factors A and B,
    ``ab_gram`` is (A^T A) * (B^T B), and ``weighted_c`` is the view
    factor with the component scales multiplied in. Then <X, X_hat> =
    sum(m_view * weighted_c) and ||X_hat||^2 = sum(ab_gram * (weighted_c^T
    weighted_c)) (Kolda & Bader, SIAM Review 2009, section 3.4).

    The squared residual ||X||^2 - 2 <X, X_hat> + ||X_hat||^2 cancels as
    the fit nears 1. A value at or below its own rounding bound, eps *
    (||X||^2 + 2 |<X, X_hat>| + ||X_hat||^2), is noise and reads as 0, so
    a model whose residual is below about sqrt(4 eps) ~ 3e-8 of ||X|| gets
    a fit of exactly 1. Above that floor the fit's error is at most about
    2 eps / (1 - fit).
    """
    norm_x_sq = x.norm_sq
    if norm_x_sq == 0.0:
        raise ValueError("tensor has zero norm; fit is undefined")
    inner = float(np.sum(m_view * weighted_c))
    est_sq = float(np.sum(ab_gram * (weighted_c.T @ weighted_c)))
    resid_sq = norm_x_sq - 2.0 * inner + est_sq
    if resid_sq <= np.finfo(np.float64).eps * (norm_x_sq + 2.0 * abs(inner) + est_sq):
        resid_sq = 0.0
    return 1.0 - np.sqrt(resid_sq) / np.sqrt(norm_x_sq)
