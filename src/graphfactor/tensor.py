"""Three-mode view tensor: sparse per-view slices plus the contractions
needed by alternating least squares.

The tensor is stored as a list of sparse frontal slices (one per view),
which matches its construction from stacked node-by-node matrices and
keeps the dominant contraction (MTTKRP) at O(nnz * rank).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .dataio import Graph
from .knn import KnnView

__all__ = ["Tensor3", "stack_views", "mttkrp", "reconstruct_view", "fit"]


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

    def norm_sq(self) -> float:
        return self._norm_sq

    @cached_property
    def _norm_sq(self) -> float:
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
    to the other view as an isolated node, so both views span the larger
    node count.
    """
    if knn is None:
        return Tensor3.from_slices([graph.to_csr()])
    z = knn.to_csr() if isinstance(knn, KnnView) else sp.csr_matrix(knn)
    if z.shape[0] != z.shape[1]:
        raise ValueError(f"K-NN view must be square, got {z.shape[0]}x{z.shape[1]}")
    num_nodes = max(graph.num_nodes, z.shape[0])
    if z.shape[0] != num_nodes:
        z.resize((num_nodes, num_nodes))
    adj = dataclasses.replace(graph, num_nodes=num_nodes).to_csr()
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
    computed from the sparse slices without forming either product.
    """
    if mode not in (0, 1, 2):
        raise ValueError(f"mode must be 0, 1, or 2, got {mode}")
    i_dim, j_dim, l_dim = x.dims
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    other_rows = {0: (j_dim, l_dim), 1: (i_dim, l_dim), 2: (i_dim, j_dim)}[mode]
    _check_factor("f1", f1, other_rows[0], None)
    _check_factor("f2", f2, other_rows[1], f1.shape[1])
    rank = f1.shape[1]

    if mode == 0:
        out = np.zeros((i_dim, rank))
        for l, s in enumerate(x.slices):
            out += (s @ f1) * f2[l]
        return out
    if mode == 1:
        out = np.zeros((j_dim, rank))
        for l, s in enumerate(x.slices):
            out += (s.T @ f1) * f2[l]
        return out
    out = np.zeros((l_dim, rank))
    for l, s in enumerate(x.slices):
        out[l] = np.einsum("ir,ir->r", f1, s @ f2)
    return out


def reconstruct_view(model, view: int) -> np.ndarray:
    """Dense reconstruction of one view from the factor model."""
    n_views = model.C.shape[0]
    if not 0 <= view < n_views:
        raise ValueError(f"view {view} out of range for {n_views} views")
    coef = model.column_scales * model.C[view]
    return (model.A * coef) @ model.B.T


def fit(x: Tensor3, model) -> float:
    """1 minus the relative Frobenius residual of the CP reconstruction.

    Uses the expanded residual-norm identity so the dense reconstruction
    is never materialized; 1.0 means an exact fit. The identity's terms
    cancel as the residual shrinks: the fit's error is about
    eps / (2 * (1 - fit)), so near an exact fit it is only accurate to
    about sqrt(eps), a few times 1e-8.
    """
    i_dim, j_dim, l_dim = x.dims
    _check_factor("A", model.A, i_dim, None)
    _check_factor("B", model.B, j_dim, model.A.shape[1])
    _check_factor("C", model.C, l_dim, model.A.shape[1])
    weighted_c = model.C * model.column_scales
    ab_gram = (model.A.T @ model.A) * (model.B.T @ model.B)
    return fit_from_view_mttkrp(x, mttkrp(x, model.A, model.B, 2), ab_gram, weighted_c)


def fit_from_view_mttkrp(x: Tensor3, m_view, ab_gram, weighted_c) -> float:
    """The fit of a model from pieces an ALS sweep already holds.

    ``m_view`` is the view-mode MTTKRP of the node factors A and B,
    ``ab_gram`` is (A^T A) * (B^T B), and ``weighted_c`` is the view
    factor with the component scales multiplied in. Then <X, X_hat> =
    sum(m_view * weighted_c) and ||X_hat||^2 = sum(ab_gram * (weighted_c^T
    weighted_c)) (Kolda & Bader, SIAM Review 2009, section 3.4). Like
    ``fit``, the result is only accurate to about sqrt(eps) near an
    exact fit, where ||X||^2 - 2 <X, X_hat> + ||X_hat||^2 cancels.
    """
    norm_x_sq = x.norm_sq()
    if norm_x_sq == 0.0:
        raise ValueError("tensor has zero norm; fit is undefined")
    inner = float(np.sum(m_view * weighted_c))
    est_sq = float(np.sum(ab_gram * (weighted_c.T @ weighted_c)))
    resid_sq = max(norm_x_sq - 2.0 * inner + est_sq, 0.0)
    return 1.0 - np.sqrt(resid_sq) / np.sqrt(norm_x_sq)
