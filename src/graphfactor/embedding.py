"""Node embeddings from factor models, plus weight-threshold pruning.

Embedding rows come from the node factors with the per-component scales
multiplied back in, so column magnitudes reflect how much each component
contributes to the reconstruction. A component's weight in a view is the
Frobenius norm of its rank-one term there, so a dead component weighs 0;
pruning drops components whose largest view weight falls below a
threshold, in every copy an embedding holds.
"""

from __future__ import annotations

import numpy as np

from .cpals import FactorModel

__all__ = [
    "EMBEDDING_SOURCES",
    "view_dimension_weights",
    "dimension_weights",
    "extract_embeddings",
    "prune_dimensions",
]

# The node factors each embedding source holds side by side.
_SOURCE_FACTORS = {"A": ("A",), "B": ("B",), "A-concat-B": ("A", "B")}
EMBEDDING_SOURCES = tuple(_SOURCE_FACTORS)


def view_dimension_weights(model: FactorModel) -> np.ndarray:
    """||column_scales[r] * C(l, r) * outer(A[:, r], B[:, r])||_F per (view l, component r).

    The canonical-form weight, whatever split of magnitude the model holds
    between factors and scales; 0 exactly when the rank-one term is 0.
    """
    a_norms, b_norms = np.linalg.norm(model.A, axis=0), np.linalg.norm(model.B, axis=0)
    return np.abs(model.C * (model.column_scales * a_norms * b_norms))


def dimension_weights(model: FactorModel) -> np.ndarray:
    """Per-component weight: the largest of its view weights."""
    return view_dimension_weights(model).max(axis=0)


def extract_embeddings(model: FactorModel, source: str = "A") -> np.ndarray:
    """The source's node factors side by side in float64, scale-weighted per column."""
    if source not in EMBEDDING_SOURCES:
        raise ValueError(f"source must be one of {EMBEDDING_SOURCES}, got {source!r}")
    factors = _SOURCE_FACTORS[source]
    rows = np.hstack([getattr(model, name) for name in factors], dtype=np.float64)
    rows *= np.tile(model.column_scales, len(factors))
    return np.ascontiguousarray(rows)  # hstack keeps Fortran-ordered factors' layout


def prune_dimensions(
    emb: np.ndarray, model: FactorModel, threshold: float
) -> tuple[np.ndarray, list[int]]:
    """Drop the embedding columns of every component whose weight is below threshold.

    ``emb`` holds whole copies of the model's components side by side (one
    for source A or B, two for A-concat-B), so its width must be a multiple
    of the rank; a removed component loses its column in every copy.
    Returns the pruned embedding, surviving columns in their original order,
    and the removed column ids: component r of copy c is column
    ``c * rank + r``, so for one copy they are the component ids.
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    rank, dim = model.rank, emb.shape[1]
    if dim % rank:
        raise ValueError(f"embedding dim {dim} is not a multiple of model rank {rank}")
    below = np.tile(dimension_weights(model) < threshold, dim // rank)
    if below.all():
        raise ValueError(
            f"threshold {threshold} removes all {rank} dimensions; "
            "the embedding would be empty"
        )
    if not below.any():
        return emb, []
    return np.ascontiguousarray(emb[:, ~below]), np.flatnonzero(below).tolist()
