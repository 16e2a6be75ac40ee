"""Node embeddings from factor models, plus weight-threshold pruning.

Embedding rows come from the node factors with the per-component scales
multiplied back in, so column magnitudes reflect how much each component
contributes to the reconstruction. A component's weight is its largest
absolute scale-weighted view coefficient; pruning drops components whose
weight falls below a threshold, in every copy an embedding holds.
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

EMBEDDING_SOURCES = ("A", "B", "A-concat-B")


def view_dimension_weights(model: FactorModel) -> np.ndarray:
    """|scale_r * C(l, r)| per (view l, component r).

    Computed on the canonical (node factors column-normalized) form so
    the value does not depend on how magnitude is split between the
    factors and the scales. Only its scales are formed, not its factors.
    """
    return np.abs(model.C * model.normalized_scales())


def dimension_weights(model: FactorModel) -> np.ndarray:
    """Per-component weight: the largest of its view weights."""
    return view_dimension_weights(model).max(axis=0)


def extract_embeddings(model: FactorModel, source: str = "A") -> np.ndarray:
    """Rows of the chosen node factor, scale-weighted per column."""
    if source not in EMBEDDING_SOURCES:
        raise ValueError(f"source must be one of {EMBEDDING_SOURCES}, got {source!r}")
    if source == "A":
        rows = model.A * model.column_scales
    elif source == "B":
        rows = model.B * model.column_scales
    else:
        rows = np.hstack(
            [model.A * model.column_scales, model.B * model.column_scales]
        )
    return np.ascontiguousarray(rows, dtype=np.float64)


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
