"""Node embeddings from factor models, plus weight-threshold pruning.

Embedding rows come from the node factors with the per-component scales
multiplied back in, so column magnitudes reflect how much each component
contributes to the reconstruction. A component's weight is its largest
absolute scale-weighted view coefficient; pruning drops components whose
weight falls below a threshold.
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
    factors and the scales.
    """
    canonical = model.normalized()
    return np.abs(canonical.C * canonical.column_scales)


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
    """Drop embedding columns whose component weight is below threshold.

    Surviving columns keep their original order. Pruning an
    already-pruned embedding with the same threshold is a no-op.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    weights = dimension_weights(model)
    removed = [r for r in range(model.rank) if weights[r] < threshold]
    dim = emb.shape[1]
    if dim == model.rank - len(removed) and dim != model.rank:
        return emb, []
    if dim != model.rank:
        raise ValueError(
            f"embedding dim {dim} does not match model rank {model.rank}"
        )
    if len(removed) == model.rank:
        raise ValueError(
            f"threshold {threshold} removes all {model.rank} dimensions; "
            "the embedding would be empty"
        )
    if not removed:
        return emb, []
    kept = [r for r in range(model.rank) if weights[r] >= threshold]
    return np.ascontiguousarray(emb[:, kept]), removed
