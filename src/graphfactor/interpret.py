"""Interpretability artifacts for a fitted factor model.

Three analyses: the per-view weight table read off the view factor
(absolute, scale-weighted coefficients of the canonical model), a
pruning report comparing classification quality before and after
dropping low-weight dimensions under identical evaluation seeds, and
the maximum absolute Pearson correlation of each removed embedding
column against the surviving columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cpals import FactorModel
from .dataio import EmbeddingMatrix, LabelSet
from .embedding import prune_dimensions, view_dimension_weights
from .evaluate import EvalReport, evaluate

__all__ = [
    "ViewWeightTable",
    "view_weights",
    "write_weights_csv",
    "pruning_report",
    "dimension_correlation",
]

DEFAULT_EVAL_CONFIG = {
    "train_fraction": 0.5,
    "repeats": 10,
    "seed": 0,
    "l2_strength": 1.0,
}


@dataclass(frozen=True)
class ViewWeightTable:
    """|scale-weighted view coefficient| per (view, dimension)."""

    num_views: int
    num_dims: int
    weights: np.ndarray
    threshold: float | None = None


def view_weights(model: FactorModel, threshold: float | None = None) -> ViewWeightTable:
    """Per-view contribution of each dimension.

    Computed on the canonical form (node factors column-normalized), so
    the table depends only on the reconstruction the model denotes, not
    on how magnitude is split between factors and scales.
    """
    weights = view_dimension_weights(model)
    return ViewWeightTable(
        num_views=weights.shape[0],
        num_dims=weights.shape[1],
        weights=weights,
        threshold=threshold,
    )


def write_weights_csv(table: ViewWeightTable, path) -> None:
    """One row per dimension, one weight column per view."""
    header = "dimension," + ",".join(f"view_{l}" for l in range(table.num_views))
    lines = [header]
    for r in range(table.num_dims):
        cells = [str(r)] + [repr(float(table.weights[l, r])) for l in range(table.num_views)]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def dimension_correlation(emb: EmbeddingMatrix, removed) -> dict:
    """Max |Pearson r| of each removed column against surviving columns.

    Columns with zero variance correlate 0 with everything by
    convention. Requires at least two surviving dimensions and three
    nodes.
    """
    removed = sorted(int(r) for r in removed)
    for r in removed:
        if r < 0 or r >= emb.dim:
            raise ValueError(f"removed dimension {r} outside embedding dim {emb.dim}")
    survivors = [r for r in range(emb.dim) if r not in set(removed)]
    if len(survivors) < 2:
        raise ValueError("need at least 2 surviving dimensions")
    if emb.num_nodes < 3:
        raise ValueError("need at least 3 nodes to correlate dimensions")
    centered = emb.rows - emb.rows.mean(axis=0)
    norms = np.linalg.norm(centered, axis=0)
    result = {}
    for r in removed:
        if norms[r] == 0.0:
            result[r] = 0.0
            continue
        best = 0.0
        for s in survivors:
            if norms[s] == 0.0:
                continue
            corr = abs(float(centered[:, r] @ centered[:, s]) / (norms[r] * norms[s]))
            best = max(best, corr)
        result[r] = min(best, 1.0)
    return result


def pruning_report(
    model: FactorModel,
    emb: EmbeddingMatrix,
    labels: LabelSet,
    threshold: float,
    eval_config: dict | None = None,
    *,
    before: EvalReport | None = None,
) -> dict:
    """Classification quality before vs. after pruning, same seeds.

    ``emb`` must be the unpruned source-A embedding of ``model``.
    ``before``, when given, is that embedding's evaluation under
    ``eval_config``, already computed by the caller; it is used in place
    of evaluating again. The report embeds the removed dimensions, both
    evaluation summaries, the Micro-F1 delta, and per-removed-dimension
    correlations when computable.
    """
    config = dict(DEFAULT_EVAL_CONFIG)
    if eval_config:
        unknown = set(eval_config) - set(DEFAULT_EVAL_CONFIG)
        if unknown:
            raise ValueError(f"unknown eval_config keys: {sorted(unknown)}")
        config.update(eval_config)

    if before is None:
        before = evaluate(
            emb,
            labels,
            train_fraction=config["train_fraction"],
            repeats=config["repeats"],
            seed=config["seed"],
            l2_strength=config["l2_strength"],
        )
    elif (before.train_fraction, before.repeats) != (
        config["train_fraction"], config["repeats"]
    ):
        raise ValueError(
            f"before report (train fraction {before.train_fraction}, "
            f"{before.repeats} repeats) does not match eval_config "
            f"({config['train_fraction']}, {config['repeats']} repeats)"
        )
    pruned_emb, removed = prune_dimensions(emb, model, threshold)
    if removed:
        after = evaluate(
            pruned_emb,
            labels,
            train_fraction=config["train_fraction"],
            repeats=config["repeats"],
            seed=config["seed"],
            l2_strength=config["l2_strength"],
        )
    else:
        after = before

    correlations = []
    survivors = emb.dim - len(removed)
    if removed and survivors >= 2 and emb.num_nodes >= 3:
        corr = dimension_correlation(emb, removed)
        correlations = [
            {"dimension": r, "max_abs_pearson": float(corr[r])} for r in sorted(corr)
        ]
    return {
        "threshold": float(threshold),
        "removed_dimensions": [int(r) for r in removed],
        "dims_before": int(emb.dim),
        "dims_after": int(emb.dim - len(removed)),
        "micro_f1_before": float(before.micro_f1_mean),
        "micro_f1_after": float(after.micro_f1_mean),
        "micro_f1_delta": float(after.micro_f1_mean - before.micro_f1_mean),
        "macro_f1_before": float(before.macro_f1_mean),
        "macro_f1_after": float(after.macro_f1_mean),
        "removed_dimension_correlations": correlations,
        "eval_config": {
            "train_fraction": float(config["train_fraction"]),
            "repeats": int(config["repeats"]),
            "seed": int(config["seed"]),
            "l2_strength": float(config["l2_strength"]),
        },
        "evaluation_before": before.to_dict(),
        "evaluation_after": after.to_dict(),
    }
