"""Interpretability artifacts for a fitted factor model.

Three analyses: the per-view weight table read off the view factor
(absolute, scale-weighted coefficients of the canonical model), a
pruning report comparing classification quality before and after
dropping low-weight dimensions under identical evaluation seeds, and
the maximum absolute Pearson correlation of each removed embedding
column against the surviving columns.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .cpals import FactorModel
from .dataio import LabelSet
from .embedding import prune_dimensions, view_dimension_weights
from .evaluate import EvalConfig, EvalReport, evaluate

__all__ = [
    "view_weights",
    "write_weights_csv",
    "pruning_report",
    "dimension_correlation",
]

def view_weights(model: FactorModel) -> np.ndarray:
    """Per-view contribution of each dimension, as a views x dimensions array.

    Computed on the canonical form (node factors column-normalized), so
    the table depends only on the reconstruction the model denotes, not
    on how magnitude is split between factors and scales.
    """
    return view_dimension_weights(model)


def write_weights_csv(weights: np.ndarray, path) -> None:
    """One row per dimension, one weight column per view."""
    num_views, num_dims = weights.shape
    header = "dimension," + ",".join(f"view_{l}" for l in range(num_views))
    lines = [header]
    for r in range(num_dims):
        cells = [str(r)] + [repr(float(weights[l, r])) for l in range(num_views)]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def dimension_correlation(emb: np.ndarray, removed) -> dict:
    """Max |Pearson r| of each removed column against surviving columns.

    Columns with zero variance correlate 0 with everything by
    convention. Requires at least two surviving dimensions and three
    nodes.
    """
    num_nodes, dim = emb.shape
    removed = sorted(int(r) for r in removed)
    for r in removed:
        if r < 0 or r >= dim:
            raise ValueError(f"removed dimension {r} outside embedding dim {dim}")
    survivors = [r for r in range(dim) if r not in set(removed)]
    if len(survivors) < 2:
        raise ValueError("need at least 2 surviving dimensions")
    if num_nodes < 3:
        raise ValueError("need at least 3 nodes to correlate dimensions")
    centered = emb - emb.mean(axis=0)
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
    emb: np.ndarray,
    labels: LabelSet,
    threshold: float,
    eval_config: EvalConfig = EvalConfig(),
    *,
    before: EvalReport | None = None,
) -> dict:
    """Classification quality before vs. after pruning, same seeds.

    ``emb`` must be the unpruned source-A embedding of ``model``; both
    embeddings are evaluated under ``eval_config``. ``before``, when
    given, is that embedding's evaluation under ``eval_config``, already
    computed by the caller; it is used in place of evaluating again, and
    a report made under any other config is rejected. The report embeds
    the removed dimensions, both evaluation summaries, the Micro-F1
    delta, and per-removed-dimension correlations when computable.
    """
    if before is None:
        before = evaluate(emb, labels, eval_config)
    elif before.config != eval_config:
        made = before.config
        raise ValueError(
            f"before report (train fraction {made.train_fraction}, {made.repeats} repeats, "
            f"seed {made.seed}, l2 strength {made.l2_strength}) does not match {eval_config}"
        )
    pruned_emb, removed = prune_dimensions(emb, model, threshold)
    after = evaluate(pruned_emb, labels, eval_config) if removed else before

    num_nodes, dim = emb.shape
    correlations = []
    survivors = dim - len(removed)
    if removed and survivors >= 2 and num_nodes >= 3:
        corr = dimension_correlation(emb, removed)
        correlations = [
            {"dimension": r, "max_abs_pearson": float(corr[r])} for r in sorted(corr)
        ]
    return {
        "threshold": float(threshold),
        "removed_dimensions": [int(r) for r in removed],
        "dims_before": int(dim),
        "dims_after": int(survivors),
        "micro_f1_before": float(before.micro_f1_mean),
        "micro_f1_after": float(after.micro_f1_mean),
        "micro_f1_delta": float(after.micro_f1_mean - before.micro_f1_mean),
        "macro_f1_before": float(before.macro_f1_mean),
        "macro_f1_after": float(after.macro_f1_mean),
        "removed_dimension_correlations": correlations,
        "eval_config": {
            "train_fraction": float(eval_config.train_fraction),
            "repeats": int(eval_config.repeats),
            "seed": int(eval_config.seed),
            "l2_strength": float(eval_config.l2_strength),
        },
        "evaluation_before": before.to_dict(),
        "evaluation_after": after.to_dict(),
    }
