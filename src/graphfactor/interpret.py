"""Interpretability artifacts for a fitted factor model.

Three analyses: the per-view weight table of
``embedding.view_dimension_weights`` written as CSV, a pruning report
comparing classification quality before and after dropping low-weight
dimensions under identical evaluation seeds, and the maximum absolute
Pearson correlation of each removed embedding column against the
surviving columns.
"""

from __future__ import annotations

import numpy as np

from .cpals import FactorModel
from .dataio import config_record, save_text
from .embedding import prune_dimensions
from .evaluate import EvalConfig, EvalReport, evaluate

__all__ = [
    "write_weights_csv",
    "pruning_report",
    "dimension_correlation",
]


def write_weights_csv(weights: np.ndarray, path) -> None:
    """One row per dimension, one column per view of a ``view_dimension_weights`` table."""
    num_views, num_dims = weights.shape
    header = "dimension," + ",".join(f"view_{l}" for l in range(num_views))
    lines = [header]
    for r in range(num_dims):
        cells = [str(r)] + [repr(float(weights[l, r])) for l in range(num_views)]
        lines.append(",".join(cells))
    save_text(path, "\n".join(lines) + "\n")


def dimension_correlation(emb: np.ndarray, removed) -> dict:
    """Max |Pearson r| of each removed column against surviving columns.

    Columns with zero variance correlate 0 with everything by
    convention. Empty, not an error, when nothing is removed, fewer than
    two dimensions survive, or the embedding has fewer than three nodes;
    a removed column outside the embedding raises ValueError.
    """
    num_nodes, dim = emb.shape
    removed = sorted(int(r) for r in removed)
    for r in removed:
        if r < 0 or r >= dim:
            raise ValueError(f"removed dimension {r} outside embedding dim {dim}")
    survivors = [r for r in range(dim) if r not in set(removed)]
    if not removed or len(survivors) < 2 or num_nodes < 3:
        return {}
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
    labels: np.ndarray,
    threshold: float,
    before: EvalReport | EvalConfig = EvalConfig(),
) -> dict:
    """Classification quality before vs. after pruning, same seeds.

    ``emb`` is an unpruned embedding of ``model`` from any source.
    ``before`` is its evaluation, already computed by the caller, or the
    ``EvalConfig`` to evaluate it under; the pruned embedding is scored
    under ``before.config``. A bad threshold is rejected before any
    evaluation. The report embeds the removed embedding columns, the
    column counts before and after, both evaluation summaries, the
    Micro-F1 delta, and the removed columns' ``dimension_correlation``.
    """
    pruned_emb, removed = prune_dimensions(emb, model, threshold)
    if isinstance(before, EvalConfig):
        before = evaluate(emb, labels, before)
    after = evaluate(pruned_emb, labels, before.config) if removed else before

    dim = emb.shape[1]
    corr = dimension_correlation(emb, removed)
    correlations = [{"dimension": r, "max_abs_pearson": float(corr[r])} for r in sorted(corr)]
    return {
        "threshold": float(threshold),
        "removed_dimensions": [int(r) for r in removed],
        "dims_before": int(dim),
        "dims_after": int(dim - len(removed)),
        "micro_f1_before": float(before.micro_f1_mean),
        "micro_f1_after": float(after.micro_f1_mean),
        "micro_f1_delta": float(after.micro_f1_mean - before.micro_f1_mean),
        "macro_f1_before": float(before.macro_f1_mean),
        "macro_f1_after": float(after.macro_f1_mean),
        "removed_dimension_correlations": correlations,
        "eval_config": config_record(before.config),
        "evaluation_before": before.to_dict(),
        "evaluation_after": after.to_dict(),
    }
