"""Node-classification evaluation of embeddings.

Protocol: repeated stratified random train/test splits at a given train
fraction; a one-vs-rest L2-regularized logistic regression per label;
Micro-F1 (globally pooled true/false positives and false negatives) and
Macro-F1 (unweighted mean of per-label F1). Everything is a
deterministic function of its inputs and the seed.

``evaluate`` sets every loaded OpenBLAS to one thread while it runs and
restores the previous counts when it returns, so its reports do not
depend on the caller's BLAS thread count. The setting is process-global:
BLAS calls made by other threads of the process during ``evaluate`` also
run on one thread. Each L-BFGS-B objective call does two matrix-vector
products on the training rows, too small to pay for waking a second
thread.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
import scipy.optimize
import scipy.special

from ._blas import single_blas_thread
from .dataio import config_record
from .errors import NumericalError

__all__ = [
    "EvalConfig",
    "OvrClassifier",
    "EvalReport",
    "train_ovr",
    "predict",
    "micro_f1",
    "macro_f1",
    "evaluate",
    "stratified_split",
]


@dataclass(frozen=True)
class EvalConfig:
    """The evaluation protocol; l2_strength is the inverse L2 penalty."""

    train_fraction: float = 0.5
    repeats: int = 10
    seed: int = 0
    l2_strength: float = 1.0

    def validate(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if not isinstance(self.repeats, Integral) or self.repeats < 1:
            raise ValueError(f"repeats must be an integer >= 1, got {self.repeats}")
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")
        if not self.l2_strength > 0:
            raise ValueError(f"l2_strength must be positive, got {self.l2_strength}")


@dataclass(frozen=True)
class OvrClassifier:
    """One binary logistic model per label.

    Labels with no positive training examples are degenerate: they
    always predict negative and are flagged in degenerate_labels.
    """

    num_labels: int
    weights: np.ndarray
    biases: np.ndarray
    degenerate_labels: tuple = ()


@dataclass
class EvalReport:
    config: EvalConfig
    micro_f1_mean: float
    micro_f1_std: float
    macro_f1_mean: float
    macro_f1_std: float
    per_repeat_micro: list = field(default_factory=list)
    per_repeat_macro: list = field(default_factory=list)
    degenerate_label_counts: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The metrics and every setting, the settings as ``config_record`` writes them."""
        return {
            **config_record(self.config),
            "micro_f1_mean": float(self.micro_f1_mean),
            "micro_f1_std": float(self.micro_f1_std),
            "macro_f1_mean": float(self.macro_f1_mean),
            "macro_f1_std": float(self.macro_f1_std),
            "per_repeat_micro": [float(v) for v in self.per_repeat_micro],
            "per_repeat_macro": [float(v) for v in self.per_repeat_macro],
            "degenerate_label_counts": [int(v) for v in self.degenerate_label_counts],
        }


def _logistic_objective(params: np.ndarray, x: np.ndarray, y: np.ndarray,
                        l2_strength: float):
    """(loss, gradient) of the regularized negative log-likelihood with
    +/-1 targets; params holds the weights, then the unpenalized bias."""
    dim = x.shape[1]
    w = params[:dim]
    b = params[dim]
    margins = y * (x @ w + b)
    loss = np.logaddexp(0.0, -margins).sum() + (w @ w) / (2.0 * l2_strength)
    slack = y * scipy.special.expit(-margins)
    grad = np.empty(dim + 1)
    grad[:dim] = -(x.T @ slack) + w / l2_strength
    grad[dim] = -slack.sum()
    return loss, grad


def _fit_binary(x: np.ndarray, y: np.ndarray, l2_strength: float):
    """Minimize the convex logistic objective; bias is unpenalized."""
    dim = x.shape[1]
    result = scipy.optimize.minimize(
        _logistic_objective,
        np.zeros(dim + 1),
        args=(x, y, l2_strength),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 1000, "gtol": 1e-6, "ftol": 1e-15},
    )
    if not np.all(np.isfinite(result.x)):
        raise NumericalError("logistic regression produced non-finite weights")
    return result.x[:dim], float(result.x[dim])


def _indicator(label_sets, universe) -> np.ndarray:
    """Boolean matrix whose row i marks the labels of label_sets[i], with
    column j standing for label universe[j]; other labels are left out."""
    column = {label: j for j, label in enumerate(universe)}
    rows = [row for row, held in enumerate(label_sets) for l in held if l in column]
    cols = [column[l] for held in label_sets for l in held if l in column]
    out = np.zeros((len(label_sets), len(column)), dtype=bool)
    out[rows, cols] = True
    return out


def train_ovr(
    emb: np.ndarray,
    labels: np.ndarray,
    train_idx,
    l2_strength: float = 1.0,
) -> OvrClassifier:
    """Fit one binary classifier per label on the given training nodes.

    ``labels`` is the boolean node-by-label matrix ``load_labels`` returns.
    The penalty on label j's weight vector is ||w_j||^2 / (2 * l2_strength).
    """
    train_idx = np.asarray(train_idx, dtype=np.int64)
    if train_idx.size == 0:
        raise ValueError("train_idx must be nonempty")
    if not l2_strength > 0:
        raise ValueError(f"l2_strength must be positive, got {l2_strength}")
    outside = (train_idx < 0) | (train_idx >= emb.shape[0])
    if outside.any():
        raise ValueError(f"train node {train_idx[outside][0]} outside embedding rows")
    beyond = train_idx >= labels.shape[0]
    if beyond.any():
        raise ValueError(f"train node {train_idx[beyond][0]} outside the label set")
    members = labels[train_idx]
    unlabeled = ~members.any(axis=1)
    if unlabeled.any():
        raise ValueError(f"train node {train_idx[unlabeled][0]} has no labels")

    x = emb[train_idx]
    targets = np.where(members, 1.0, -1.0)
    positive = members.any(axis=0)
    weights = np.zeros((labels.shape[1], emb.shape[1]))
    biases = np.zeros(labels.shape[1])
    for label in np.flatnonzero(positive):
        weights[label], biases[label] = _fit_binary(x, targets[:, label], l2_strength)
    return OvrClassifier(
        num_labels=labels.shape[1],
        weights=weights,
        biases=biases,
        degenerate_labels=tuple(np.flatnonzero(~positive).tolist()),
    )


def predict(clf: OvrClassifier, rows: np.ndarray, k) -> np.ndarray:
    """Each row's k highest-scoring labels, as a boolean row-by-label matrix.

    rows holds one embedding vector per row; k is one label count for
    every row or one per row, each in [1, num_labels]. Degenerate labels
    score -inf, and ties go to the lowest label id.
    """
    k = np.broadcast_to(np.asarray(k), (rows.shape[0],))
    if np.any(k < 1) or np.any(k > clf.num_labels):
        raise ValueError(f"k must be in [1, {clf.num_labels}], got {k}")
    scores = rows @ clf.weights.T + clf.biases
    scores[:, list(clf.degenerate_labels)] = -np.inf
    order = np.argsort(-scores, axis=1, kind="stable")
    picked = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(picked, order, np.arange(clf.num_labels) < k[:, None], axis=1)
    return picked


def _f1_scores(predicted: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(Micro-F1, Macro-F1) of boolean row-by-label predictions.

    A label with no true and no predicted rows has F1 0.
    """
    tp = (predicted & truth).sum(axis=0)
    denom = predicted.sum(axis=0) + truth.sum(axis=0)  # 2 TP + FP + FN per label
    micro = 2 * int(tp.sum()) / max(int(denom.sum()), 1)
    per_label = np.divide(2 * tp, denom, out=np.zeros(denom.shape), where=denom > 0)
    # Summed left to right in label order: np.sum adds pairwise from 8
    # terms up, which can change the last bit.
    total = 0.0
    for value in per_label.tolist():
        total += value
    return micro, total / max(per_label.size, 1)


def _label_matrices(predicted, truth, num_labels=None):
    """Indicator matrices of two label-set lists over labels 0..num_labels-1,
    or over the labels seen in either list when num_labels is None."""
    predicted = [frozenset(p) for p in predicted]
    truth = [frozenset(t) for t in truth]
    if len(predicted) != len(truth):
        raise ValueError("predicted and truth must cover the same nodes")
    if not predicted:
        raise ValueError("cannot score an empty evaluation set")
    seen = sorted(set().union(*predicted, *truth))
    universe = seen if num_labels is None else range(num_labels)
    return _indicator(predicted, universe), _indicator(truth, universe)


def micro_f1(predicted, truth) -> float:
    """F1 over TP/FP/FN pooled across every label and node."""
    return _f1_scores(*_label_matrices(predicted, truth))[0]


def macro_f1(predicted, truth, num_labels: int | None = None) -> float:
    """Unweighted mean of per-label F1.

    Labels with no true and no predicted instances contribute 0. The
    label universe is 0..num_labels-1 when given, else the union of
    labels seen in truth or predictions.
    """
    predicted, truth = _label_matrices(predicted, truth, num_labels)
    if not truth.shape[1]:
        raise ValueError("no labels to score")
    return _f1_scores(predicted, truth)[1]


def stratified_split(
    labels: np.ndarray, train_fraction: float, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Split labeled nodes into train/test, stratified by label set.

    Nodes sharing an identical label set (an identical row of the boolean
    node-by-label matrix) form one stratum; each stratum contributes
    round(fraction * size) nodes to training. Strata draw their shuffles
    in the order of their sorted label-id tuples, so {0} comes before
    {0, 1}. Guarantees both sides nonempty by moving a single node if
    needed.
    """
    labeled = np.flatnonzero(labels.any(axis=1))
    if not labeled.size:
        raise ValueError("no labeled nodes to split")
    # Each row packed into one byte string: np.unique sorts those over ten
    # times faster than the rows themselves (axis=0 sorts a record per row).
    packed = np.packbits(labels[labeled], axis=1)
    _, first, stratum_of = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                     return_index=True, return_inverse=True)
    # Byte order puts {0, 1} before {0}; the draws follow the label-id tuples.
    keys = [tuple(np.flatnonzero(labels[labeled[i]]).tolist()) for i in first]
    train: list[int] = []
    test: list[int] = []
    starving = 0
    for stratum in sorted(range(len(keys)), key=keys.__getitem__):
        members = labeled[stratum_of == stratum]
        order = rng.permutation(len(members))
        n_train = int(np.floor(train_fraction * len(members) + 0.5))
        n_train = min(max(n_train, 0), len(members))
        if n_train == 0:
            starving += 1
        shuffled = members[order].tolist()
        train.extend(shuffled[:n_train])
        test.extend(shuffled[n_train:])
    if starving:
        warnings.warn(
            f"{starving} label group(s) received no training nodes "
            f"at fraction {train_fraction}",
            stacklevel=2,
        )
    if not train:
        train.append(test.pop(0))
    if not test:
        test.append(train.pop())
    return sorted(train), sorted(test)


def evaluate(
    emb: np.ndarray, labels: np.ndarray, config: EvalConfig = EvalConfig()
) -> EvalReport:
    """Repeated stratified-split evaluation of boolean node labels; deterministic in the seed.
    ``labels`` may stop short of the embedding's rows (unlabeled trailing nodes);
    a label on a node past the last row raises ValueError."""
    config.validate()
    labeled = np.flatnonzero(labels.any(axis=1))
    if labeled.size < 2:
        raise ValueError("need at least 2 labeled nodes to evaluate")
    if labeled[-1] >= emb.shape[0]:
        raise ValueError(
            f"label file references node {labeled[-1]} but embeddings "
            f"have {emb.shape[0]} rows"
        )
    scores = []
    degenerate_counts = []
    with single_blas_thread():
        for rep in range(config.repeats):
            rng = np.random.default_rng([config.seed, rep])
            train_idx, test_idx = stratified_split(labels, config.train_fraction, rng)
            clf = train_ovr(emb, labels, train_idx, config.l2_strength)
            truth = labels[test_idx]
            predicted = predict(clf, emb[test_idx], truth.sum(axis=1))
            scores.append(_f1_scores(predicted, truth))
            degenerate_counts.append(len(clf.degenerate_labels))
    micro_scores, macro_scores = zip(*scores)
    return EvalReport(
        config=config,
        micro_f1_mean=float(np.mean(micro_scores)),
        micro_f1_std=float(np.std(micro_scores)),
        macro_f1_mean=float(np.mean(macro_scores)),
        macro_f1_std=float(np.std(macro_scores)),
        per_repeat_micro=[float(v) for v in micro_scores],
        per_repeat_macro=[float(v) for v in macro_scores],
        degenerate_label_counts=degenerate_counts,
    )
