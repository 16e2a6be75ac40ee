"""Independent reference implementations used to check the package.

Everything here is written against dense numpy arrays with the most
literal formulas available (triple loops, brute-force sorts, textbook
Newton iterations), deliberately sharing no code path with the package.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- tensors


def matricize(dense: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding with the remaining axes in ascending order."""
    return np.moveaxis(dense, mode, 0).reshape(dense.shape[mode], -1, order="F")


def khatri_rao(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product; row (i, j) = left[i] * right[j]."""
    rank = left.shape[1]
    assert right.shape[1] == rank
    out = np.zeros((left.shape[0] * right.shape[0], rank))
    for r in range(rank):
        out[:, r] = np.kron(left[:, r], right[:, r])
    return out


def oracle_mttkrp(dense: np.ndarray, f1: np.ndarray, f2: np.ndarray, mode: int) -> np.ndarray:
    """Literal triple-loop contraction over every tensor entry."""
    i_dim, j_dim, l_dim = dense.shape
    rank = f1.shape[1]
    sizes = {0: i_dim, 1: j_dim, 2: l_dim}
    out = np.zeros((sizes[mode], rank))
    for i in range(i_dim):
        for j in range(j_dim):
            for l in range(l_dim):
                v = dense[i, j, l]
                if v == 0.0:
                    continue
                for r in range(rank):
                    if mode == 0:
                        out[i, r] += v * f1[j, r] * f2[l, r]
                    elif mode == 1:
                        out[j, r] += v * f1[i, r] * f2[l, r]
                    else:
                        out[l, r] += v * f1[i, r] * f2[j, r]
    return out


def oracle_reconstruct(a, b, c, scales) -> np.ndarray:
    """Dense tensor from CP factors, one rank-1 term at a time."""
    i_dim, rank = a.shape
    dense = np.zeros((i_dim, b.shape[0], c.shape[0]))
    for r in range(rank):
        for l in range(c.shape[0]):
            dense[:, :, l] += scales[r] * c[l, r] * np.outer(a[:, r], b[:, r])
    return dense


def oracle_fit(dense: np.ndarray, a, b, c, scales) -> float:
    recon = oracle_reconstruct(a, b, c, scales)
    return 1.0 - np.linalg.norm(dense - recon) / np.linalg.norm(dense)


def oracle_als_sweep(dense: np.ndarray, a, b, c, scales):
    """One dense least-squares sweep (modes in ascending order).

    Solves each factor with numpy's lstsq against the explicit unfolding
    and Khatri-Rao matrix, then moves the node-factor column norms into
    the scales — mirroring the package's normalization contract while
    sharing none of its code.
    """
    weighted_c = c * scales

    kr = khatri_rao(weighted_c, b)
    a_raw = np.linalg.lstsq(kr, matricize(dense, 0).T, rcond=None)[0].T

    kr = khatri_rao(weighted_c, a_raw)
    b_raw = np.linalg.lstsq(kr, matricize(dense, 1).T, rcond=None)[0].T

    kr = khatri_rao(b_raw, a_raw)
    c_raw = np.linalg.lstsq(kr, matricize(dense, 2).T, rcond=None)[0].T

    a_norms = np.linalg.norm(a_raw, axis=0)
    b_norms = np.linalg.norm(b_raw, axis=0)
    a_div = np.where(a_norms > 0, a_norms, 1.0)
    b_div = np.where(b_norms > 0, b_norms, 1.0)
    return a_raw / a_div, b_raw / b_div, c_raw, a_div * b_div


def oracle_als(dense: np.ndarray, a, b, c, scales, iters: int):
    """Run the dense sweep repeatedly, recording the fit after each."""
    history = []
    for _ in range(iters):
        a, b, c, scales = oracle_als_sweep(dense, a, b, c, scales)
        history.append(oracle_fit(dense, a, b, c, scales))
    return a, b, c, scales, history


# ------------------------------------------------------------------- knn


def oracle_cosine(dense_features: np.ndarray) -> np.ndarray:
    n = dense_features.shape[0]
    sim = np.zeros((n, n))
    norms = [np.linalg.norm(dense_features[i]) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j or norms[i] == 0.0 or norms[j] == 0.0:
                continue
            sim[i, j] = float(dense_features[i] @ dense_features[j]) / (
                norms[i] * norms[j]
            )
    return sim


def oracle_knn_edges(dense_features: np.ndarray, k: int):
    """Per-row brute-force selection: best k strictly positive
    similarities, ties toward the lower index."""
    sim = oracle_cosine(dense_features)
    n = sim.shape[0]
    edges = []
    for i in range(n):
        ranked = sorted(range(n), key=lambda j: (-sim[i, j], j))
        picked = [j for j in ranked if sim[i, j] > 0.0][:k]
        edges.extend((i, j) for j in picked)
    return edges


# ------------------------------------------------------------ classifier


def oracle_logistic_newton(
    x: np.ndarray,
    y: np.ndarray,
    inverse_strength: float,
    max_iters: int = 200,
    grad_tol: float = 1e-10,
):
    """Damped Newton's method on the regularized logistic objective.

    Minimizes sum_i log(1 + exp(-y_i (x_i.w + b))) + w.w / (2*inverse_strength)
    over (w, b), the bias unpenalized, by solving the exact Hessian system
    each iteration with a backtracking line search on the loss.
    """
    n, dim = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    theta = np.zeros(dim + 1)
    reg = np.zeros(dim + 1)
    reg[:dim] = 1.0 / inverse_strength

    def loss_of(theta):
        m = y * (xb @ theta)
        return np.logaddexp(0.0, -m).sum() + (theta[:dim] @ theta[:dim]) / (2.0 * inverse_strength)

    loss = loss_of(theta)
    for _ in range(max_iters):
        m = y * (xb @ theta)
        # stable sigmoid(-m) = 1/(1+e^m) and its derivative e^m/(1+e^m)^2
        sp = np.exp(-np.abs(m))
        sig_neg = np.where(m >= 0, sp / (1.0 + sp), 1.0 / (1.0 + sp))
        grad = -(xb.T @ (y * sig_neg)) + reg * theta
        if np.max(np.abs(grad)) <= grad_tol:
            break
        curv = sp / np.square(1.0 + sp)
        hess = xb.T @ (curv[:, None] * xb) + np.diag(reg)
        try:
            direction = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
        slope = grad @ direction
        t = 1.0
        while True:
            cand = theta - t * direction
            cand_loss = loss_of(cand)
            if cand_loss <= loss - 1e-4 * t * slope or t < 1e-12:
                break
            t *= 0.5
        theta, loss = cand, cand_loss
    return theta[:dim], theta[dim]


def oracle_top_k(scores, k: int) -> list:
    """The k best labels of one score vector, ties toward the lower id."""
    return sorted(range(len(scores)), key=lambda label: (-scores[label], label))[:k]


# ----------------------------------------------------------------- F1


def oracle_counts(predicted, truth, label):
    tp = fp = fn = 0
    for pred, true in zip(predicted, truth):
        hit_p = label in pred
        hit_t = label in true
        tp += hit_p and hit_t
        fp += hit_p and not hit_t
        fn += hit_t and not hit_p
    return tp, fp, fn


def oracle_micro_f1(predicted, truth, labels) -> float:
    tp = fp = fn = 0
    for label in labels:
        a, b, c = oracle_counts(predicted, truth, label)
        tp += a
        fp += b
        fn += c
    return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0


def oracle_macro_f1(predicted, truth, labels) -> float:
    scores = []
    for label in labels:
        tp, fp, fn = oracle_counts(predicted, truth, label)
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def oracle_pearson(u: np.ndarray, v: np.ndarray) -> float:
    uc = u - u.mean()
    vc = v - v.mean()
    nu = np.linalg.norm(uc)
    nv = np.linalg.norm(vc)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(uc @ vc / (nu * nv))


# ---------------------------------------------------------- text formats


def oracle_id_pairs(text: str) -> list:
    """The (a, b) integer pairs of a two-column text table, line by line.

    A line that is empty after stripping, or whose first character after
    stripping is '#', holds no pair.
    """
    pairs = []
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped == "" or stripped[0] == "#":
            continue
        first, second = stripped.split()
        pairs.append((int(first), int(second)))
    return pairs
