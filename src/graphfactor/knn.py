"""Binary K-nearest-neighbor proximity view built from node features.

For every node, the K most cosine-similar other nodes (strictly positive
similarity only) become directed out-edges. Ties are broken toward the
lowest node index so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .dataio import FeatureMatrix, parse_records, read_records

__all__ = [
    "KnnView",
    "build_knn_view",
    "save_knn_edge_list",
    "load_directed_edge_list",
]


@dataclass(frozen=True)
class KnnView:
    """Directed proximity view: per-node neighbors in selection order."""

    num_nodes: int
    k: int
    out_edges: tuple

    @property
    def directed_edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.out_edges)

    def deficient_nodes(self):
        """Nodes with fewer than k strictly positive similarities."""
        return [v for v, nbrs in enumerate(self.out_edges) if len(nbrs) < self.k]

    def to_csr(self) -> sp.csr_matrix:
        rows, cols = [], []
        for v, nbrs in enumerate(self.out_edges):
            rows.extend([v] * len(nbrs))
            cols.extend(nbrs)
        vals = np.ones(len(rows))
        mat = sp.coo_matrix((vals, (rows, cols)), shape=(self.num_nodes, self.num_nodes))
        return mat.tocsr()


def _row_norms(matrix: sp.csr_matrix) -> np.ndarray:
    sq = np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel()
    return np.sqrt(sq)


def _select_row(row: np.ndarray, k: int):
    """Indices of the k largest strictly positive entries, ties by index."""
    order = np.argsort(-row, kind="stable")
    picked = []
    for idx in order[:k]:
        if row[idx] <= 0.0:
            break
        picked.append(int(idx))
    return tuple(picked)


def build_knn_view(features: FeatureMatrix, k: int,
                   block_rows: int | None = None) -> KnnView:
    """Cosine similarity followed by per-row top-k selection.

    The similarity matrix is computed ``block_rows`` rows at a time, so
    only a block of the dense V x V matrix is held at once; ``None``
    takes all rows as one block. The result does not depend on the
    block size. Rows with zero norm get similarity 0 against every node,
    and a zero similarity never becomes an edge: rows with fewer than k
    strictly positive similarities select all of them.
    """
    n = features.num_nodes
    if n < 2:
        raise ValueError("need at least 2 nodes to build a proximity view")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the node count {n}")
    if block_rows is None:
        block_rows = n
    elif block_rows < 1:
        raise ValueError("block_rows must be >= 1")
    mat = features.matrix
    norms = _row_norms(mat)
    out = []
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        dots = (mat[start:stop] @ mat.T).toarray()
        denom = np.outer(norms[start:stop], norms)
        block = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
        np.clip(block, 0.0, 1.0, out=block)
        for offset in range(stop - start):
            row = block[offset]
            row[start + offset] = 0.0
            out.append(_select_row(row, k))
    return KnnView(num_nodes=n, k=k, out_edges=tuple(out))


def save_knn_edge_list(view: KnnView, path) -> None:
    """Write the view as a directed edge list, neighbors in selection order."""
    lines = []
    for v, nbrs in enumerate(view.out_edges):
        for u in nbrs:
            lines.append(f"{v} {u}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_directed_edge_list(path) -> sp.csr_matrix:
    """Read a directed binary edge list ("u v" per line) into a sparse matrix."""
    rows, cols = parse_records(path, read_records(path), "u v", "ii")
    n = int(max(rows.max(), cols.max())) + 1
    mat = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    mat.data[:] = 1.0
    return mat
