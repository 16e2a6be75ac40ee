"""Binary K-nearest-neighbor proximity view built from node features.

For every node, the K most cosine-similar other nodes (strictly positive
similarity only) become directed out-edges. Ties are broken toward the
lowest node index so results are reproducible. A tie means equal
*computed* similarities, clipped to [0, 1], so parallel rows can rank by
rounding rather than by index: for rows [1, 1], [1, 1], [3, 3], [1, 0]
at K=1, node 0 picks node 2 (similarity computed as 1.0) over its exact
copy node 1 (0.9999999999999998).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.sparse as sp

from .dataio import parse_records, read_records, save_text

__all__ = [
    "KnnView",
    "build_knn_view",
    "save_knn_edge_list",
    "load_directed_edge_list",
]


# Peak working set of one row block, in bytes per similarity entry (one
# row-column pair). The dense steps hold 16-20: the sparse dot product
# (8-byte value, 4-byte index) next to its dense copy, then the block next
# to its denominators or its partition copy. _select_block adds a 1-byte
# mask and 8 per entry tied with a row's k-th value: with every similarity
# tied (all-identical rows) tracemalloc measures ~21 in all.
_BYTES_PER_ENTRY = 48
# Byte budget that sizes the row blocks when ``block_rows`` is None.
_BLOCK_BYTES = 64 * 2**20


@dataclass(frozen=True, eq=False)
class KnnView:
    """Directed proximity view in CSR form: node v's neighbors, in selection
    order, are ``indices[indptr[v]:indptr[v + 1]]``."""

    num_nodes: int
    k: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def directed_edge_count(self) -> int:
        return int(self.indptr[-1])

    def deficient_nodes(self):
        """Nodes with fewer than k strictly positive similarities."""
        return np.flatnonzero(np.diff(self.indptr) < self.k).tolist()

    def to_csr(self) -> sp.csr_matrix:
        n = self.num_nodes
        mat = sp.csr_matrix(
            (np.ones(self.indices.size), self.indices, self.indptr), shape=(n, n))
        mat.sort_indices()
        return mat


def _row_norms(matrix: sp.csr_matrix) -> np.ndarray:
    sq = np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel()
    return np.sqrt(sq)


def _select_block(neg: np.ndarray, k: int):
    """(row, column) of each row's k smallest strictly negative entries of
    ``neg`` (negated similarities): rows ascending, then values ascending,
    ties by column.

    One partition finds each row's k-th value. At most k-1 entries of a
    row are strictly below it; the entries equal to it, which arrive in
    column order, fill the places left, so no tie is lost and none is
    sorted. A stable sort of the at most k kept entries per row by (row,
    value) then puts the lowest columns first among equal values.
    """
    n = neg.shape[1]
    # Capped at the negative float nearest zero: no zero similarity.
    limit = np.minimum(np.partition(neg, k - 1, axis=1)[:, k - 1], np.nextafter(0.0, -1.0))
    below = np.flatnonzero(neg < limit[:, None])
    tied = np.flatnonzero(neg == limit[:, None])
    bounds = np.arange(neg.shape[0] + 1) * n
    starts = np.searchsorted(tied, bounds)
    take = np.minimum(np.diff(starts), k - np.diff(np.searchsorted(below, bounds)))
    # Each row's first ``take`` ties, as positions in the row-major list of ties.
    skip = np.repeat(starts[:-1] - (np.cumsum(take) - take), take)
    flat = np.concatenate([below, tied[np.arange(skip.size) + skip]])
    flat = flat[np.lexsort((neg.ravel()[flat], flat // n))]
    return np.divmod(flat, n)


def build_knn_view(features, k: int, block_rows: int | None = None) -> KnnView:
    """Cosine similarity followed by per-row top-k selection.

    ``features`` is a node-by-feature matrix, a 2-D ndarray or any scipy
    sparse matrix or array; it is converted to CSR once.

    The similarity matrix is computed ``block_rows`` rows at a time, so
    only a block of the dense V x V matrix is held at once. ``None``
    sizes the blocks from a fixed 64 MB budget for the whole dense working
    set of a block, so peak memory stays flat as the node count grows
    (one row is held even past the budget). The result does not depend on
    the block size. Rows with zero norm get similarity 0 against every
    node, and a zero similarity never becomes an edge: rows with fewer
    than k strictly positive similarities select all of them. Ties go to
    the lowest node index among equal computed similarities (clipped to
    [0, 1]), so parallel rows can rank by rounding; see the module
    docstring.
    """
    if not (sp.issparse(features) or isinstance(features, np.ndarray)) or features.ndim != 2:
        raise ValueError("features must be a 2-D ndarray or scipy sparse matrix, got "
                         f"{type(features).__name__} of shape {getattr(features, 'shape', None)}")
    features = sp.csr_matrix(features)
    n = features.shape[0]
    if n < 2:
        raise ValueError("need at least 2 nodes to build a proximity view")
    if not isinstance(k, Integral) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the node count {n}")
    if block_rows is None:
        block_rows = max(1, _BLOCK_BYTES // (_BYTES_PER_ENTRY * n))
    elif block_rows < 1:
        raise ValueError("block_rows must be >= 1")
    mat_t = features.T.tocsr()
    norms = _row_norms(features)
    degree = np.zeros(n, dtype=np.int64)
    picked = []
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        block = (features[start:stop] @ mat_t).toarray()
        denom = np.outer(norms[start:stop], norms)
        # A zero-norm row or column has all-zero dots, so the entries the
        # division skips already hold similarity 0.
        np.divide(block, denom, out=block, where=denom > 0)
        del denom
        np.clip(block, 0.0, 1.0, out=block)
        local = np.arange(stop - start)
        block[local, start + local] = 0.0
        np.negative(block, out=block)
        rows, cols = _select_block(block, k)
        del block
        degree[start:stop] = np.bincount(rows, minlength=stop - start)
        picked.append(cols)
    indptr = np.concatenate([[0], np.cumsum(degree)])
    return KnnView(num_nodes=n, k=k, indptr=indptr, indices=np.concatenate(picked))


def save_knn_edge_list(view: KnnView, path) -> None:
    """Write the view as a directed edge list, neighbors in selection order."""
    nodes = np.repeat(np.arange(view.num_nodes), np.diff(view.indptr))
    text = "".join(map("{} {}\n".format, nodes.tolist(), view.indices.tolist()))
    save_text(path, text)


def load_directed_edge_list(path) -> sp.csr_matrix:
    """Read a directed binary edge list ("u v" per line) into a sparse matrix."""
    rows, cols = parse_records(path, read_records(path), "u v", "ii")
    n = int(max(rows.max(), cols.max())) + 1
    mat = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    mat.data[:] = 1.0
    return mat
