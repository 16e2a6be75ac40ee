"""Loaders and writers for graphs, node features, labels, and embeddings.

All on-disk formats are whitespace-delimited UTF-8 text over dense,
0-indexed integer ids. Lines starting with '#' are comments; blank lines
are skipped. Floats are written with ``repr`` so that save/load round
trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError, ParseError

__all__ = [
    "Graph",
    "FeatureMatrix",
    "LabelSet",
    "EmbeddingMatrix",
    "load_edge_list",
    "load_features",
    "load_labels",
    "save_embeddings",
    "load_embeddings",
    "save_matrix",
    "load_matrix",
    "save_json",
    "sha256_file",
]


@dataclass(frozen=True)
class Graph:
    """Undirected graph; edges stored as canonical (min, max) pairs."""

    num_nodes: int
    edges: frozenset
    self_loops_dropped: int = 0

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def to_csr(self) -> sp.csr_matrix:
        """Symmetric binary adjacency matrix with zero diagonal."""
        if not self.edges:
            return sp.csr_matrix((self.num_nodes, self.num_nodes))
        pairs = np.array(sorted(self.edges), dtype=np.int64)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        vals = np.ones(rows.shape[0])
        mat = sp.coo_matrix((vals, (rows, cols)), shape=(self.num_nodes, self.num_nodes))
        return mat.tocsr()


@dataclass(frozen=True)
class FeatureMatrix:
    """Sparse nonnegative node-by-feature matrix."""

    matrix: sp.csr_matrix

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_features(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def entries(self):
        """Stored (node, feature, value) triples, row-major order."""
        coo = self.matrix.tocoo()
        return list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))


@dataclass(frozen=True)
class LabelSet:
    """Per-node label-id sets; nodes with an empty set are unlabeled."""

    num_nodes: int
    num_labels: int
    assignments: tuple

    def labels_of(self, node: int) -> frozenset:
        return self.assignments[node]

    def labeled_nodes(self):
        return [v for v in range(self.num_nodes) if self.assignments[v]]

    def check_within(self, num_nodes: int) -> None:
        """Cross-check against a graph's node count at pipeline assembly."""
        for v in range(self.num_nodes):
            if self.assignments[v] and v >= num_nodes:
                raise DataError(
                    f"label assigned to node {v}, but the graph has only {num_nodes} nodes"
                )


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense per-node embedding vectors, one row per node."""

    rows: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def _iter_records(path):
    """Yield (line_no, tokens) for non-comment, non-blank lines."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped.split()


def _parse_id(token: str, path, line_no: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(path, line_no, f"{what} must be an integer, got {token!r}") from None
    if value < 0:
        raise ParseError(path, line_no, f"{what} must be nonnegative, got {value}")
    return value


def load_edge_list(path, num_nodes: int | None = None) -> Graph:
    """Parse an undirected edge list ("u v" per line).

    Duplicate edges are deduplicated and self-loops dropped (counted on
    the returned Graph). ``num_nodes`` defaults to 1 + the largest id.
    """
    edges = set()
    self_loops = 0
    max_id = -1
    for line_no, tokens in _iter_records(path):
        if len(tokens) != 2:
            raise ParseError(path, line_no, f"expected 'u v', got {len(tokens)} fields")
        u = _parse_id(tokens[0], path, line_no, "node id")
        v = _parse_id(tokens[1], path, line_no, "node id")
        max_id = max(max_id, u, v)
        if u == v:
            self_loops += 1
            continue
        edges.add((min(u, v), max(u, v)))
    if not edges:
        raise DataError(f"{path}: edge list is empty")
    inferred = max_id + 1
    if num_nodes is None:
        num_nodes = inferred
    elif inferred > num_nodes:
        raise DataError(
            f"{path}: node id {max_id} exceeds declared node count {num_nodes}"
        )
    return Graph(num_nodes=num_nodes, edges=frozenset(edges), self_loops_dropped=self_loops)


def load_features(path, num_nodes: int | None = None,
                  num_features: int | None = None) -> FeatureMatrix:
    """Parse sparse node features ("node feature [value]" per line).

    A missing value defaults to 1.0 (binary indicator features).
    Zero-valued triples are dropped; duplicate (node, feature) pairs are
    summed. Values must be finite and nonnegative.
    """
    rows, cols, vals = [], [], []
    max_node = -1
    max_feat = -1
    saw_record = False
    for line_no, tokens in _iter_records(path):
        if len(tokens) not in (2, 3):
            raise ParseError(path, line_no, f"expected 'node feature [value]', got {len(tokens)} fields")
        node = _parse_id(tokens[0], path, line_no, "node id")
        feat = _parse_id(tokens[1], path, line_no, "feature id")
        if len(tokens) == 3:
            try:
                value = float(tokens[2])
            except ValueError:
                raise ParseError(path, line_no, f"feature value must be a number, got {tokens[2]!r}") from None
        else:
            value = 1.0
        if not np.isfinite(value):
            raise ParseError(path, line_no, f"feature value must be finite, got {value}")
        if value < 0:
            raise ParseError(path, line_no, f"feature value must be nonnegative, got {value}")
        saw_record = True
        max_node = max(max_node, node)
        max_feat = max(max_feat, feat)
        if value == 0.0:
            continue
        rows.append(node)
        cols.append(feat)
        vals.append(value)
    if not saw_record:
        raise DataError(f"{path}: feature file is empty")
    if num_nodes is None:
        num_nodes = max_node + 1
    elif max_node >= num_nodes:
        raise DataError(f"{path}: node id {max_node} exceeds declared node count {num_nodes}")
    if num_features is None:
        num_features = max_feat + 1
    elif max_feat >= num_features:
        raise DataError(f"{path}: feature id {max_feat} exceeds declared feature count {num_features}")
    mat = sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)),
        shape=(num_nodes, num_features),
    ).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return FeatureMatrix(matrix=mat)


def load_labels(path, num_nodes: int | None = None,
                num_labels: int | None = None) -> LabelSet:
    """Parse node labels ("node label" per line, multi-label allowed)."""
    pairs = []
    max_node = -1
    max_label = -1
    for line_no, tokens in _iter_records(path):
        if len(tokens) != 2:
            raise ParseError(path, line_no, f"expected 'node label', got {len(tokens)} fields")
        node = _parse_id(tokens[0], path, line_no, "node id")
        label = _parse_id(tokens[1], path, line_no, "label id")
        pairs.append((node, label))
        max_node = max(max_node, node)
        max_label = max(max_label, label)
    if not pairs:
        raise DataError(f"{path}: label file is empty")
    if num_nodes is None:
        num_nodes = max_node + 1
    elif max_node >= num_nodes:
        raise DataError(f"{path}: node id {max_node} exceeds declared node count {num_nodes}")
    if num_labels is None:
        num_labels = max_label + 1
    elif max_label >= num_labels:
        raise DataError(f"{path}: label id {max_label} exceeds declared label count {num_labels}")
    sets = [set() for _ in range(num_nodes)]
    for node, label in pairs:
        sets[node].add(label)
    return LabelSet(
        num_nodes=num_nodes,
        num_labels=num_labels,
        assignments=tuple(frozenset(s) for s in sets),
    )


def save_matrix(arr: np.ndarray, path) -> None:
    """Write a dense matrix as 'rows cols' header plus one row per line."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix with at least one column, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    lines = [f"{arr.shape[0]} {arr.shape[1]}"]
    for row in arr:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise DataError(f"{path}: header must be 'rows cols'")
    try:
        n_rows, n_cols = int(header[0]), int(header[1])
    except ValueError:
        raise DataError(f"{path}: header must be two integers") from None
    if len(lines) - 1 != n_rows:
        raise DataError(f"{path}: header declares {n_rows} rows, file has {len(lines) - 1}")
    out = np.empty((n_rows, n_cols), dtype=np.float64)
    for i, line in enumerate(lines[1:]):
        fields = line.split()
        if len(fields) != n_cols:
            raise DataError(f"{path}: row {i} has {len(fields)} values, expected {n_cols}")
        try:
            out[i] = [float(f) for f in fields]
        except ValueError:
            raise DataError(f"{path}: row {i} contains a non-numeric value") from None
    if not np.all(np.isfinite(out)):
        raise DataError(f"{path}: matrix contains non-finite entries")
    return out


def save_embeddings(emb: EmbeddingMatrix, path) -> None:
    """Persist an embedding; load_embeddings reproduces it bit-exactly."""
    if emb.rows.ndim != 2 or emb.dim < 1:
        raise ValueError("embedding must have at least one dimension")
    save_matrix(emb.rows, path)


def load_embeddings(path) -> EmbeddingMatrix:
    return EmbeddingMatrix(rows=load_matrix(path))


def save_json(obj, path) -> None:
    """Write a JSON record: two-space indent, sorted keys, final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def sha256_file(path) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()
