"""Loaders and writers for graphs, node features, labels, and embeddings.

All on-disk formats are whitespace-delimited UTF-8 text over dense,
0-indexed integer ids. Every text input is read by ``read_records`` and
``parse_records``: lines starting with '#' are comments, blank lines are
skipped, and a malformed line raises ParseError naming file:line. Floats
are written with ``repr`` so that save/load round trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError, ParseError

__all__ = [
    "Graph",
    "load_edge_list",
    "load_features",
    "load_labels",
    "save_matrix",
    "load_matrix",
    "save_json",
    "sha256_file",
]

TEMP_SUFFIX = ".tmp"  # save_text writes <target><TEMP_SUFFIX>, then renames it


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph. ``edges`` takes any collection of node-id pairs and
    keeps the (m, 2) int64 array of their distinct (min, max) forms in
    ascending order; self-loops are dropped and counted in ``self_loops_dropped``.
    An id outside [0, num_nodes) raises ValueError."""

    num_nodes: int
    edges: np.ndarray
    self_loops_dropped: int = field(init=False)

    def __post_init__(self):
        edges = self.edges if isinstance(self.edges, np.ndarray) else list(self.edges)
        pairs, n = np.asarray(edges, dtype=np.int64).reshape(-1, 2), self.num_nodes
        if not ((pairs >= 0) & (pairs < n)).all():  # also keeps lo * n + hi one-to-one
            raise ValueError(f"edge list names a node id outside [0, {n})")
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keys = np.sort((lo * n + hi)[lo != hi])  # np.unique sorts as well, but far slower
        keys = keys[np.diff(keys, prepend=-1) > 0]
        object.__setattr__(self, "edges", np.column_stack([keys // n, keys % n]))
        object.__setattr__(self, "self_loops_dropped", int((lo == hi).sum()))

    def to_csr(self) -> sp.csr_matrix:
        """Symmetric binary adjacency matrix with zero diagonal."""
        rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        vals = np.ones(rows.shape[0])
        mat = sp.coo_matrix((vals, (rows, cols)), shape=(self.num_nodes, self.num_nodes))
        return mat.tocsr()


# Field kinds of a record: the token parser, the column dtype, the test each
# parsed value must pass, and what the test asks for.
_KINDS = {
    "i": (int, np.int64, lambda a: a >= 0, "a nonnegative integer"),
    "f": (float, np.float64, np.isfinite, "a finite number"),
    "w": (float, np.float64, lambda a: np.isfinite(a) & (a >= 0), "a finite nonnegative number"),
}


def read_records(path) -> tuple:
    """The records of a text input as (tokens, widths, line_nos).

    A record is a line that is neither blank nor a '#' comment. ``tokens``
    holds the whitespace-split fields of every record in file order;
    ``widths`` and ``line_nos`` give each record's field count and line
    number. A file that cannot be read, or has no records, raises DataError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if "#" in text:
        lines = ["" if line.lstrip().startswith("#") else line for line in lines]
        text = "\n".join(lines)
    widths = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    del lines  # so the lines and the tokens are never held at once
    line_nos = np.flatnonzero(widths) + 1
    if not line_nos.size:
        raise DataError(f"{path}: no records (the file is empty or only comments)")
    return text.split(), widths[line_nos - 1], line_nos


def _valid(token: str, kind: str) -> bool:
    parse, dtype, test, _ = _KINDS[kind]
    try:
        return bool(test(dtype(parse(token))))
    except (ValueError, OverflowError):
        return False


def parse_records(path, records, usage: str, kinds: str, default: str | None = None) -> list:
    """One array per field of ``records`` in the format ``usage``.

    ``kinds`` has one letter of ``_KINDS`` per field. Given a ``default``
    token, a record may leave out its last field. A record with another
    field count, or a token that does not parse or fails its kind's test,
    raises ParseError naming the first such line.
    """
    tokens, widths, line_nos = records
    n = len(kinds)
    miscounted = np.flatnonzero((widths != n) & (widths != (n if default is None else n - 1)))
    if miscounted.size:
        i = miscounted[0]
        raise ParseError(path, int(line_nos[i]), f"expected '{usage}', got {widths[i]} fields")
    short = widths < n
    if short.any():  # give each record that left out the last field the default
        tokens = np.insert(np.array(tokens, dtype=object), np.cumsum(widths)[short], default)
    fields = [tokens[k::n] for k in range(n)]
    columns, bad = [], []
    for k, kind in enumerate(kinds):
        parse, dtype, test, _ = _KINDS[kind]
        try:
            column = np.fromiter(map(parse, fields[k]), dtype, widths.size)
            ok = bool(test(column).all())
        except (ValueError, OverflowError):
            column, ok = None, False
        if not ok:
            bad.append((next(i for i, t in enumerate(fields[k]) if not _valid(t, kind)), k))
        columns.append(column)
    if bad:
        i, k = min(bad)
        raise ParseError(path, int(line_nos[i]), f"field {k + 1} of '{usage}' must be "
                         f"{_KINDS[kinds[k]][3]}, got {fields[k][i]!r}")
    return columns


def load_edge_list(path) -> Graph:
    """Parse an undirected edge list ("u v" per line) into a Graph.

    The Graph keeps each edge once and drops and counts self-loops. The node
    count is 1 + the largest id; a list of self-loops alone raises DataError.
    """
    u, v = parse_records(path, read_records(path), "u v", "ii")
    graph = Graph(num_nodes=int(max(u.max(), v.max())) + 1, edges=np.column_stack([u, v]))
    if not graph.edges.size:
        raise DataError(f"{path}: edge list has no edges besides self-loops")
    return graph


def load_features(path) -> sp.csr_matrix:
    """Parse sparse node features ("node feature [value]" per line).

    A missing value defaults to 1.0 (binary indicator features).
    Zero-valued triples are dropped; duplicate (node, feature) pairs are
    summed. Values must be finite and nonnegative. The node and feature
    counts are 1 + the largest ids, zero-valued triples included.
    """
    nodes, feats, vals = parse_records(
        path, read_records(path), "node feature [value]", "iiw", default="1"
    )
    kept = vals != 0.0
    return sp.coo_matrix(
        (vals[kept], (nodes[kept], feats[kept])),
        shape=(int(nodes.max()) + 1, int(feats.max()) + 1),
    ).tocsr()


def load_labels(path) -> np.ndarray:
    """Parse node labels ("node label" per line, multi-label allowed) into a
    boolean node-by-label matrix sized 1 + the largest ids; a row with no
    True entry is an unlabeled node. ``evaluate`` checks that it fits an embedding."""
    nodes, labels = parse_records(path, read_records(path), "node label", "ii")
    matrix = np.zeros((int(nodes.max()) + 1, int(labels.max()) + 1), dtype=bool)
    matrix[nodes, labels] = True
    return matrix


def save_matrix(arr: np.ndarray, path) -> None:
    """Write a dense matrix as 'rows cols' header plus one row per line."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix with at least one column, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    lines = [f"{arr.shape[0]} {arr.shape[1]}"]
    # repr of Python floats, one row converted at a time: no numpy scalar
    # per value, and no list of every value held at once
    lines.extend(" ".join(map(repr, row.tolist())) for row in arr)
    save_text(path, "\n".join(lines) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix: a 'rows cols' header record,
    then one record of ``cols`` finite numbers per row."""
    tokens, widths, line_nos = read_records(path)
    head = int(widths[0])
    n_rows, n_cols = (int(c[0]) for c in parse_records(
        path, (tokens[:head], widths[:1], line_nos[:1]), "rows cols", "ii"))
    if widths.size - 1 != n_rows:
        raise DataError(f"{path}: header declares {n_rows} rows, file has {widths.size - 1}")
    body = (tokens[head:], widths[1:], line_nos[1:])
    # No row has more fields than the body has tokens, so a header that
    # claims more columns fails on the first row all the same.
    kinds = "f" * min(n_cols, len(body[0]) + 1)
    columns = parse_records(path, body, f"{n_cols} values", kinds)
    return np.array(columns, dtype=np.float64).reshape(n_cols, n_rows).T.copy()


def save_text(path, text: str) -> None:
    """Replace ``path`` whole with UTF-8 ``text`` by way of a renamed temporary
    file. A failed write removes it and leaves the old file as it was."""
    temp = Path(f"{path}{TEMP_SUFFIX}")
    try:
        temp.write_text(text, encoding="utf-8")
        temp.replace(path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_json(obj, path) -> None:
    """Write JSON: two-space indent, sorted keys, final newline, numpy scalars as numbers."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=np.generic.item)
    save_text(path, text + "\n")


# How a config dataclass writes a field, by the annotation string of its declared type.
_FIELD_CASTS = {"int": int, "float": float, "str": str, "bool": bool,
                "tuple[float, ...]": lambda values: [float(v) for v in values]}


def config_record(config) -> dict:
    """Every field of a config dataclass, cast to its declared type for
    ``save_json`` (``X | None`` keeps None): ``tol=1`` gives 1.0, a Path its str."""
    record = {}
    for f in fields(config):
        value = getattr(config, f.name)
        cast = _FIELD_CASTS[f.type.removesuffix(" | None")]
        record[f.name] = None if value is None else cast(value)
    return record


def load_json(path):
    """Read a JSON record such as save_json writes."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def sha256_file(path) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()
