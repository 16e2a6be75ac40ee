"""Loaders and writers for graphs, node features, labels, and embeddings.

All on-disk formats are whitespace-delimited UTF-8 text over dense,
0-indexed integer ids. Every file is read once, by ``read_input``. A text
input is loaded by ``load_table`` (a matrix by ``load_matrix``): a plain
ASCII file with no '#' comment is parsed by numpy's C reader, and any
other file, or one that numpy reads with an error or a warning or whose
values fail a test, by the record reader ``read_records`` and
``parse_records``, from the same bytes. The record reader skips '#'
comments and blank lines, and it is the one source of every error: a
malformed line raises ParseError naming file:line. Both readers give the
same arrays; the C reader reads a table as one named field per column.
A table is written by ``format_table`` in row blocks of about
``_BLOCK_VALUES`` values, so a writer holds one block's text at a
time: orjson's C writer spells each float in ``repr``'s text (the
shortest digits that read back to the same double, so save/load round
trips are bit-exact) and each integer in decimal.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import re
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import orjson
import scipy.sparse as sp

from .errors import DataError, ParseError

__all__ = [
    "Graph",
    "load_edge_list",
    "load_features",
    "load_labels",
    "load_table",
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


def read_input(path) -> bytes:
    """The bytes of the file ``path``; every file the program reads is read
    here. A file that cannot be read raises DataError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_records(path, data: bytes) -> tuple:
    """The records of the text input ``data``, read from ``path``, as
    (tokens, widths, line_nos).

    A record is a line that is neither blank nor a '#' comment. ``tokens``
    holds the whitespace-split fields of every record in file order;
    ``widths`` and ``line_nos`` give each record's field count and line
    number. Bytes that are not UTF-8, or hold no record, raise DataError.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeError as exc:
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
        i = miscounted[0]  # a bad token on an earlier line is named first
        parse_records(path, (tokens[:widths[:i].sum()], widths[:i], line_nos[:i]),
                      usage, kinds, default)
        raise ParseError(path, int(line_nos[i]), f"expected '{usage}', got {widths[i]} fields")
    short = widths < n
    if not short.any():
        fields = [tokens[k::n] for k in range(n)]
    elif short.all():  # no record gives the last field: parse the default once
        fields = [tokens[k::n - 1] for k in range(n - 1)] + [[default]]
    else:  # give each record that left out the last field the default
        tokens = np.insert(np.array(tokens, dtype=object), np.cumsum(widths)[short], default)
        fields = [tokens[k::n] for k in range(n)]
    columns, bad = [], []
    for k, kind in enumerate(kinds):
        parse, dtype, test, _ = _KINDS[kind]
        try:
            column = np.fromiter(map(parse, fields[k]), dtype, len(fields[k]))
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
    return [np.full(widths.size, c[0]) if c.size < widths.size else c for c in columns]


# Bytes that the record reader and numpy's C reader read apart: the comment
# mark, and the line breaks of str.splitlines that numpy reads as spaces.
_C_UNSAFE = (b"#", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


def _c_read(data: bytes, dtype, ndmin: int = 2):
    """``data`` parsed as one table of ``dtype`` by numpy's C reader, or None
    where the record reader might read it otherwise: bytes that are not
    ASCII or hold one of _C_UNSAFE, or any exception or warning from numpy
    (an empty table warns)."""
    if not data.isascii() or any(b in data for b in _C_UNSAFE):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(io.BytesIO(data), dtype=dtype, comments=None, ndmin=ndmin)
    except Exception:  # whatever numpy raises, the record reader reads the file again
        return None


def _c_columns(data: bytes, kinds: str, default: str | None):
    """The columns parse_records gives for ``data``, read by _c_read, or None
    where that reading cannot be used. The first line's field count says
    whether the records give the last field or leave it to ``default``."""
    width = len(data.partition(b"\n")[0].split())
    if not width or width not in (len(kinds), len(kinds) - (default is not None)):
        return None
    dtype = [(f"f{k}", _KINDS[kind][1]) for k, kind in enumerate(kinds[:width])]
    table = _c_read(data, dtype, ndmin=1)  # numpy raises on a row of another width
    if table is None:
        return None
    columns = [table[name] for name in table.dtype.names]
    if width < len(kinds):
        parse, dtype = _KINDS[kinds[-1]][:2]
        columns.append(np.full(columns[0].size, dtype(parse(default))))
    if not all(_KINDS[kind][2](column).all() for kind, column in zip(kinds, columns)):
        return None
    return columns


def load_table(path, usage: str, kinds: str, default: str | None = None) -> list:
    """One array per field of the text table ``path``, each as
    ``parse_records(path, read_records(path, data), usage, kinds, default)``
    gives it for the file's bytes ``data``: by numpy's C reader where it
    reads them as the record reader does, and by the record reader
    otherwise, which raises every error."""
    data = read_input(path)
    columns = _c_columns(data, kinds, default)
    if columns is None:
        return parse_records(path, read_records(path, data), usage, kinds, default)
    return columns


def load_edge_list(path) -> Graph:
    """Parse an undirected edge list ("u v" per line) into a Graph.

    The Graph keeps each edge once and drops and counts self-loops. The node
    count is 1 + the largest id; a list of self-loops alone raises DataError.
    """
    u, v = load_table(path, "u v", "ii")
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
    nodes, feats, vals = load_table(path, "node feature [value]", "iiw", default="1")
    kept = vals != 0.0
    return sp.coo_matrix(
        (vals[kept], (nodes[kept], feats[kept])),
        shape=(int(nodes.max()) + 1, int(feats.max()) + 1),
    ).tocsr()


def load_labels(path) -> np.ndarray:
    """Parse node labels ("node label" per line, multi-label allowed) into a
    boolean node-by-label matrix sized 1 + the largest ids; a row with no
    True entry is an unlabeled node. ``evaluate`` checks that it fits an embedding."""
    nodes, labels = load_table(path, "node label", "ii")
    matrix = np.zeros((int(nodes.max()) + 1, int(labels.max()) + 1), dtype=bool)
    matrix[nodes, labels] = True
    return matrix


# Values per block of format_table: its text is all a writer holds at once.
_BLOCK_VALUES = 1 << 16
# Where orjson's float text differs from repr's: an exponent without sign
# or padding (1e16, 2.5e-7 for 1e+16, 2.5e-07), and fixed notation for the
# 1e-5 decade (0.00001234 for 1.234e-05). The lookbehind skips a number
# that only ends in it, such as 10.00001; it follows the literal, which
# keeps the scan fast.
_EXPONENT = re.compile(rb"e(-?\d+)")
_E5_DECADE = re.compile(rb"0\.0000(?<![0-9]0\.0000)(\d)(\d*)")


def _format_rows(block: np.ndarray) -> bytes:
    """The rows of a 2-d array as text lines of space-separated values."""
    text = orjson.dumps(np.ascontiguousarray(block), option=orjson.OPT_SERIALIZE_NUMPY)
    text = _EXPONENT.sub(lambda m: b"e%+03d" % int(m[1]), text)
    text = _E5_DECADE.sub(lambda m: m[1] + (b"." + m[2] if m[2] else b"") + b"e-05", text)
    text = text[2:-2].replace(b"],[", b"\n").replace(b",", b" ")  # [[1.0,2.0],[3.0,4.0]]
    return text + b"\n" if text else text


def format_table(table: np.ndarray) -> Iterator[bytes]:
    """The text of a 2-d table, one line per row, as byte chunks of
    ``_BLOCK_VALUES // columns`` rows (at least one): each value as ``repr``
    of its Python float or int, separated by spaces. A table that is not
    2-d with at least one column, or holds a non-finite value, raises
    ValueError."""
    if table.ndim != 2 or table.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix with at least one column, got shape {table.shape}")
    if not np.isfinite(table).all():
        raise ValueError("matrix contains non-finite entries")
    rows = max(1, _BLOCK_VALUES // table.shape[1])
    return (_format_rows(table[i:i + rows]) for i in range(0, table.shape[0], rows))


def save_matrix(arr: np.ndarray, path) -> None:
    """Write a dense matrix as 'rows cols' header plus one row per line."""
    arr = np.asarray(arr, dtype=np.float64)
    rows = format_table(arr)
    save_text(path, itertools.chain([f"{arr.shape[0]} {arr.shape[1]}\n".encode()], rows))


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix: a 'rows cols' header record,
    then one record of ``cols`` finite numbers per row."""
    data = read_input(path)
    head, _, body = data.partition(b"\n")  # numpy's C reader, as load_table uses it
    header, table = _c_columns(head, "ii", None), _c_read(body, np.float64)
    # The header sizes nothing: it is only compared with the body read.
    if (header is not None and table is not None
            and table.shape == (header[0][0], header[1][0]) and np.isfinite(table).all()):
        return table
    return _load_matrix_records(path, data)


def _load_matrix_records(path, data: bytes) -> np.ndarray:
    """load_matrix by the record reader, which names a malformed line."""
    tokens, widths, line_nos = read_records(path, data)
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


def save_text(path, text: str | Iterable[bytes]) -> None:
    """Replace ``path`` whole with ``text``, one str written as UTF-8 or byte
    chunks written in turn, by way of a renamed temporary file. A failed
    write removes it and leaves the old file as it was."""
    temp = Path(f"{path}{TEMP_SUFFIX}")
    try:
        with temp.open("wb") as out:
            out.writelines([text.encode("utf-8")] if isinstance(text, str) else text)
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
        return json.loads(read_input(path).decode("utf-8"))
    except ValueError as exc:  # UnicodeError is a ValueError
        raise DataError(f"cannot read {path}: {exc}") from exc


def sha256_file(path) -> str:
    return hashlib.sha256(read_input(path)).hexdigest()
