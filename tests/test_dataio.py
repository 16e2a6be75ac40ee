"""File-format loaders/writers: parsing rules, validation, round trips."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphfactor import DataError, ParseError, load_edge_list, load_features, load_labels
from graphfactor.cpals import load_model
from graphfactor.dataio import (
    Graph,
    load_matrix,
    save_json,
    save_matrix,
    save_text,
    sha256_file,
)
from graphfactor.knn import load_directed_edge_list

from oracles import oracle_id_pairs

# Fixed example generation, so that every run tries the same inputs.
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def entries(mat):
    """Stored (node, feature, value) triples of a CSR matrix, row-major order."""
    coo = mat.tocoo()
    return list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ------------------------------------------------------------- edge lists


class TestLoadEdgeList:
    def test_basic_parse_dedup_and_canonical_order(self, tmp_path):
        p = write(tmp_path, "e.txt", "0 1\n2 1\n1 2\n# comment\n\n3 0\n")
        g = load_edge_list(p)
        assert g.num_nodes == 4
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2]]

    def test_self_loops_dropped_and_counted(self, tmp_path):
        p = write(tmp_path, "e.txt", "0 0\n0 1\n2 2\n")
        g = load_edge_list(p)
        assert g.self_loops_dropped == 2
        assert g.edges.tolist() == [[0, 1]]
        # self-loop ids still extend the node range
        assert g.num_nodes == 3

    def test_adjacency_matrix_symmetric_zero_diagonal(self, tmp_path):
        p = write(tmp_path, "e.txt", "0 1\n1 2\n")
        adj = load_edge_list(p).to_csr().toarray()
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)
        assert adj.sum() == 4  # each undirected edge stored twice

    def test_edgeless_graph_is_an_empty_csr_matrix(self):
        adj = Graph(3, frozenset()).to_csr()
        assert adj.format == "csr" and adj.shape == (3, 3)
        assert adj.dtype == np.float64 and adj.nnz == 0

    def test_loaded_graph_holds_sixteen_bytes_per_edge(self, tmp_path):
        # Two int64 ids per edge; a set of Python int tuples held about 160 bytes.
        rng = np.random.default_rng(21)
        p = tmp_path / "e.txt"
        np.savetxt(p, rng.integers(20_000, size=(200_000, 2)), fmt="%d")
        tracemalloc.start()
        try:
            g = load_edge_list(p)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0.99 * 200_000 < len(g.edges) <= 200_000
        assert held <= 32 * 200_000

    def test_parse_peak_stays_under_two_hundred_bytes_per_edge(self, tmp_path):
        # The text and the tokens are held together, but never with the lines too.
        rng = np.random.default_rng(22)
        p = tmp_path / "e.txt"
        np.savetxt(p, rng.integers(20_000, size=(200_000, 2)), fmt="%d")
        tracemalloc.start()
        try:
            load_edge_list(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * 200_000

    @pytest.mark.parametrize(
        "line",
        ["0", "0 1 2", "a 1", "0 b", "-1 2", "1 -2"],
    )
    def test_malformed_lines(self, tmp_path, line):
        p = write(tmp_path, "e.txt", line + "\n")
        with pytest.raises(ParseError) as err:
            load_edge_list(p)
        assert "e.txt:1" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        p = write(tmp_path, "e.txt", "# only comments\n\n")
        with pytest.raises(DataError):
            load_edge_list(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_edge_list(tmp_path / "absent.txt")


class TestGraph:
    def test_reversed_pair_is_one_binary_edge(self):
        g = Graph(3, frozenset({(0, 1), (1, 0)}))
        adj = g.to_csr()
        assert len(g.edges) == 1
        assert adj.nnz == 2 and set(adj.data.tolist()) == {1.0}

    def test_self_loop_dropped_and_counted(self):
        g = Graph(3, frozenset({(1, 1), (0, 2)}))
        assert g.self_loops_dropped == 1
        assert not g.to_csr().diagonal().any()
        assert g.edges.tolist() == [[0, 2]]

    @pytest.mark.parametrize("pair", [(0, 5), (3, 0), (-1, 2)])
    def test_id_outside_the_node_range_rejected(self, pair):
        with pytest.raises(ValueError):
            Graph(3, frozenset({pair}))

    def test_array_and_set_inputs_agree(self):
        pairs = [(4, 2), (2, 4), (0, 3), (1, 1), (0, 3), (3, 1)]
        from_array = Graph(5, np.array(pairs))
        from_set = Graph(5, frozenset(pairs))
        assert np.array_equal(from_array.edges, from_set.edges)
        assert from_array.edges.tolist() == [[0, 3], [1, 3], [2, 4]]


# --------------------------------------------------------------- features


class TestLoadFeatures:
    def test_default_value_and_shape(self, tmp_path):
        p = write(tmp_path, "f.txt", "0 0\n0 2 0.5\n1 1 2.0\n")
        f = load_features(p)
        assert f.shape == (2, 3)
        assert entries(f) == [(0, 0, 1.0), (0, 2, 0.5), (1, 1, 2.0)]

    def test_duplicates_summed_zeros_dropped(self, tmp_path):
        p = write(tmp_path, "f.txt", "0 0 1.5\n0 0 0.5\n1 1 0.0\n1 0\n")
        f = load_features(p)
        assert entries(f) == [(0, 0, 2.0), (1, 0, 1.0)]
        assert f.nnz == 2
        assert f.has_canonical_format

    def test_zero_only_rows_keep_node_range(self, tmp_path):
        p = write(tmp_path, "f.txt", "0 0\n3 1 0.0\n")
        f = load_features(p)
        assert f.shape[0] == 4

    @pytest.mark.parametrize(
        "line",
        ["0", "0 1 2 3", "x 1", "0 y", "0 1 zzz", "0 1 -1.0", "0 1 nan", "0 1 inf"],
    )
    def test_malformed_lines(self, tmp_path, line):
        p = write(tmp_path, "f.txt", line + "\n")
        with pytest.raises(ParseError):
            load_features(p)

    def test_empty_rejected(self, tmp_path):
        p = write(tmp_path, "f.txt", "\n")
        with pytest.raises(DataError):
            load_features(p)


# ----------------------------------------------------------------- labels


class TestLoadLabels:
    def test_multi_label_sets(self, tmp_path):
        p = write(tmp_path, "l.txt", "0 1\n0 2\n2 0\n")
        labels = load_labels(p)
        assert isinstance(labels, np.ndarray)
        assert labels.dtype == np.bool_
        assert labels.shape == (3, 3)
        assert labels.tolist() == [[False, True, True], [False, False, False],
                                   [True, False, False]]
        assert np.flatnonzero(labels.any(axis=1)).tolist() == [0, 2]  # node 1 is unlabeled

    def test_duplicate_pairs_collapse(self, tmp_path):
        p = write(tmp_path, "l.txt", "0 1\n0 1\n")
        assert load_labels(p).tolist() == [[False, True]]

    def test_declared_bounds(self, tmp_path):
        # sized 1 + the largest ids, as every loader sizes its output
        p = write(tmp_path, "l.txt", "3 1\n")
        labels = load_labels(p)
        assert labels.dtype == np.bool_
        assert labels.shape == (4, 2)
        assert labels.tolist() == [[False, False]] * 3 + [[False, True]]

    @pytest.mark.parametrize("line", ["0", "0 1 2", "a 0", "0 -1"])
    def test_malformed_lines(self, tmp_path, line):
        p = write(tmp_path, "l.txt", line + "\n")
        with pytest.raises(ParseError):
            load_labels(p)


# ------------------------------------------------------ matrix round trip


class TestMatrixFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((7, 3)) * np.array([1e-12, 1.0, 1e12])
        p = tmp_path / "m.txt"
        save_matrix(arr, p)
        back = load_matrix(p)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)  # exact, not approx

    def test_text_is_the_repr_of_each_value_as_a_python_float(self, tmp_path):
        rng = np.random.default_rng(3)
        special = [0.0, -0.0, 5e-324, 1e-300, 1e16, 1.2345678901234568e17, -1.7976931348623157e308]
        for arr in (rng.standard_normal((40, 7)) * np.logspace(-12, 12, 7),
                    np.array([special]), np.arange(6).reshape(2, 3)):
            p = tmp_path / "m.txt"
            save_matrix(arr, p)
            rows = [" ".join(repr(float(v)) for v in row) for row in np.asarray(arr, np.float64)]
            want = "\n".join([f"{arr.shape[0]} {arr.shape[1]}", *rows]) + "\n"
            assert p.read_text(encoding="utf-8") == want

    def test_header_format(self, tmp_path):
        p = tmp_path / "m.txt"
        save_matrix(np.zeros((2, 4)), p)
        assert p.read_text().splitlines()[0] == "2 4"

    def test_save_rejects_bad_input(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(np.array([1.0, 2.0]), tmp_path / "m.txt")
        with pytest.raises(ValueError):
            save_matrix(np.array([[np.nan]]), tmp_path / "m.txt")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n1.0\n",
            "a b\n",
            "2 1\n1.0\n",  # row count mismatch
            "1 2\n1.0\n",  # width mismatch
            "1 1\nxyz\n",
        ],
    )
    def test_load_rejects_malformed(self, tmp_path, text):
        p = write(tmp_path, "m.txt", text)
        with pytest.raises(DataError):
            load_matrix(p)

    def test_checksum_stable(self, tmp_path):
        p = write(tmp_path, "x.txt", "0 1\n")
        assert sha256_file(p) == sha256_file(p)
        with pytest.raises(DataError):
            sha256_file(tmp_path / "absent.txt")


# ------------------------------------------------------------ crash-safe writes


def _fail_rename(self, target):
    raise OSError("rename refused")


class TestSaveText:
    @pytest.mark.parametrize("old", [None, "old bytes\n"])
    @pytest.mark.parametrize("failure", ["encode", "rename"])
    def test_failed_write_keeps_the_old_file_and_no_temporary(
        self, tmp_path, monkeypatch, old, failure
    ):
        target = tmp_path / "out.txt"
        if old is not None:
            target.write_text(old, encoding="utf-8")
        text = "new bytes\n"
        if failure == "encode":  # fails after the temporary file was opened
            text = "partial \ud800\n"
        else:  # fails after the temporary file was written in full
            monkeypatch.setattr(Path, "replace", _fail_rename)
        with pytest.raises((UnicodeEncodeError, OSError)):
            save_text(target, text)
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if old is None else ["out.txt"])
        if old is not None:
            assert target.read_text(encoding="utf-8") == old

    def test_replaces_the_whole_file(self, tmp_path):
        target = write(tmp_path, "out.txt", "a much longer earlier text\n")
        save_text(target, "short\n")
        assert target.read_bytes() == b"short\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_json_writes_numpy_scalars_as_python_numbers(self, tmp_path):
        save_json({"rank": np.int64(4), "ok": np.bool_(True), "fit": np.float64(0.25)},
                  tmp_path / "numpy.json")
        save_json({"rank": 4, "ok": True, "fit": 0.25}, tmp_path / "plain.json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        with pytest.raises(TypeError):
            save_json({"labels": {1, 2}}, tmp_path / "set.json")
        assert not (tmp_path / "set.json").exists()


# ------------------------------------------------- every text input format


def _load_scales(path):
    """load_model on a rank-4 model directory whose scales.txt is ``path``."""
    for name in ("A.txt", "B.txt", "C.txt"):
        save_matrix(np.ones((2, 4)), path.parent / name)
    return load_model(path.parent).column_scales


# Format name: file name, loader, four valid records, a malformed record.
FORMATS = {
    "edges": (
        "e.txt", lambda p: load_edge_list(p).to_csr().toarray(),
        ["0 1", "1 2", "2 0", "3 1"], "2 x",
    ),
    "features": (
        "f.txt", lambda p: load_features(p).toarray(),
        ["0 0", "0 2 0.5", "1 1 2.0", "2 0"], "1 1 -2.0",
    ),
    "labels": ("l.txt", load_labels, ["0 1", "1 0", "2 1", "2 0"], "2"),
    "knn": (
        "z.txt", lambda p: load_directed_edge_list(p).toarray(),
        ["0 1", "1 0", "2 1", "1 2"], "2 1 0",
    ),
    "matrix": ("m.txt", load_matrix, ["3 2", "1.0 2.0", "3.0 4.0", "5.0 6.0"], "3.0 inf"),
    "scales": ("scales.txt", _load_scales, ["1.5", "2.5", "0.5", "4.0"], "nan"),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
class TestEveryFormat:
    def test_malformed_line_is_named(self, tmp_path, name):
        filename, load, records, bad = FORMATS[name]
        p = write(tmp_path, filename, "\n".join(records[:2] + [bad] + records[3:]) + "\n")
        with pytest.raises(ParseError) as err:
            load(p)
        assert err.value.line_no == 3
        assert f"{filename}:3:" in str(err.value)

    def test_comment_and_blank_lines_are_skipped(self, tmp_path, name):
        filename, load, records, _ = FORMATS[name]
        plain, mixed = tmp_path / "plain", tmp_path / "mixed"
        plain.mkdir()
        mixed.mkdir()
        want = load(write(plain, filename, "\n".join(records) + "\n"))
        text = "# leading\n\n" + "\n  \n# between\n".join(records) + "\n\t\n# trailing"
        got = load(write(mixed, filename, text))
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


# --------------------------------------------------------- property tests

JUNK_LINES = st.lists(st.sampled_from(["", "   ", "\t", "#", "# comment", "  # 1 2"]), max_size=2)
SPACES = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def id_tables(draw):
    """A valid two-column id table with comment and blank lines mixed in."""
    ids = st.integers(0, 40)
    pairs = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=30))
    lines = []
    for a, b in pairs:
        lines += draw(JUNK_LINES)
        lines.append(f"{draw(SPACES)}{a} {draw(SPACES)}{b}{draw(SPACES)}")
    lines += draw(JUNK_LINES)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _finite_matrices():
    shapes = st.tuples(st.integers(0, 6), st.integers(1, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return hnp.arrays(np.float64, shapes, elements=finite)


class TestProperties:
    @PROPERTY_SETTINGS
    @given(text=id_tables())
    def test_id_tables_load_as_the_oracle_reads_them(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("table") / "t.txt"
        p.write_text(text, encoding="utf-8")
        pairs = oracle_id_pairs(text)
        n_first = 1 + max(a for a, _ in pairs)
        n_second = 1 + max(b for _, b in pairs)
        n = max(n_first, n_second)

        directed = np.zeros((n, n))
        counts = np.zeros((n_first, n_second))
        for a, b in pairs:
            directed[a, b] = 1.0
            counts[a, b] += 1.0
        assert np.array_equal(load_directed_edge_list(p).toarray(), directed)
        assert np.array_equal(load_features(p).toarray(), counts)
        labels = load_labels(p)
        assert labels.dtype == np.bool_
        assert np.array_equal(labels, counts > 0)

        edges = frozenset((min(a, b), max(a, b)) for a, b in pairs if a != b)
        if not edges:
            with pytest.raises(DataError):
                load_edge_list(p)
            return
        loops = sum(a == b for a, b in pairs)
        g = load_edge_list(p)
        assert (g.num_nodes, g.edges.tolist(), g.self_loops_dropped) == (
            n, [list(e) for e in sorted(edges)], loops)

    @PROPERTY_SETTINGS
    @given(arr=_finite_matrices())
    @example(arr=np.array([
        [0.0, -0.0, 5e-324, -5e-324],
        [1e308, -1e308, 2.2250738585072014e-308, -1.7976931348623157e308],
    ]))
    def test_save_then_load_matrix_is_bit_exact(self, tmp_path_factory, arr):
        p = tmp_path_factory.mktemp("matrix") / "m.txt"
        save_matrix(arr, p)
        back = load_matrix(p)
        assert back.dtype == np.float64 and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()  # -0.0 and 0.0 differ here
