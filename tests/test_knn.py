"""Proximity-view construction: cosine similarity and top-k selection."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfactor import build_knn_view
from graphfactor.errors import DataError
from graphfactor.knn import load_directed_edge_list, save_knn_edge_list

from oracles import oracle_knn_edges


def feats(dense) -> sp.csr_matrix:
    return sp.csr_matrix(np.asarray(dense, dtype=np.float64))


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)


def nbrs(view, v):
    """Node v's neighbors in selection order."""
    return view.indices[view.indptr[v]:view.indptr[v + 1]].tolist()


def view_edges(view):
    return [(u, v) for u in range(view.num_nodes) for v in nbrs(view, u)]


class TestCosineSimilarity:
    def test_matches_oracle_and_is_symmetric(self):
        # real-valued features: the oracle's cosine ranking decides every
        # edge, and with k = n - 1 every positive similarity is an edge,
        # so the edge set is symmetric with no self-loops
        rng = np.random.default_rng(1)
        dense = rng.random((9, 5)) * (rng.random((9, 5)) < 0.6)
        for k in (3, 8):
            edges = view_edges(build_knn_view(feats(dense), k=k))
            assert edges == oracle_knn_edges(dense, k)
        assert set(edges) == {(v, u) for u, v in edges}
        assert all(u != v for u, v in edges)

    def test_zero_norm_rows_get_zero_similarity(self):
        # node 1 has no features: no out-edges, and no node's neighbor
        dense = [[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 2.0]]
        view = build_knn_view(feats(dense), k=3)
        assert nbrs(view, 1) == []
        assert 1 not in view.indices
        assert nbrs(view, 0) == [2]

    def test_identical_rows_give_similarity_one(self):
        # node 1 is node 0 scaled, node 3 a copy of node 0: all three tie,
        # and every tie goes to the lowest id
        dense = [[2.0, 1.0], [4.0, 2.0], [0.0, 3.0], [2.0, 1.0]]
        view = build_knn_view(feats(dense), k=1)
        assert nbrs(view, 0) == [1]
        assert nbrs(view, 1) == [0]
        assert nbrs(view, 3) == [0]
        assert nbrs(build_knn_view(feats(dense), k=2), 3) == [0, 1]

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            build_knn_view(feats([[1.0, 2.0]]), k=1)
        with pytest.raises(ValueError):
            build_knn_view(feats(np.zeros((0, 2))), k=1)


class TestTopKSelect:
    def test_ties_break_toward_lowest_index(self):
        # nodes 1, 2, 3 all identical => similarity 1.0 ties from node 0's view
        dense = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
        view = build_knn_view(feats(dense), k=2)
        assert nbrs(view, 0) == [1, 2]
        assert nbrs(view, 3) == [0, 1]

    def test_zero_similarity_never_selected(self):
        # node 2 shares no features with 0 or 1
        dense = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        view = build_knn_view(feats(dense), k=2)
        assert nbrs(view, 0) == [1]
        assert nbrs(view, 2) == []
        assert view.deficient_nodes() == [0, 1, 2]

    def test_k_bounds(self):
        f = feats([[1.0], [1.0], [1.0]])
        with pytest.raises(ValueError):
            build_knn_view(f, k=0)
        with pytest.raises(ValueError):
            build_knn_view(f, k=3)  # k must stay below the node count
        with pytest.raises(ValueError):
            build_knn_view(f, k=5)
        with pytest.raises(ValueError):
            build_knn_view(f, k=5, block_rows=2)
        for k in (2.5, np.float64(2.0)):
            with pytest.raises(ValueError):
                build_knn_view(f, k=k)

    def test_out_degree_capped_at_k(self):
        rng = np.random.default_rng(2)
        dense = (rng.random((20, 6)) < 0.5).astype(float)
        view = build_knn_view(feats(dense), k=4)
        assert np.diff(view.indptr).max() <= 4
        assert view.directed_edge_count == view.indices.size

    def test_matches_bruteforce_oracle_binary_exact(self):
        for case in range(25):
            rng = np.random.default_rng(500 + case)
            n = int(rng.integers(3, 30))
            dense = (rng.random((n, 7)) < 0.4).astype(float)
            k = int(rng.integers(1, n))
            view = build_knn_view(feats(dense), k=k)
            assert view_edges(view) == oracle_knn_edges(dense, k)

    def test_row_scaling_invariance(self):
        # cosine ignores row magnitude: integer scalings keep dots exact
        rng = np.random.default_rng(3)
        dense = (rng.random((12, 5)) < 0.5).astype(float)
        scaled = dense * np.array([2.0 ** rng.integers(-3, 4) for _ in range(12)])[:, None]
        v1 = build_knn_view(feats(dense), k=3)
        v2 = build_knn_view(feats(scaled), k=3)
        assert view_edges(v1) == view_edges(v2)


class TestBlockedPath:
    def test_blocked_equals_unblocked(self):
        rng = np.random.default_rng(4)
        dense = rng.random((23, 6)) * (rng.random((23, 6)) < 0.5)
        f = feats(dense)
        base = view_edges(build_knn_view(f, k=5))
        for block in (1, 4, 7, 23, 100):
            assert view_edges(build_knn_view(f, k=5, block_rows=block)) == base

    def test_block_rows_validated(self):
        with pytest.raises(ValueError):
            build_knn_view(feats([[1.0], [1.0]]), k=1, block_rows=0)


class TestInputTypes:
    DENSE = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0], [3.0, 0.5], [0.0, 0.0]])

    @pytest.mark.parametrize("convert", [np.asarray, sp.coo_matrix, sp.csc_matrix, sp.csr_array])
    def test_dense_and_any_sparse_format_match_csr(self, convert):
        want = build_knn_view(feats(self.DENSE), k=2)
        got = build_knn_view(convert(self.DENSE), k=2)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    @pytest.mark.parametrize("bad", [DENSE[0], [[1.0, 0.0], [0.0, 1.0]], None,
                                     np.ones((2, 2, 2))])
    def test_other_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match="2-D"):
            build_knn_view(bad, k=1)


@st.composite
def tie_heavy_features(draw):
    """Small binary or count features whose rows are copies, power-of-two
    multiples or zero rows of a few base rows, so that many rows hold more
    than k similarities equal to their k-th one; with k.

    Counts run 0 to 4. With a count of 3 the cosines of parallel rows can
    round to 1 + 1 ulp, which the builder and the oracle both clip to 1.
    """
    num_features = draw(st.integers(1, 5))
    values = st.sampled_from(draw(st.sampled_from([[0, 1], [0, 1, 2, 3, 4]])))
    base = st.lists(values, min_size=num_features, max_size=num_features)
    bases = np.array(draw(st.lists(base, min_size=1, max_size=4)), dtype=np.float64)
    n = draw(st.integers(2, 16))
    picks = draw(st.lists(st.integers(0, len(bases) - 1), min_size=n, max_size=n))
    scales = draw(st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.0, 4.0]), min_size=n, max_size=n))
    dense = bases[picks] * np.array(scales)[:, None]
    return dense, draw(st.integers(1, n - 1))


class TestTieHeavy:
    @PROPERTY_SETTINGS
    @given(case=tie_heavy_features())
    def test_matches_oracle_at_every_block_size(self, case):
        dense, k = case
        n = dense.shape[0]
        want = oracle_knn_edges(dense, k)
        for block in (1, 2, n // 2, None):
            assert view_edges(build_knn_view(feats(dense), k=k, block_rows=block)) == want


class TestCsrView:
    def test_to_csr_is_canonical_and_holds_the_edges(self):
        # node 2 copies node 0; node 3 has no features; node 4 meets node 1 only
        dense = [[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
        view = build_knn_view(feats(dense), k=2)
        assert nbrs(view, 0) == [2, 1]  # selection order, not column order
        mat = view.to_csr()
        assert mat.has_canonical_format
        rows, cols = mat.nonzero()
        assert sorted(zip(rows.tolist(), cols.tolist())) == sorted(view_edges(view))
        assert np.all(mat.data == 1.0)
        assert view.deficient_nodes() == [3, 4]


class TestMemoryBound:
    @pytest.mark.parametrize("n", [3000, 6000])
    def test_default_blocks_keep_the_peak_flat(self, n):
        # Random sparse features, 500 columns at density 0.02; one block of
        # all rows would need several dense n x n arrays (hundreds of MB).
        rng = np.random.default_rng(n)
        nnz = int(0.02 * n * 500)
        mat = sp.coo_matrix(
            (rng.random(nnz), (rng.integers(n, size=nnz), rng.integers(500, size=nnz))),
            shape=(n, 500),
        ).tocsr()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            build_knn_view(mat, k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20


class TestEdgeListRoundTrip:
    def test_save_then_load_matches_matrix(self, tmp_path):
        rng = np.random.default_rng(5)
        dense = (rng.random((10, 4)) < 0.5).astype(float)
        view = build_knn_view(feats(dense), k=3)
        p = tmp_path / "z.txt"
        save_knn_edge_list(view, p)
        want = view.to_csr()
        rows, cols = want.nonzero()
        n = 1 + max(rows.max(), cols.max())  # the loader sizes the matrix by the largest id
        mat = load_directed_edge_list(p)
        assert mat.shape == (n, n)
        assert np.array_equal(mat.toarray(), want[:n, :n].toarray())

    def test_file_lines_in_selection_order(self, tmp_path):
        dense = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
        view = build_knn_view(feats(dense), k=2)
        p = tmp_path / "z.txt"
        save_knn_edge_list(view, p)
        assert p.read_text().splitlines()[:2] == ["0 1", "0 2"]

    def test_load_rejects_bad_input(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("0 1 2\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_directed_edge_list(p)
        p2 = tmp_path / "empty.txt"
        p2.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_directed_edge_list(p2)

    def test_duplicate_directed_edges_collapse_to_binary(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("0 1\n0 1\n1 0\n", encoding="utf-8")
        mat = load_directed_edge_list(p)
        assert mat[0, 1] == 1.0
        assert mat[1, 0] == 1.0
        assert mat.nnz == 2
        assert mat.has_canonical_format
