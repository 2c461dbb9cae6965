import math
import tracemalloc

import numpy as np
import pytest

import graphtopics.graph_data as gd
from graphtopics.graph_data import (
    AdjacencyGraph,
    DataError,
    SparseCountMatrix,
    _sample_nonedges,
    build_cosine_adjacency,
    load_content_cites,
    load_edge_list,
    load_triples,
    normalize_adjacency,
    split_edges,
    standard_label_split,
)

import reference
from conftest import edge_set


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCorpus:
    def test_triples_direct_transcription(self, tmp_path):
        path = write(tmp_path, "x.txt", "0 3 2\n1 0 1\n")
        x = load_triples(path)
        assert x.num_nodes == 2
        assert x.vocab_size >= 4
        entries = set(zip(x.cols.tolist(), x.rows.tolist(), x.counts.tolist()))
        assert entries == {(0, 3, 2), (1, 0, 1)}

    def test_empty_file_is_no_nodes(self, tmp_path):
        path = write(tmp_path, "empty.txt", "")
        with pytest.raises(DataError, match="no nodes"):
            load_triples(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "bad.txt", "0 1 2\n0 1\n")
        with pytest.raises(DataError, match="bad.txt:2"):
            load_triples(path)

    def test_negative_count_rejected(self, tmp_path):
        path = write(tmp_path, "neg.txt", "0 1 -3\n")
        with pytest.raises(DataError, match="negative"):
            load_triples(path)

    def test_duplicate_entry_rejected(self):
        x = SparseCountMatrix(2, 4, np.array([1, 1]), np.array([0, 0]), np.array([1, 2]))
        with pytest.raises(DataError, match="duplicate"):
            x.validate()

    def test_unsorted_duplicate_entry_rejected(self):
        # keys (node, term) in file order: (1, 0), (0, 2), (1, 3), (0, 2)
        x = SparseCountMatrix(2, 4, np.array([0, 2, 3, 2]), np.array([1, 0, 1, 0]), np.ones(4, int))
        with pytest.raises(DataError, match="duplicate"):
            x.validate()
        SparseCountMatrix(2, 4, x.rows[:3], x.cols[:3], x.counts[:3]).validate()

    def test_content_cites_roundtrip(self, tmp_path):
        content = write(
            tmp_path,
            "c.content",
            "p1 1 0 1 sports\np2 0 1 0 politics\np3 1 1 0 sports\n",
        )
        cites = write(tmp_path, "c.cites", "p1 p2\np2 p3\np1 p1\npX p1\n")
        x, labels, graph, id_map = load_content_cites(content, cites)
        assert x.num_nodes == 3 and x.vocab_size == 3
        assert labels.num_classes == 2
        assert graph.num_edges == 2  # self-cite and unknown id dropped
        assert id_map == {"p1": 0, "p2": 1, "p3": 2}


class TestCosineAdjacency:
    def _x(self, rows):
        arr = np.asarray(rows)
        j, v = np.nonzero(arr)
        return SparseCountMatrix(arr.shape[0], arr.shape[1], v, j, arr[j, v])

    def test_identical_vectors_always_edge(self):
        x = self._x([[1, 2, 0], [1, 2, 0]])
        graph = build_cosine_adjacency(x, 0.99)
        assert edge_set(graph) == {(0, 1)}

    def test_orthogonal_vectors_no_edge(self):
        x = self._x([[1, 0, 0], [0, 1, 0]])
        assert build_cosine_adjacency(x, 0.5).num_edges == 0

    def test_hand_evaluated_cosine_at_threshold(self):
        # cos((1,1,0),(1,0,0)) = 1/sqrt(2) ~ 0.7071 >= 0.7
        x = self._x([[1, 1, 0], [1, 0, 0]])
        assert edge_set(build_cosine_adjacency(x, 0.7)) == {(0, 1)}
        assert build_cosine_adjacency(x, 0.71).num_edges == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 5, size=(6, 8))
        base[base.sum(axis=1) == 0, 0] = 1
        scaled = base.copy()
        scaled[2] *= 7  # positive rescaling of one document
        e1 = edge_set(build_cosine_adjacency(self._x(base), 0.6))
        e2 = edge_set(build_cosine_adjacency(self._x(scaled), 0.6))
        assert e1 == e2

    def test_zero_document_named(self):
        x = self._x([[1, 0], [0, 0]])
        x = SparseCountMatrix(2, 2, x.rows, x.cols, x.counts)
        with pytest.raises(DataError, match="node 1"):
            build_cosine_adjacency(x, 0.5)

    def test_threshold_range_checked(self):
        x = self._x([[1, 0], [0, 1]])
        with pytest.raises(DataError):
            build_cosine_adjacency(x, 1.5)


class TestCosineBlocks:
    """The row-block build of the cosine graph against the dense N x N
    similarity, and its memory."""

    @staticmethod
    def _corpus(n, vocab, seed):
        # random documents, two duplicate pairs (cos 1) and one pair at cos
        # exactly 0.5: (1, 0, 0, 0) against (1, 1, 1, 1) on terms 0..3
        g = np.random.default_rng(seed)
        dense = g.poisson(0.2, size=(n, vocab))
        dense[dense.sum(axis=1) == 0, 4] = 1
        dense[7], dense[n - 3] = dense[2], 3 * dense[11]
        dense[n - 2:] = 0
        dense[n - 2, 0] = 1
        dense[n - 1, :4] = 1
        j, v = np.nonzero(dense)
        return SparseCountMatrix(n, vocab, v, j, dense[j, v])

    @pytest.mark.parametrize("block_entries", [1000, 2**20])
    @pytest.mark.parametrize("tau", [0.25, 0.4, 0.5])
    def test_matches_dense_similarity(self, monkeypatch, block_entries, tau):
        n = 257  # 1000-entry blocks hold 3 rows, and 257 = 85 * 3 + 2
        monkeypatch.setattr(gd, "_SIM_BLOCK_ENTRIES", block_entries)
        x = self._corpus(n, 40, seed=int(10 * tau))
        built = edge_set(build_cosine_adjacency(x, tau))
        above, near = reference.dense_cosine_pairs(x, tau)
        assert len(above) > 100
        assert built - near == above - near
        assert {(2, 7), (11, n - 3)} <= built
        assert (n - 2, n - 1) in built  # cos exactly 0.5, at or above every tau here

    def test_peak_memory_bounded(self):
        # 5000 documents: the dense similarity alone would take 200 MB
        n, vocab = 5000, 300
        g = np.random.default_rng(3)
        keys = np.unique(np.repeat(np.arange(n), 12) * vocab + g.integers(0, vocab, size=12 * n))
        x = SparseCountMatrix(n, vocab, keys % vocab, keys // vocab, g.integers(1, 4, size=keys.size))
        tracemalloc.start()
        try:
            graph = build_cosine_adjacency(x, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.num_edges > 0
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestNormalizeAdjacency:
    def test_two_nodes_with_self_loops_all_half(self):
        graph = AdjacencyGraph.from_pairs(2, [[0, 1]])
        assert np.allclose(normalize_adjacency(graph).toarray(), 0.5)

    def test_path_graph_values(self):
        # with self-loops the path 0-1-2 has degrees 2, 3, 2; node 3 is isolated
        graph = AdjacencyGraph.from_pairs(4, [[0, 1], [1, 2]])
        norm = normalize_adjacency(graph).toarray()
        assert norm[3, 3] == 1 and norm[3].sum() == 1
        assert norm[0, 0] == pytest.approx(1 / 2)
        assert norm[1, 1] == pytest.approx(1 / 3)
        assert norm[0, 1] == pytest.approx(1 / math.sqrt(6))
        assert norm[1, 2] == pytest.approx(1 / math.sqrt(6))
        assert norm[0, 2] == 0

    def test_symmetry_and_row_sum_bound(self):
        rng = np.random.default_rng(1)
        pairs = set()
        while len(pairs) < 20:
            i, j = rng.integers(0, 12, size=2)
            if i != j:
                pairs.add((min(i, j), max(i, j)))
        graph = AdjacencyGraph.from_pairs(12, sorted(pairs))
        norm = normalize_adjacency(graph).toarray()
        assert np.allclose(norm, norm.T)
        max_deg = (graph.degrees() + 1).max()
        assert norm.sum(axis=1).max() <= math.sqrt(max_deg) + 1e-12


class TestSplitEdges:
    def _graph(self, n=30, target=100, seed=0):
        rng = np.random.default_rng(seed)
        pairs = set()
        while len(pairs) < target:
            i, j = rng.integers(0, n, size=2)
            if i != j:
                pairs.add((min(i, j), max(i, j)))
        return AdjacencyGraph.from_pairs(n, sorted(pairs))

    def test_five_and_ten_percent(self):
        graph = self._graph()
        split = split_edges(graph, 0.05, 0.10, seed=3)
        assert len(split.val_edges) == 5
        assert len(split.test_edges) == 10
        assert split.train.num_edges == 85

    def test_zero_fractions(self):
        graph = self._graph()
        split = split_edges(graph, 0.0, 0.0, seed=3)
        assert split.train.num_edges == graph.num_edges
        assert len(split.val_edges) == 0 and len(split.test_edges) == 0

    def test_deterministic_given_seed(self):
        graph = self._graph()
        a = split_edges(graph, 0.1, 0.2, seed=11)
        b = split_edges(graph, 0.1, 0.2, seed=11)
        assert np.array_equal(a.test_edges, b.test_edges)
        assert np.array_equal(a.val_nonedges, b.val_nonedges)

    def test_partition_and_nonedge_disjointness(self):
        graph = self._graph()
        split = split_edges(graph, 0.1, 0.2, seed=5)
        all_edges = edge_set(graph)
        parts = (
            edge_set(split.train)
            | set(map(tuple, split.val_edges))
            | set(map(tuple, split.test_edges))
        )
        assert parts == all_edges
        total = split.train.num_edges + len(split.val_edges) + len(split.test_edges)
        assert total == graph.num_edges
        for ne in np.vstack([split.val_nonedges, split.test_nonedges]):
            assert tuple(ne) not in all_edges and ne[0] != ne[1]

    def test_bad_fractions(self):
        graph = self._graph()
        with pytest.raises(DataError):
            split_edges(graph, 0.7, 0.5, seed=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_nonedges_match_loop(self, seed):
        g = np.random.default_rng(seed)
        # from sparse to dense enough that rounds reject many draws
        for n, e, count in [(40, 20, 30), (30, 300, 100), (12, 60, 6), (200, 2000, 0)]:
            pairs = g.integers(0, n, size=(e, 2))
            graph = AdjacencyGraph.from_pairs(n, pairs[pairs[:, 0] != pairs[:, 1]])
            keys = np.unique(graph.edges[:, 0] * n + graph.edges[:, 1])
            got = _sample_nonedges(n, keys, count, np.random.default_rng(100 + seed))
            want = reference.loop_nonedges(n, keys, count, np.random.default_rng(100 + seed))
            assert got.shape == (count, 2) and np.array_equal(got, want)

    def test_split_of_unsorted_graph(self):
        # edges read from a dataset file need not be sorted or distinct
        graph = self._graph()
        shuffled = np.random.default_rng(0).permutation(graph.num_edges)
        unsorted = AdjacencyGraph(graph.num_nodes, graph.edges[shuffled], graph.values[shuffled])
        split = split_edges(unsorted, 0.1, 0.2, seed=5)
        # the non-edges depend on the set of present pairs alone
        ordered = split_edges(graph, 0.1, 0.2, seed=5)
        assert np.array_equal(split.val_nonedges, ordered.val_nonedges)
        assert np.array_equal(split.test_nonedges, ordered.test_nonedges)


class TestSparseCountMatrix:
    def test_node_major_matches_csc_transpose(self):
        # nodes 1, 4, 6, 7 and 9 have no terms and terms 0, 3 and 5 no
        # nodes; entries come in no particular order
        g = np.random.default_rng(3)
        n, v = 10, 7
        keys = np.arange(n * v).reshape(n, v)[[0, 2, 3, 5, 8]][:, [1, 2, 4, 6]].ravel()
        keys = g.choice(keys, size=12, replace=False)
        x = SparseCountMatrix(n, v, keys % v, keys // v, g.integers(1, 5, size=12))
        got, want = x.node_major(), x.to_csc().T.tocsr()
        assert got.shape == want.shape == (n, v)
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).dtype == getattr(want, attr).dtype
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


class TestGraphBasics:
    def test_no_self_loops(self):
        with pytest.raises(DataError):
            AdjacencyGraph.from_pairs(3, [[1, 1]])

    def test_duplicates_collapse_and_orientation(self):
        graph = AdjacencyGraph.from_pairs(4, [[2, 0], [0, 2], [3, 1]])
        assert graph.num_edges == 2
        assert np.all(graph.edges[:, 0] < graph.edges[:, 1])

    def test_edge_list_loader(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 1\n1 0\n2 3\n")
        graph = load_edge_list(str(path))
        assert graph.num_edges == 2 and graph.num_nodes == 4

    def test_subgraph_relabels(self):
        graph = AdjacencyGraph.from_pairs(5, [[0, 1], [1, 4], [2, 3]])
        sub = graph.subgraph(np.array([1, 3, 4]))
        assert sub.num_nodes == 3
        assert edge_set(sub) == {(0, 2)}  # the 1-4 edge in local indices

    @staticmethod
    def _random_graph(g, n, e, weighted):
        pairs = g.integers(0, n, size=(e, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        values = g.integers(1, 6, size=len(pairs)) if weighted else None
        return AdjacencyGraph.from_pairs(n, pairs, values)

    @pytest.mark.parametrize("seed", range(4))
    def test_subgraph_matches_edge_scan(self, seed):
        g = np.random.default_rng(seed)
        # sparse graphs leave isolated nodes and batches without edges
        for n, e, weighted in [(30, 10, False), (60, 200, True), (500, 3000, True)]:
            graph = self._random_graph(g, n, e, weighted)
            deg = graph.degrees()
            batches = [np.zeros(0, np.int64), np.flatnonzero(deg == 0)[:5],
                       np.arange(n), g.permutation(n)[: n // 3]]
            batches += [np.unique(g.integers(0, n, size=size)) for size in (2, 10, n // 4)]
            for nodes in batches:
                got, want = graph.subgraph(nodes), reference.scan_subgraph(graph, nodes)
                assert got.num_nodes == want.num_nodes == len(nodes)
                assert np.array_equal(got.edges, want.edges)
                assert np.array_equal(got.values, want.values)
                assert got.edges.dtype == got.values.dtype == np.int64


class TestStandardLabelSplit:
    def test_counts_and_disjointness(self):
        from graphtopics.graph_data import LabelVector

        rng = np.random.default_rng(0)
        labels = LabelVector(rng.integers(0, 3, size=200), 3)
        train, val, test = standard_label_split(labels, per_class=5, val_count=50, test_count=60)
        assert len(train) == 15 and len(val) == 50 and len(test) == 60
        assert not set(train) & set(val) and not set(val) & set(test)
        for cls in range(3):
            assert (labels.labels[train] == cls).sum() == 5

    def test_zero_test_count_gives_empty_test_set(self):
        from graphtopics.graph_data import LabelVector

        labels = LabelVector(np.arange(40) % 3, 3)
        train, val, test = standard_label_split(labels, per_class=2, val_count=5, test_count=0)
        assert len(train) == 6 and len(val) == 5 and len(test) == 0
