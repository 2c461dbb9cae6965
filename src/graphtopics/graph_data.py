"""Corpus and graph ingestion, adjacency construction, and edge splits.

Node features are bags of words held as a sparse count matrix; edges are
unordered pairs over the same node set.  File formats:

* triples: one ``node term count`` per line, whitespace-separated, 0-based.
* edge list: one ``i j`` per line, undirected, duplicates collapsed.
* content/cites pair: ``id feat_1 ... feat_K label`` plus ``citing cited``;
  raw ids are remapped to dense 0-based indices (mapping written to a
  sidecar when loading through the CLI).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .stochastic import RngStream, _gen


class DataError(ValueError):
    """Malformed input files or inconsistent graph data."""


@dataclass
class SparseCountMatrix:
    """Bag-of-words features: entries (node j, term v, count) with count >= 1."""

    num_nodes: int
    vocab_size: int
    rows: np.ndarray  # term index v per entry
    cols: np.ndarray  # node index j per entry
    counts: np.ndarray

    def validate(self):
        if np.any(self.counts < 1):
            raise DataError("counts must be positive integers")
        if np.any((self.rows < 0) | (self.rows >= self.vocab_size)):
            raise DataError("term index out of range")
        if np.any((self.cols < 0) | (self.cols >= self.num_nodes)):
            raise DataError("node index out of range")
        keys = np.sort(self.cols * self.vocab_size + self.rows)
        if np.any(keys[1:] == keys[:-1]):
            raise DataError("duplicate (node, term) entry")
        return self

    def to_csc(self):
        """V x N scipy matrix (terms by nodes)."""
        return sp.csc_matrix(
            (self.counts.astype(np.float64), (self.rows, self.cols)),
            shape=(self.vocab_size, self.num_nodes),
        )

    def node_major(self):
        """N x V scipy matrix (nodes by terms), the encoder input layout."""
        return self.to_csc().T.tocsr()


@dataclass
class AdjacencyGraph:
    """Undirected graph: unordered pairs (i < j) with positive integer values."""

    num_nodes: int
    edges: np.ndarray  # (E, 2) with edges[:, 0] < edges[:, 1]
    values: np.ndarray  # 1 for binary graphs

    @classmethod
    def from_pairs(cls, num_nodes, pairs, values=None):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if len(pairs) == 0:
            return cls(num_nodes, pairs, np.zeros(0, dtype=np.int64))
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise DataError("self-loops are not allowed")
        if np.any((pairs < 0) | (pairs >= num_nodes)):
            raise DataError("edge endpoint out of range")
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        key = lo * num_nodes + hi
        order = np.argsort(key, kind="stable")
        key, lo, hi = key[order], lo[order], hi[order]
        if values is None:
            vals = np.ones(len(lo), dtype=np.int64)
        else:
            vals = np.asarray(values, dtype=np.int64)[order]
            if np.any(vals < 1):
                raise DataError("edge values must be positive integers")
        keep = np.concatenate(([True], key[1:] != key[:-1]))
        return cls(num_nodes, np.column_stack([lo[keep], hi[keep]]), vals[keep])

    @property
    def num_edges(self):
        return len(self.edges)

    def degrees(self):
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def to_sparse(self):
        """Symmetric N x N scipy matrix with the edge values."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        v = self.values.astype(np.float64)
        return sp.csr_matrix(
            (np.concatenate([v, v]), (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.num_nodes, self.num_nodes),
        )

    def edge_set(self):
        return set(map(tuple, self.edges))

    @cached_property
    def neighbors(self):
        """Symmetric CSR neighbor index with the edge values: row i lists the
        neighbors of node i.  Built on first use and kept, so the edges must
        not change afterwards."""
        return self.to_sparse()

    def subgraph(self, nodes):
        """Induced subgraph on the given (unique) node array, relabeled to
        positions in it.

        Gathers only the neighbor lists of ``nodes``, so a call costs the sum
        of their degrees once the neighbor index exists.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        adj = self.neighbors
        starts = adj.indptr[nodes]
        lengths = adj.indptr[nodes + 1] - starts
        src = np.repeat(np.arange(len(nodes)), lengths)
        # concatenated ranges starts[k] .. starts[k] + lengths[k] - 1
        offsets = starts - (np.cumsum(lengths) - lengths)
        slots = np.arange(lengths.sum()) + np.repeat(offsets, lengths)
        order = np.argsort(nodes, kind="stable")
        at, found = sorted_lookup(nodes[order], adj.indices[slots])
        dst = order[at[found]]
        src, slots = src[found], slots[found]
        keep = src < dst  # each edge is listed from both endpoints
        if not np.any(keep):
            return AdjacencyGraph(len(nodes), np.zeros((0, 2), np.int64), np.zeros(0, np.int64))
        return AdjacencyGraph.from_pairs(
            len(nodes), np.column_stack([src[keep], dst[keep]]), adj.data[slots[keep]]
        )


@dataclass
class NormalizedAdjacency:
    """Symmetrically normalized adjacency Q^(-1/2) (A [+ I]) Q^(-1/2)."""

    num_nodes: int
    matrix: sp.csr_matrix
    self_loops_added: bool


@dataclass
class LabelVector:
    """Optional class index per node; -1 marks an unlabeled node."""

    labels: np.ndarray
    num_classes: int


@dataclass
class EdgeSplit:
    """Train/val/test edge partition plus matched non-edge samples."""

    train: AdjacencyGraph
    val_edges: np.ndarray
    test_edges: np.ndarray
    val_nonedges: np.ndarray
    test_nonedges: np.ndarray
    seed: int


def load_triples(path):
    """Read a ``node term count`` triples file into a SparseCountMatrix."""
    j_list, v_list, c_list = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 'node term count', got {line!r}")
            try:
                j, v, c = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer field in {line!r}") from None
            if c < 0:
                raise DataError(f"{path}:{lineno}: negative count")
            if j < 0 or v < 0:
                raise DataError(f"{path}:{lineno}: negative index")
            if c == 0:
                continue
            j_list.append(j)
            v_list.append(v)
            c_list.append(c)
    if not j_list:
        raise DataError(f"{path}: no nodes")
    x = SparseCountMatrix(
        num_nodes=max(j_list) + 1,
        vocab_size=max(v_list) + 1,
        rows=np.asarray(v_list, dtype=np.int64),
        cols=np.asarray(j_list, dtype=np.int64),
        counts=np.asarray(c_list, dtype=np.int64),
    )
    return x.validate()


def load_edge_list(path, num_nodes=None):
    """Read an ``i j`` per line undirected edge file; duplicates collapse."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'i j', got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer field") from None
            if i == j:
                continue
            pairs.append((i, j))
    if not pairs:
        raise DataError(f"{path}: no edges")
    arr = np.asarray(pairs, dtype=np.int64)
    n = (arr.max() + 1) if num_nodes is None else num_nodes
    return AdjacencyGraph.from_pairs(n, arr)


def load_content_cites(content_path, cites_path):
    """Read a content/cites file pair (dense binary-or-count features + labels).

    Returns ``(features, labels, graph, id_map)`` with raw document ids
    remapped to dense 0-based indices in file order.
    """
    ids, feat_rows, label_names = [], [], []
    with open(content_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 3:
                raise DataError(f"{content_path}:{lineno}: too few fields")
            ids.append(parts[0])
            label_names.append(parts[-1])
            try:
                feat_rows.append([int(f) for f in parts[1:-1]])
            except ValueError:
                raise DataError(f"{content_path}:{lineno}: non-integer feature") from None
    if not ids:
        raise DataError(f"{content_path}: no nodes")
    widths = {len(r) for r in feat_rows}
    if len(widths) != 1:
        raise DataError(f"{content_path}: inconsistent feature width {sorted(widths)}")
    if len(set(ids)) != len(ids):
        raise DataError(f"{content_path}: duplicate document id")
    feats = np.asarray(feat_rows, dtype=np.int64)
    if np.any(feats < 0):
        raise DataError(f"{content_path}: negative count")
    id_map = {raw: idx for idx, raw in enumerate(ids)}

    classes = sorted(set(label_names))
    class_map = {c: i for i, c in enumerate(classes)}
    labels = LabelVector(
        labels=np.asarray([class_map[l] for l in label_names], dtype=np.int64),
        num_classes=len(classes),
    )

    j_idx, v_idx = np.nonzero(feats)
    x = SparseCountMatrix(
        num_nodes=len(ids),
        vocab_size=feats.shape[1],
        rows=v_idx.astype(np.int64),
        cols=j_idx.astype(np.int64),
        counts=feats[j_idx, v_idx],
    ).validate()

    pairs = []
    with open(cites_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise DataError(f"{cites_path}:{lineno}: expected 'citing cited'")
            a, b = parts
            if a not in id_map or b not in id_map:
                continue  # citations into documents outside the corpus
            if id_map[a] == id_map[b]:
                continue
            pairs.append((id_map[a], id_map[b]))
    if not pairs:
        raise DataError(f"{cites_path}: no edges")
    graph = AdjacencyGraph.from_pairs(len(ids), np.asarray(pairs, dtype=np.int64))
    return x, labels, graph, id_map


def load_corpus(path, fmt, cites_path=None):
    """Load node features (and labels when the format carries them).

    ``fmt`` is ``"tsv-triples"`` or ``"cora-content"``; the latter needs the
    companion cites file and also returns the graph and id mapping.
    """
    if fmt == "tsv-triples":
        return load_triples(path), None
    if fmt == "cora-content":
        if cites_path is None:
            raise DataError("cora-content format requires a cites file")
        x, labels, graph, id_map = load_content_cites(path, cites_path)
        return x, labels, graph, id_map
    raise DataError(f"unknown corpus format {fmt!r}")


def build_cosine_adjacency(x, tau):
    """Threshold pairwise cosine similarity of feature vectors into edges.

    ``a_ij = 1`` iff ``cos(x_i, x_j) >= tau`` for i != j; self-pairs excluded.
    """
    if not 0.0 < tau < 1.0:
        raise DataError("cosine threshold must lie in (0, 1)")
    m = x.node_major()
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise DataError(f"all-zero document vector at node {zero[0]}")
    inv = sp.diags(1.0 / norms)
    unit = inv @ m
    sim = (unit @ unit.T).toarray()
    np.fill_diagonal(sim, 0.0)
    ii, jj = np.nonzero(np.triu(sim >= tau, k=1))
    return AdjacencyGraph.from_pairs(x.num_nodes, np.column_stack([ii, jj]))


def normalize_adjacency(graph, add_self_loops=True):
    """Symmetric degree normalization of A (optionally with self-loops)."""
    a = graph.to_sparse()
    a.data[:] = 1.0  # normalization acts on the binary pattern
    if add_self_loops:
        a = (a + sp.identity(graph.num_nodes, format="csr")).tocsr()
    deg = np.asarray(a.sum(axis=1)).ravel()
    isolated = np.flatnonzero(deg == 0)
    if isolated.size:
        raise DataError(f"isolated node {isolated[0]} (enable self-loops or drop it)")
    d_inv_sqrt = sp.diags(1.0 / np.sqrt(deg))
    return NormalizedAdjacency(graph.num_nodes, (d_inv_sqrt @ a @ d_inv_sqrt).tocsr(), add_self_loops)


def split_edges(graph, val_frac, test_frac, seed):
    """Random edge partition plus equal-size non-edge samples for evaluation.

    Non-edges are drawn uniformly without replacement from absent pairs
    (excluding self-pairs); everything is deterministic given the seed.
    """
    if val_frac < 0 or test_frac < 0 or val_frac + test_frac >= 1:
        raise DataError("need val_frac, test_frac >= 0 with val_frac + test_frac < 1")
    rng = _gen(RngStream(seed, (9,)))
    e = graph.num_edges
    n_val = int(round(val_frac * e))
    n_test = int(round(test_frac * e))
    if n_val + n_test > e:
        raise DataError("not enough edges to populate the requested splits")
    perm = rng.permutation(e)
    val_idx, test_idx, train_idx = perm[:n_val], perm[n_val : n_val + n_test], perm[n_val + n_test :]
    edges = graph.edges
    train = AdjacencyGraph(graph.num_nodes, edges[np.sort(train_idx)], graph.values[np.sort(train_idx)])

    present = np.sort(edges[:, 0] * graph.num_nodes + edges[:, 1])
    present = present[np.concatenate(([True], present[1:] != present[:-1]))]
    nonedges = _sample_nonedges(graph.num_nodes, present, n_val + n_test, rng)
    return EdgeSplit(
        train=train,
        val_edges=edges[np.sort(val_idx)],
        test_edges=edges[np.sort(test_idx)],
        val_nonedges=nonedges[:n_val],
        test_nonedges=nonedges[n_val:],
        seed=seed,
    )


def save_dataset(path, x, graph, labels=None):
    """Write the internal dataset container (.npz)."""
    arrays = {
        "num_nodes": np.asarray(x.num_nodes),
        "vocab_size": np.asarray(x.vocab_size),
        "x_rows": x.rows,
        "x_cols": x.cols,
        "x_counts": x.counts,
        "edges": graph.edges,
        "edge_values": graph.values,
    }
    if labels is not None:
        arrays["labels"] = labels.labels
        arrays["num_classes"] = np.asarray(labels.num_classes)
    np.savez_compressed(path, **arrays)


def load_dataset(path):
    """Read the internal dataset container; returns (features, graph, labels?)."""
    data = np.load(path, allow_pickle=False)
    x = SparseCountMatrix(
        num_nodes=int(data["num_nodes"]),
        vocab_size=int(data["vocab_size"]),
        rows=data["x_rows"],
        cols=data["x_cols"],
        counts=data["x_counts"],
    ).validate()
    graph = AdjacencyGraph(int(data["num_nodes"]), data["edges"], data["edge_values"])
    labels = None
    if "labels" in data.files:
        labels = LabelVector(labels=data["labels"], num_classes=int(data["num_classes"]))
    return x, graph, labels


def standard_label_split(labels, per_class=20, val_count=500, test_count=1000):
    """Deterministic label split: first ``per_class`` of each class (file
    order) train, the next ``val_count`` remaining nodes validate, the last
    ``test_count`` nodes test."""
    y = labels.labels
    train_idx = []
    for cls in range(labels.num_classes):
        members = np.flatnonzero(y == cls)
        if len(members) < per_class:
            raise DataError(f"class {cls} has fewer than {per_class} labeled nodes")
        train_idx.extend(members[:per_class].tolist())
    train_idx = np.asarray(sorted(train_idx), dtype=np.int64)
    rest = np.setdiff1d(np.arange(len(y)), train_idx)
    if len(rest) < val_count + test_count:
        raise DataError("not enough nodes for the requested validation/test sizes")
    val_idx = rest[:val_count]
    test_idx = rest[-test_count:]
    return train_idx, val_idx, test_idx


def sorted_lookup(sorted_keys, queries):
    """Where each query would sit in the ascending ``sorted_keys``, and a mask
    of the queries present there."""
    at = np.searchsorted(sorted_keys, queries)
    if len(sorted_keys) == 0:
        return at, np.zeros(len(at), dtype=bool)
    return at, sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == queries


def _sample_nonedges(num_nodes, present_keys, count, rng):
    """Uniform absent pairs (i < j), without replacement.

    ``present_keys`` holds the sorted, distinct keys ``i * num_nodes + j`` of
    the present pairs.  Each round draws endpoint pairs and keeps, in draw
    order, the first occurrence of every new absent pair until ``count`` are
    chosen.
    """
    total_pairs = num_nodes * (num_nodes - 1) // 2
    if total_pairs - len(present_keys) < count:
        raise DataError("graph too dense to sample the requested non-edges")
    chosen = np.zeros(0, dtype=np.int64)  # keys in draw order
    while len(chosen) < count:
        need = max(count - len(chosen), 16)
        i = rng.integers(0, num_nodes, size=2 * need)
        j = rng.integers(0, num_nodes, size=2 * need)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        keys = (lo * num_nodes + hi)[lo != hi]
        absent = ~sorted_lookup(present_keys, keys)[1] & ~sorted_lookup(np.sort(chosen), keys)[1]
        keys = keys[absent]
        _, first = np.unique(keys, return_index=True)
        new = keys[np.sort(first)][: count - len(chosen)]
        chosen = np.concatenate([chosen, new])
    return np.column_stack([chosen // num_nodes, chosen % num_nodes])
