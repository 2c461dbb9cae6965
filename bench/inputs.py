"""Seeded synthetic document networks with planted topic structure.

Every generator takes the seed as an argument and builds its graph in
O(nodes + edges) memory: node topic proportions θ (N x K), topic word
distributions β (K x V), documents drawn token by token from Σ_k θ_ik β_k,
and edges drawn per topic with both endpoints chosen ∝ θ_ik w_i, where w_i is
a node's degree propensity drawn independently of its document length.  No
N x N matrix is ever formed.  Results are written in the program's dataset
container (``save_dataset``) and cached per (workload, seed).

Run as a script to generate one input:
    python3 bench/inputs.py <workload> <seed> <out.npz>
"""

import os
import sys

import numpy as np

# Shapes of the paper's datasets (Cora, a 200k-node scaled Pubmed, 20News).
SHAPES = {
    "cora-fullbatch-attention": dict(
        nodes=2708, vocab=1433, topics=7, doc_len=18, binary=True,
        edges=5400, degree_sigma=1.0, noise_edges=0.05, zipf=0.9,
    ),
    "pubmed200k-scalable-conv": dict(
        nodes=200_000, vocab=500, topics=10, doc_len=45, binary=False,
        edges=440_000, degree_sigma=1.0, noise_edges=0.05, zipf=1.1,
    ),
    # the graph of this workload is built from the features by the program
    "news-gibbs-counts": dict(
        nodes=3000, vocab=2000, topics=20, doc_len=40, binary=False,
        edges=0, degree_sigma=0.0, noise_edges=0.0, zipf=1.2,
    ),
}

_CHUNK = 20_000  # documents per generation chunk, bounds the token arrays


def _stacked_table(weights):
    """Row-stacked cumulative table of row-stochastic (R, C) weights.

    Row r occupies the interval (r, r + 1], so one ``searchsorted`` of
    ``r + u`` draws a column for row r.
    """
    cum = np.cumsum(weights, axis=1)
    cum[:, -1] = 1.0
    return (cum + np.arange(len(cum))[:, None]).ravel(), weights.shape[1]


def _draw(table, rows, u):
    """One categorical column per entry of ``rows`` from a stacked table."""
    flat, cols = table
    idx = np.searchsorted(flat, rows + u, side="right")
    return np.minimum(idx - rows * cols, cols - 1)


def _dedupe_keys(keys):
    """Sorted distinct keys with multiplicities (sort + compare)."""
    keys = np.sort(keys)
    start = np.concatenate(([True], keys[1:] != keys[:-1]))
    first = np.flatnonzero(start)
    counts = np.diff(np.append(first, len(keys)))
    return keys[first], counts


def generate(workload, seed):
    """Return ``(nodes, vocab, features, pairs)`` for one workload and seed.

    Features are (node, term, count) columns; ``pairs`` is an (E, 2) array of
    distinct unordered pairs i < j (empty for the cosine-graph workload).
    """
    s = SHAPES[workload]
    n, v, k = s["nodes"], s["vocab"], s["topics"]
    g = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0xBE4C])))

    main = g.integers(0, k, size=n)
    alpha = np.full((n, k), 0.2)
    alpha[np.arange(n), main] += 3.0
    theta = g.standard_gamma(alpha)
    theta /= theta.sum(axis=1, keepdims=True)
    # each topic: a Zipf profile over its own random word ranking, the same
    # profile for every seed so that only the content, not the shape, varies
    profile = 1.0 / np.arange(1, v + 1) ** s["zipf"]
    beta = np.stack([profile[g.permutation(v)] for _ in range(k)])
    beta /= beta.sum(axis=1, keepdims=True)
    theta_table, beta_table = _stacked_table(theta), _stacked_table(beta)

    # document lengths: tokens drawn, duplicates merged (or dropped if binary)
    tokens = np.maximum(g.poisson(s["doc_len"] * (1.1 if s["binary"] else 1.0), size=n), 3)
    node_col, term_col, count_col = [], [], []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        doc = np.repeat(np.arange(lo, hi), tokens[lo:hi])
        topic = _draw(theta_table, doc, g.uniform(size=len(doc)))
        term = _draw(beta_table, topic, g.uniform(size=len(doc)))
        keys, counts = _dedupe_keys(doc * v + term)
        node_col.append(keys // v)
        term_col.append(keys % v)
        count_col.append(np.ones_like(counts) if s["binary"] else counts)
    features = (np.concatenate(node_col), np.concatenate(term_col), np.concatenate(count_col))

    pairs = np.zeros((0, 2), dtype=np.int64)
    if s["edges"]:
        # degree propensity, independent of the document length
        w = np.exp(s["degree_sigma"] * g.standard_normal(n))
        endpoint = theta * w[:, None]  # (N, K): P(i | topic k) ∝ θ_ik w_i
        topic_mass = endpoint.sum(axis=0)
        node_table = _stacked_table((endpoint / topic_mass).T)  # (K, N)
        draws = int(s["edges"] * 1.2)
        n_noise = int(draws * s["noise_edges"])
        z = g.choice(k, size=draws - n_noise, p=topic_mass / topic_mass.sum())
        a = _draw(node_table, z, g.uniform(size=len(z)))
        b = _draw(node_table, z, g.uniform(size=len(z)))
        a = np.concatenate([a, g.integers(0, n, size=n_noise)])
        b = np.concatenate([b, g.integers(0, n, size=n_noise)])
        keep = a != b
        lo_end, hi_end = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
        key = lo_end * n + hi_end
        _, first = np.unique(key, return_index=True)
        keys = np.sort(key[np.sort(first)[: s["edges"]]])  # exactly the target count
        pairs = np.column_stack([keys // n, keys % n])
    return n, v, features, pairs


def write_dataset(workload, seed, path):
    """Generate one input and write it with the program's ``save_dataset``."""
    from graphtopics.graph_data import AdjacencyGraph, SparseCountMatrix, save_dataset

    n, v, (nodes, terms, counts), pairs = generate(workload, seed)
    x = SparseCountMatrix(n, v, terms, nodes, counts)
    graph = AdjacencyGraph(n, pairs, np.ones(len(pairs), dtype=np.int64))
    tmp = path + ".tmp.npz"
    save_dataset(tmp, x, graph)
    os.replace(tmp, path)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: inputs.py <workload> <seed> <out.npz>")
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    write_dataset(sys.argv[1], int(sys.argv[2]), sys.argv[3])
