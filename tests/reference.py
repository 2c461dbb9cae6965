"""Loop and brute-force implementations that the vectorized program paths
must match bit for bit: node-sampling probabilities and draws, the induced
subgraph by a scan over every edge, and non-edge sampling one pair at a time.
"""

import numpy as np

from graphtopics.graph_data import AdjacencyGraph
from graphtopics.stochastic import _gen


def acceptance_probabilities(importance, mix, exponent):
    f = np.asarray(importance, dtype=np.float64)
    fa = np.power(f, exponent)
    q = fa / fa.sum()
    p = mix * q + (1.0 - mix) * (1.0 - q) / (len(f) - 1)
    return p / p.sum()


def choice_draw(p, size, rng):
    return _gen(rng).choice(len(p), size=size, replace=True, p=p)


def scan_subgraph(graph, nodes):
    """Induced subgraph by mapping both endpoints of every edge."""
    nodes = np.asarray(nodes, dtype=np.int64)
    pos = -np.ones(graph.num_nodes, dtype=np.int64)
    pos[nodes] = np.arange(len(nodes))
    i, j = pos[graph.edges[:, 0]], pos[graph.edges[:, 1]]
    keep = (i >= 0) & (j >= 0)
    if not np.any(keep):
        return AdjacencyGraph(len(nodes), np.zeros((0, 2), np.int64), np.zeros(0, np.int64))
    return AdjacencyGraph.from_pairs(
        len(nodes), np.column_stack([i[keep], j[keep]]), graph.values[keep]
    )


def loop_nonedges(num_nodes, present_keys, count, rng):
    """Absent pairs accepted one at a time against Python sets."""
    present_keys = set(int(k) for k in present_keys)
    chosen = []
    seen = set()
    while len(chosen) < count:
        need = max(count - len(chosen), 16)
        i = rng.integers(0, num_nodes, size=2 * need)
        j = rng.integers(0, num_nodes, size=2 * need)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        ok = lo != hi
        for a, b in zip(lo[ok], hi[ok]):
            key = int(a) * num_nodes + int(b)
            if key in present_keys or key in seen:
                continue
            seen.add(key)
            chosen.append((int(a), int(b)))
            if len(chosen) == count:
                break
    return np.asarray(chosen, dtype=np.int64).reshape(count, 2)
