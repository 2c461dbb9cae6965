"""Output checks computed apart from the program.

Nothing here calls the program's scoring or graph code: edge probabilities,
AUC (a Mann-Whitney count), average precision and the cosine graph are
recomputed with plain numpy/scipy from the program's outputs.
"""

import numpy as np
import scipy.sparse as sp

TOL = 1e-9


def edge_probabilities(us, means, pairs):
    """``1 - exp(-Σ_t Σ_k u_k θ̄_ik θ̄_jk)`` for (i, j) rows of ``pairs``."""
    rate = np.zeros(len(pairs))
    for u, m in zip(us, means):
        rate += (m[pairs[:, 0]] * m[pairs[:, 1]] * u).sum(axis=1)
    return 1.0 - np.exp(-rate)


def mann_whitney_auc(pos, neg):
    """P(score_pos > score_neg) + P(tie) / 2, counted against sorted negatives."""
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left")
    upto = np.searchsorted(neg, pos, side="right")
    return float((below + 0.5 * (upto - below)).sum() / (len(pos) * len(neg)))


def average_precision(pos, neg):
    """Σ over distinct thresholds, high to low, of Δrecall × precision."""
    values, inverse = np.unique(np.concatenate([pos, neg]), return_inverse=True)
    hits = np.bincount(inverse[: len(pos)], minlength=len(values))[::-1]
    seen = np.bincount(inverse, minlength=len(values))[::-1]
    tp, n = np.cumsum(hits), np.cumsum(seen)
    return float(np.sum(hits / len(pos) * tp / n))


def heldout_scores(us, means, edges, nonedges):
    """(AUC, AP) of held-out edges against non-edges, recomputed."""
    pos = edge_probabilities(us, means, edges)
    neg = edge_probabilities(us, means, nonedges)
    return mann_whitney_auc(pos, neg), average_precision(pos, neg)


def degree_product_auc(train_edges, num_nodes, edges, nonedges):
    """Quality reference: AUC of the score deg_i * deg_j on the training graph."""
    deg = np.bincount(train_edges.ravel(), minlength=num_nodes).astype(np.float64)
    return mann_whitney_auc(deg[edges[:, 0]] * deg[edges[:, 1]], deg[nonedges[:, 0]] * deg[nonedges[:, 1]])


def leaked_pairs(train_edges, num_nodes, *held_out):
    """Number of held-out pairs (edges or non-edges) present in the training graph."""
    train = np.sort(train_edges.min(axis=1) * num_nodes + train_edges.max(axis=1))
    leaked = 0
    for pairs in held_out:
        keys = pairs.min(axis=1) * num_nodes + pairs.max(axis=1)
        leaked += int(np.isin(keys, train).sum())
    return leaked


def cosine_graph_mismatches(nodes, terms, counts, num_nodes, vocab, tau, edges, block=512):
    """Pairs where ``edges`` disagrees with cos >= tau, skipping pairs within
    ``TOL`` of the threshold; the similarity is built one row block at a time."""
    m = sp.csr_matrix((counts.astype(np.float64), (nodes, terms)), shape=(num_nodes, vocab))
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    unit = sp.diags(1.0 / norms) @ m
    unit_t = unit.T.tocsc()
    want, near = [], []
    for lo in range(0, num_nodes, block):
        hi = min(lo + block, num_nodes)
        sim = (unit[lo:hi] @ unit_t).toarray()
        rows = np.arange(lo, hi)[:, None]
        upper = np.arange(num_nodes)[None, :] > rows
        i, j = np.nonzero(upper & (sim >= tau))
        want.append((i + lo) * num_nodes + j)
        i, j = np.nonzero(upper & (np.abs(sim - tau) <= TOL))
        near.append((i + lo) * num_nodes + j)
    want, near = np.concatenate(want), np.concatenate(near)
    have = edges[:, 0] * num_nodes + edges[:, 1]
    diff = np.setxor1d(want, have)
    return int(np.count_nonzero(~np.isin(diff, near)))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def checkpoint_mismatches(state, weights, loaded_state, loaded_weights):
    """Names of the fields that did not survive a save/load round trip bit for bit."""
    bad = []
    for name in ("phis", "thetas", "us"):
        got = getattr(loaded_state, name)
        want = getattr(state, name)
        if len(got) != len(want) or not all(same_bits(a, b) for a, b in zip(want, got)):
            bad.append(name)
    for name in ("c", "p", "gamma0"):
        if not same_bits(getattr(state, name), getattr(loaded_state, name)):
            bad.append(name)
    for name in ("widths", "vocab_size", "num_nodes", "iteration"):
        if list(np.atleast_1d(getattr(state, name))) != list(np.atleast_1d(getattr(loaded_state, name))):
            bad.append(name)
    if state.hyper.eta != loaded_state.hyper.eta:
        bad.append("hyper")
    if weights is not None:
        if loaded_weights is None or set(weights.params) != set(loaded_weights.params):
            return bad + ["weights"]
        bad += [f"enc/{k}" for k, v in weights.params.items() if not same_bits(v, loaded_weights.params[k])]
        for name in ("kind", "heads", "k_att", "leaky_slope", "softmax_of_log"):
            if getattr(weights, name) != getattr(loaded_weights, name):
                bad.append(name)
    return bad
