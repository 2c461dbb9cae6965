"""Parity digests: SHA-256 digests of what fixed ``(config, seed)`` runs produce.

A refactor that claims no behaviour change shows the same digests before
and after it, computed on the same machine.  Per run, one digest for each
checkpoint array (its name, dtype, shape and C-order bytes), one each for
the state's derived layer probabilities ``p`` and top-layer shape vector
``gamma0`` (hashed the same way, so they compare key by key with the
digests of checkpoints that stored both arrays), one for the log records
without ``wall_time``, and one for the posterior means.  The
runs are the two trainers × the two encoders × with and without labels,
15 iterations each, and three Gibbs sweeps with the default and with the
exact-scan θ update.  One more digest covers the edges of the cosine graph
of a generated 1500-document corpus, which spans several similarity blocks.

    python tests/parity.py      # prints {run: {item: digest}} as JSON
"""

import hashlib
import io
import json

import numpy as np

from graphtopics import decoder as dec
from graphtopics import training as tr
from graphtopics.checkpoint import save_checkpoint
from graphtopics.graph_data import (
    AdjacencyGraph,
    LabelVector,
    SparseCountMatrix,
    build_cosine_adjacency,
)
from graphtopics.stochastic import RngStream


def _hash_array(name, value):
    value = np.asarray(value)
    h = hashlib.sha256(f"{name}|{value.dtype.str}|{value.shape}|".encode())
    h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def _checkpoint_digests(state, weights):
    buf = io.BytesIO()
    save_checkpoint(buf, state, weights)
    buf.seek(0)
    data = np.load(buf)
    out = {name: _hash_array(name, data[name]) for name in data.files}
    for name in ("p", "gamma0"):
        out[name] = _hash_array(name, getattr(state, name))
    return out


def _dataset():
    """The generated 120-node, 20-term graph of the trainer tests."""
    state, x_dense, edges = dec.sample_generative(
        [4, 3], 20, 120, RngStream(11, (77,)), u_scale=0.05, eta_gen=0.1
    )
    v_idx, j_idx = np.nonzero(x_dense)
    x = SparseCountMatrix(120, 20, v_idx, j_idx, x_dense[v_idx, j_idx])
    return x, AdjacencyGraph.from_pairs(120, edges)


def _hybrid_runs(x, graph):
    runs = {}
    for trainer, run in (("full_batch", tr.train_full_batch), ("scalable", tr.train_scalable)):
        for encoder in ("conv", "attention"):
            for with_labels in (False, True):
                labels = None
                if with_labels:
                    labels = LabelVector(np.random.default_rng(0).integers(0, 3, size=x.num_nodes), 3)
                config = tr.TrainConfig(
                    widths=(4, 3), iterations=15, trainer=trainer, encoder=encoder, seed=3,
                    minibatch_nodes=20, subsample_mix=0.8, heads=2,
                    kl_rate_fixed=None if with_labels else 1.0,
                )
                res = run(x, graph, config, labels=labels)
                out = _checkpoint_digests(res.state, res.weights)
                records = [{k: v for k, v in r.items() if k != "wall_time"} for r in res.log]
                out["log"] = hashlib.sha256(json.dumps(records).encode()).hexdigest()
                means = tr.encode_posterior_means(res.weights, x, graph, res.state)
                h = hashlib.sha256()
                for l, m in enumerate(means):
                    h.update(_hash_array(f"mean_{l}", m).encode())
                out["means"] = h.hexdigest()
                runs[f"{trainer}-{encoder}-{'labels' if with_labels else 'unlabelled'}"] = out
    return runs


def _gibbs_runs(x, graph):
    x_csc = x.to_csc()
    runs = {}
    for name, exact_scan in (("gibbs", False), ("gibbs-exact-scan", True)):
        state = dec.init_decoder_state([4, 3], x.vocab_size, x.num_nodes, rng=RngStream(1))
        for it in range(3):
            dec.gibbs_sweep(state, x_csc, graph.edges, RngStream(2, (it,)), exact_scan=exact_scan)
        runs[name] = _checkpoint_digests(state, None)
    return runs


def _cosine_graph():
    """Edges of the τ = 0.5 cosine graph of 1500 documents of 12 tokens over
    300 terms: each document draws from one of ten 30-term topics, and one
    token in four from the whole vocabulary."""
    g = np.random.default_rng(5)
    n, vocab, length = 1500, 300, 12
    tokens = np.repeat(g.integers(0, 10, size=n) * 30, length) + g.integers(0, 30, size=n * length)
    noise = g.random(n * length) < 0.25
    tokens[noise] = g.integers(0, vocab, size=noise.sum())
    keys, counts = np.unique(np.repeat(np.arange(n), length) * vocab + tokens, return_counts=True)
    x = SparseCountMatrix(n, vocab, keys % vocab, keys // vocab, counts)
    graph = build_cosine_adjacency(x, 0.5)
    return {"cosine-graph": {"edges": _hash_array("edges", graph.edges)}}


def digests():
    """{run: {item: hex digest}} for every run."""
    x, graph = _dataset()
    return {**_hybrid_runs(x, graph), **_gibbs_runs(x, graph), **_cosine_graph()}


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
