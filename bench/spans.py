"""Span tracer for the traced run: wraps the program's public functions.

Every wrapped call records a span ``[name, start, end, parent, iteration]``
in memory; ``self_ms`` subtracts the time child spans cover.  Functions are
replaced wherever their caller looks them up: ``training`` imports the
decoder functions by name, so both modules are patched, and methods are
patched on their classes.  After-call hooks take counts from the call's
arguments and result and check the program's invariants; they run inside a
``trace.checks`` span so that their cost never lands in a layer's self time.
"""

import json
import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from graphtopics import autodiff, checkpoint, decoder, encoders, evaluation, graph_data, training

# (owners, attribute, span name); names ending in "_t" get the gamma layer
# appended, numbered by call order within an iteration
_TARGETS = [
    ((graph_data,), "load_dataset", "graph_data.load_dataset"),
    ((graph_data.SparseCountMatrix,), "validate", "graph_data.validate"),
    ((graph_data,), "split_edges", "graph_data.split_edges"),
    ((graph_data,), "build_cosine_adjacency", "graph_data.build_cosine_adjacency"),
    ((graph_data.AdjacencyGraph,), "subgraph", "graph_data.subgraph"),
    ((training,), "normalize_adjacency", "graph_data.normalize_adjacency"),
    ((training,), "sample_node_subset", "training.sample_node_subset"),
    ((training.AdamOptimizer,), "step", "training.adam_step"),
    ((training,), "sgmcmc_update_phi", "training.sgmcmc_update_phi"),
    ((training,), "encode_posterior_means", "training.encode_posterior_means"),
    ((encoders,), "conv_forward", "encoders.forward"),
    ((encoders,), "attention_forward", "encoders.forward"),
    ((encoders,), "sample_theta_stack", "encoders.sample_theta_stack"),
    ((encoders,), "elbo", "encoders.elbo"),
    ((autodiff,), "backward", "autodiff.backward"),
    ((training, decoder), "augment_node_counts", "decoder.augment_node_counts_t"),
    ((training, decoder), "augment_edge_counts", "decoder.augment_edge_counts"),
    ((training, decoder), "edge_count_aggregates", "decoder.edge_count_aggregates"),
    ((training, decoder), "propagate_counts_upward", "decoder.propagate_counts_upward_t"),
    ((training, decoder), "update_phi_gibbs", "decoder.update_phi_gibbs"),
    ((decoder,), "update_theta_gibbs", "decoder.update_theta_gibbs"),
    ((decoder,), "update_u_gibbs", "decoder.update_u_gibbs"),
    ((training, decoder), "update_scales", "decoder.update_scales"),
    ((decoder,), "sample_multinomial_rows", "stochastic.sample_multinomial_rows"),
    ((decoder,), "sample_crt", "stochastic.sample_crt"),
    ((checkpoint,), "save_checkpoint", "checkpoint.save_checkpoint"),
    ((checkpoint,), "load_checkpoint", "checkpoint.load_checkpoint"),
    ((evaluation,), "link_prediction_eval", "evaluation.link_prediction_eval"),
]

# single calls whose peak traced allocation is recorded
_PEAK_MEMORY = {"graph_data.build_cosine_adjacency", "training.encode_posterior_means"}


class Tracer:
    """In-memory spans, counts and invariant violations of one run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.iteration = None  # set by the workload while its loop runs
        self.counts = defaultdict(list)  # name -> [(iteration, value)]
        self.violations = []
        self._order = defaultdict(int)
        self._restore = []

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.iteration])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][1:3] = start, time.perf_counter()
            self.stack.pop()

    def count(self, name, value):
        self.counts[name].append((self.iteration, float(value)))

    def check(self, ok, message):
        if not ok:
            self.violations.append(message)

    def _label(self, name):
        if not name.endswith("_t") and name != "encoders.forward":
            return name
        if self.iteration is None:
            return "encoders.forward_eval" if name == "encoders.forward" else name + "0"
        self._order[(self.iteration, name)] += 1
        n = self._order[(self.iteration, name)]
        if name == "encoders.forward":
            return "encoders.forward_grad" if n == 1 else "encoders.forward_resample"
        return f"{name}{n}"

    def _wrap(self, name, fn):
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            label = tracer._label(name)
            peak = label in _PEAK_MEMORY
            if peak:
                tracemalloc.start()
            try:
                with tracer.span(label):
                    result = fn(*args, **kwargs)
            finally:
                if peak:
                    tracer.count(label + "_peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
            if after is not None:
                with tracer.span("trace.checks"):
                    after(tracer, label, args, kwargs, result)
            return result

        return traced

    def install(self):
        for owners, attr, name in _TARGETS:
            for owner in owners:
                orig = getattr(owner, attr)
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------
    def self_ms(self):
        """Per span: (name, iteration, self time in ms)."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (s[0], s[4], (s[2] - s[1] - child[i]) * 1e3) for i, s in enumerate(self.spans)
        ]

    def write(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "violations": self.violations,
                    **extra,
                },
                fh,
            )


# -- after-call hooks: counts and invariants -------------------------------


def _sparse_sums(x):
    x = x.tocsr() if hasattr(x, "tocsr") else np.asarray(x, dtype=np.float64)
    return np.asarray(x.sum(axis=1)).ravel(), np.asarray(x.sum(axis=0)).ravel()


def _after_node_counts(tr, label, args, kwargs, result):
    x = args[0]
    word_topic, node_topic = result
    per_word, per_node = _sparse_sums(x)
    tr.check(
        np.array_equal(word_topic.sum(axis=1), per_word)
        and np.array_equal(node_topic.sum(axis=0), per_node),
        f"{label}: node-count augmentation does not conserve counts",
    )
    if label.endswith("_t1"):
        data = x.tocoo().data if hasattr(x, "tocoo") else np.asarray(x)[np.nonzero(x)]
        tr.count("decoder.augment_node_counts_t1_rows", data.size)
        tr.count("decoder.augment_node_counts_t1_single_share", np.mean(data == 1) if data.size else 0)


def _after_edge_counts(tr, label, args, kwargs, result):
    totals, splits = result
    per_edge = sum(s.sum(axis=1) for s in splits) if splits else np.zeros(0)
    tr.check(np.array_equal(per_edge, totals), "edge-count augmentation does not conserve counts")
    tr.check(bool(np.all(totals >= 1)), "observed edge with a latent count below one")
    tr.count("decoder.augment_edge_counts_latent_total", totals.sum())
    tr.count("decoder.augment_edge_counts_single_share", np.mean(totals == 1) if totals.size else 0)


def _after_edge_aggregates(tr, label, args, kwargs, result):
    node_tot, topic_tot = result
    for split, node, topic in zip(args[1], node_tot, topic_tot):
        tr.check(
            node.sum() == 2 * split.sum() and topic.sum() == split.sum(),
            "edge-count aggregates do not conserve counts",
        )


def _after_crt(tr, label, args, kwargs, result):
    customers = np.asarray(args[0], dtype=np.int64)
    tables = np.asarray(result)
    busy = customers > 0
    tr.check(
        bool(np.all(tables[~busy] == 0))
        and bool(np.all((tables[busy] >= 1) & (tables[busy] <= customers[busy]))),
        f"{label}: CRT tables outside [1, customers]",
    )
    tr.count("stochastic.sample_crt_trips", customers.max() if customers.size else 0)


def _after_phi(tr, label, args, kwargs, result):
    tr.check(
        bool(np.all(np.abs(result.sum(axis=0) - 1.0) <= 1e-9)),
        f"{label}: topic columns do not sum to one",
    )


def _after_theta(tr, label, args, kwargs, result):
    tr.check(bool(np.all(np.isfinite(result) & (result > 0))), f"{label}: θ not finite and positive")


def _after_subgraph(tr, label, args, kwargs, result):
    tr.count("graph_data.subgraph_edges", result.num_edges)


def _after_checkpoint(tr, label, args, kwargs, result):
    tr.count("checkpoint.bytes", os.path.getsize(args[0]))


_AFTER = {
    "decoder.augment_node_counts_t": _after_node_counts,
    "decoder.augment_edge_counts": _after_edge_counts,
    "decoder.edge_count_aggregates": _after_edge_aggregates,
    "decoder.propagate_counts_upward_t": _after_crt,
    "decoder.update_phi_gibbs": _after_phi,
    "training.sgmcmc_update_phi": _after_phi,
    "decoder.update_theta_gibbs": _after_theta,
    "graph_data.subgraph": _after_subgraph,
    "checkpoint.save_checkpoint": _after_checkpoint,
}
