"""The three workloads, driven through the public API that ``graphtopics
train``/``eval`` use: set-up, a fixed-length training loop, a checkpoint
round trip and held-out evaluation, each timed in wall-clock time and each
output checked apart from the program.
"""

import dataclasses
import os
import resource
import statistics
import time
from contextlib import nullcontext

import numpy as np

import checks
from graphtopics import checkpoint, decoder, evaluation, graph_data, training
from graphtopics.stochastic import RngStream

VAL_FRAC, TEST_FRAC = 0.05, 0.10  # the 85/5/10 edge split of the link-prediction recipes


@dataclasses.dataclass(frozen=True)
class Spec:
    trainer: str  # "full_batch", "scalable" or "gibbs"
    config: dict  # TrainConfig fields
    per_second: float  # training iterations per second of --seconds
    warmup: int  # iterations of each chain left out of every per-iteration figure
    setup_reps: int  # phases shorter than about a second run several times
    checkpoint_reps: int
    eval_reps: int
    tau: float | None = None  # cosine threshold of a feature-built graph
    chain: int | None = None  # sweeps per Gibbs chain; each chain starts cold


_HYBRID = dict(widths=(16, 16, 16), learning_rate=0.01, beta=10.0)

SPECS = {
    "cora-fullbatch-attention": Spec(
        "full_batch", dict(_HYBRID, encoder="attention"), 3.0, 5, 25, 21, 25
    ),
    "pubmed200k-scalable-conv": Spec(
        "scalable",
        dict(_HYBRID, encoder="conv", trainer="scalable", minibatch_nodes=100,
             subsample_mix=0.9, importance_exponent=1.0),
        40.0, 5, 2, 1, 1,
    ),
    # Chains restart after 15 sweeps: from about sweep 20 on, the upper-layer
    # scales of a cold chain inflate and single edges draw latent counts in
    # the thousands, at a sweep that differs from seed to seed.
    "news-gibbs-counts": Spec(
        "gibbs", dict(widths=(16, 16, 16), eta=0.01), 4.5, 3, 5, 21, 300, tau=0.5, chain=15
    ),
}


def iterations(spec, seconds):
    """Training iterations of one run: at least 40 measured ones, and whole chains."""
    n = max(spec.warmup + 40, int(round(spec.per_second * seconds)))
    if spec.chain:
        chains = max(-(-n // spec.chain), -(-40 // (spec.chain - spec.warmup)))
        n = chains * spec.chain
    return n


def planned_operations(spec, seconds):
    return spec.setup_reps + iterations(spec, seconds) + spec.checkpoint_reps + spec.eval_reps


def tail(values):
    """(percentile, value): p90, or the highest whole percentile with at least
    ten samples beyond it where there are fewer than 100. A higher percentile
    of a long loop is set by a handful of iterations that the scheduler or the
    garbage collector delayed, and spreads by a quarter from run to run."""
    q = min(90, int(100 * (len(values) - 10) / len(values)))
    return q, float(np.percentile(values, q))


class Run:
    """One workload run: counts operations, collects timings and checks."""

    def __init__(self, name, data_path, seed, seconds, out_dir, tracer=None):
        self.name, self.spec = name, SPECS[name]
        self.data_path, self.seed, self.seconds = data_path, seed, seconds
        self.out_dir, self.tracer = out_dir, tracer
        self.done = 0
        self.measured = set()  # iteration ids that enter the per-iteration figures
        self.failures = []  # correctness checks that did not hold
        self.info = {}

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def at_iteration(self, it):
        if self.tracer:
            self.tracer.iteration = it

    # -- phases ------------------------------------------------------------
    def setup(self):
        times = []
        for _ in range(self.spec.setup_reps):
            self.x = self.graph = self.split = self.init = None  # free the previous round first
            t0 = time.perf_counter()
            self.x, self.graph, self.split, self.init = self._setup_once()
            times.append(time.perf_counter() - t0)
            self.done += 1
        return statistics.median(times)

    def _setup_once(self):
        x, graph, _ = graph_data.load_dataset(self.data_path)
        if self.spec.tau is not None:
            graph = graph_data.build_cosine_adjacency(x, self.spec.tau)
        split = graph_data.split_edges(graph, VAL_FRAC, TEST_FRAC, self.seed)
        with self.span("training.init"):
            return x, graph, split, self._init(x, split)

    def _config(self, iters):
        return training.TrainConfig(iterations=iters, seed=self.seed, **self.spec.config)

    def _init(self, x, split):
        if self.spec.trainer == "gibbs":
            return self._cold_state(x, 0), x.to_csc()
        self._trainer()(x, split.train, self._config(0))
        return None

    def _cold_state(self, x, chain):
        widths = list(self.spec.config["widths"])
        hyper = decoder.DecoderHyper(eta=(self.spec.config["eta"],))
        rng = RngStream(self.seed).derive(0, chain)
        return decoder.init_decoder_state(widths, x.vocab_size, x.num_nodes, hyper, rng)

    def _trainer(self):
        return training.train_full_batch if self.spec.trainer == "full_batch" else training.train_scalable

    def train(self):
        n = iterations(self.spec, self.seconds)
        if self.spec.trainer == "gibbs":
            return self._train_gibbs(n)
        marks = []

        def hook(it, state, weights, elapsed):
            marks.append(time.perf_counter())
            self.done += 1
            self.at_iteration(it + 1)

        self.at_iteration(0)
        self.measured = set(range(self.spec.warmup, n))
        start = time.perf_counter()
        result = self._trainer()(self.x, self.split.train, self._config(n), eval_hook=hook)
        train_s = time.perf_counter() - start
        self.at_iteration(None)
        self.state, self.weights, self.us = result.state, result.weights, result.weights.u_values()
        self.check(
            all(np.isfinite(rec["elbo"]) for rec in result.log) and len(result.log) == n,
            "non-finite training objective",
        )
        skipped = [rec.get("edge_term_skipped", False) for rec in result.log[self.spec.warmup:]]
        self.info["batches_with_edges_share"] = 1.0 - float(np.mean(skipped))
        return np.diff([start] + marks)[self.spec.warmup:] * 1e3, train_s

    def _train_gibbs(self, n):
        state, x_csc = self.init
        edges, rng, durations = self.split.train.edges, RngStream(self.seed), []
        chain = self.spec.chain
        start = time.perf_counter()
        for it in range(n):
            if it and it % chain == 0:
                self.at_iteration(None)
                state = self._cold_state(self.x, it // chain)
            self.at_iteration(it)
            t0 = time.perf_counter()
            decoder.gibbs_sweep(state, x_csc, edges, rng.derive(1, it))
            durations.append(time.perf_counter() - t0)
            if it % chain >= self.spec.warmup:
                self.measured.add(it)
            self.done += 1
        train_s = time.perf_counter() - start
        self.at_iteration(None)
        self.state, self.weights, self.us = state, None, state.us
        self.info["batches_with_edges_share"] = 1.0
        return np.asarray(durations)[sorted(self.measured)] * 1e3, train_s

    def checkpoint_round_trip(self):
        path = os.path.join(self.out_dir, f"{self.name}-{self.seed}-{os.getpid()}.npz")
        times = []
        try:
            for _ in range(self.spec.checkpoint_reps):
                t0 = time.perf_counter()
                checkpoint.save_checkpoint(path, self.state, self.weights, seed=self.seed)
                loaded_state, loaded_weights, _ = checkpoint.load_checkpoint(path)
                times.append(time.perf_counter() - t0)
                self.done += 1
        finally:
            if os.path.exists(path):
                os.remove(path)
        bad = checks.checkpoint_mismatches(self.state, self.weights, loaded_state, loaded_weights)
        self.check(not bad, f"checkpoint round trip changed {bad}")
        return statistics.median(times)

    def evaluate(self):
        times = []
        for _ in range(self.spec.eval_reps):
            t0 = time.perf_counter()
            if self.weights is None:
                means = [th.T for th in self.state.thetas]
            else:
                means = training.encode_posterior_means(self.weights, self.x, self.split.train, self.state)
            report = evaluation.link_prediction_eval(self.us, means, self.split, which="test")
            times.append(time.perf_counter() - t0)
            self.done += 1
        self.means = means
        return statistics.median(times), report.values["auc"], report.values["ap"]

    # -- checks --------------------------------------------------------------
    def verify(self, auc, ap):
        split, n = self.split, self.x.num_nodes
        self.check(
            all(np.all(np.isfinite(th) & (th > 0)) for th in self.state.thetas),
            "θ not finite and positive",
        )
        my_auc, my_ap = checks.heldout_scores(self.us, self.means, split.test_edges, split.test_nonedges)
        self.check(abs(my_auc - auc) <= checks.TOL, f"AUC {auc} != recomputed {my_auc}")
        self.check(abs(my_ap - ap) <= checks.TOL, f"AP {ap} != recomputed {my_ap}")
        leaked = checks.leaked_pairs(
            split.train.edges, n, split.val_edges, split.test_edges, split.val_nonedges, split.test_nonedges
        )
        self.check(leaked == 0, f"{leaked} held-out pairs are in the training graph")
        if self.spec.tau is not None:
            x = self.x
            wrong = checks.cosine_graph_mismatches(
                x.cols, x.rows, x.counts, n, x.vocab_size, self.spec.tau, self.graph.edges
            )
            self.check(wrong == 0, f"{wrong} pairs disagree with cos >= tau")
            self.check(auc > 0.5, f"Gibbs posterior ranks cosine-graph edges at AUC {auc} <= 0.5")
        self.info["degree_product_auc"] = {
            which: checks.degree_product_auc(split.train.edges, n, edges, nonedges)
            for which, edges, nonedges in (
                ("val", split.val_edges, split.val_nonedges),
                ("test", split.test_edges, split.test_nonedges),
            )
        }

    def run(self):
        setup_s = self.setup()
        iter_ms, train_s = self.train()
        checkpoint_s = self.checkpoint_round_trip()
        eval_s, auc, ap = self.evaluate()
        self.verify(auc, ap)
        q, tail_ms = tail(iter_ms)
        self.info.update(tail_percentile=q, iterations_measured=len(iter_ms), heldout_ap=ap)
        return {
            "setup_s": setup_s,
            "iter_ms_p50": float(np.median(iter_ms)),
            "iter_ms_tail": tail_ms,
            "train_s": train_s,
            "checkpoint_s": checkpoint_s,
            "eval_s": eval_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "heldout_auc": auc,
        }
