"""Acceptance suite: one test per release criterion, one PASS line each.

Criteria 7, 8, and the Cora half of 9 need the real Cora files and skip with
instructions when the data is absent (the repo does not ship datasets).
Everything else runs on synthetic data and closed-form oracles.
"""

import copy
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment
from scipy.special import gammaln

import graphtopics.autodiff as ad
import graphtopics.decoder as dec
import graphtopics.encoders as enc
import graphtopics.evaluation as ev
import graphtopics.training as tr
from graphtopics.graph_data import (
    AdjacencyGraph,
    LabelVector,
    SparseCountMatrix,
    split_edges,
    standard_label_split,
)
from graphtopics.selftest import first_objective, toy_problem
from graphtopics.stochastic import (
    RngStream,
    sample_crt,
    sample_truncated_poisson,
)

from conftest import hidden_states


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS {detail}")


def to_sparse_counts(x_dense, vocab, n):
    v_idx, j_idx = np.nonzero(x_dense)
    return SparseCountMatrix(n, vocab, v_idx, j_idx, x_dense[v_idx, j_idx])


class TestCriterion1Conservation:
    """Exact count conservation, simplex columns, probability sums,
    attention-row normalization."""

    def test_conjugacy_and_conservation(self):
        rng = RngStream(1, (101,))
        g = np.random.default_rng(0)

        # node augmentation conserves every document's counts exactly
        x_dense = g.integers(0, 7, size=(40, 25))
        x = sp.csr_matrix(x_dense.astype(float))
        phi = dec.update_phi_gibbs(np.zeros((40, 6)), 0.1, rng)
        theta = np.abs(g.normal(size=(6, 25))) + 0.05
        word_topic, node_topic = dec.augment_node_counts(x, phi, theta, rng)
        assert word_topic.sum(axis=1) == pytest.approx(x_dense.sum(axis=1))
        assert node_topic.sum(axis=0) == pytest.approx(x_dense.sum(axis=0))

        # edge augmentation conserves each edge's latent total exactly
        edges = np.array([[i, j] for i in range(10) for j in range(i + 1, 10)])
        thetas = [np.abs(g.normal(size=(4, 10))) + 0.1 for _ in range(2)]
        us = [np.abs(g.normal(size=4)) + 0.2 for _ in range(2)]
        m, splits = dec.augment_edge_counts(edges, us, thetas, rng)
        per_edge = splits[0].sum(axis=1) + splits[1].sum(axis=1)
        assert np.array_equal(per_edge, m)
        assert np.all(m >= 1)

        # topic columns stay on the simplex through repeated updates
        for _ in range(20):
            phi = dec.update_phi_gibbs(g.integers(0, 9, size=(40, 6)).astype(float), 0.01, rng)
            assert np.allclose(phi.sum(axis=0), 1.0, atol=1e-12)

        # node-subset acceptance probabilities sum to one
        for mix in (0.0, 0.4, 1.0):
            p, _ = tr.node_sampling_table(np.arange(1.0, 31.0), mix, 1.3)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

        # attention rows normalize for every head and layer
        graph = AdjacencyGraph.from_pairs(7, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6]])
        src, dst = enc.attention_edge_arrays(graph)
        weights = enc.init_encoder_weights("attention", 9, [4, 3], RngStream(2), heads=3)
        params = {k: ad.Tensor(v) for k, v in weights.params.items()}
        x_rows = sp.csr_matrix(np.abs(g.normal(size=(7, 9))))
        noise = enc.draw_attention_noise(RngStream(3), len(src), 3, 2)
        _, hidden = hidden_states(enc.attention_forward, params, x_rows, src, dst, [4, 3], 3, 10.0,
                                  noise)
        for t, h_prev in enumerate([x_rows] + hidden[:-1], start=1):
            for c in range(3):
                scores = enc.attention_scores(
                    h_prev, params[f"watt_{t}_{c}"], params[f"a_{t}"], src, dst, 0.2
                )
                values = enc.stochastic_attention(scores, noise[t - 1][c], 10.0)
                sums = ad.attention_aggregate(values, np.ones((7, 1)), src, dst, 7)
                assert np.allclose(sums.value, 1.0, atol=1e-9)
        report(1, "conservation, simplex, probability, and normalization checks exact")


class TestCriterion2SamplerMonteCarlo:
    """10^6-draw sampler means within 3 sigma of closed forms."""

    N = 1_000_000

    def test_truncated_poisson_means(self):
        rng = RngStream(4, (102,))
        for lam in (0.1, 1.0, 10.0):
            draws = sample_truncated_poisson(np.full(self.N, lam), rng)
            mean = lam / -math.expm1(-lam)
            second = (lam + lam * lam) / -math.expm1(-lam)
            sigma = math.sqrt((second - mean**2) / self.N)
            assert abs(draws.mean() - mean) < 3 * sigma, lam
        report(2, "zero-truncated Poisson means at rates 0.1/1/10")

    def test_crt_mean(self):
        rng = RngStream(5, (103,))
        n, a = 6, 1.7
        draws = sample_crt(np.full(self.N, n), a, rng)
        probs = [a / (a + i) for i in range(n)]
        mean = sum(probs)
        var = sum(p * (1 - p) for p in probs)
        assert abs(draws.mean() - mean) < 3 * math.sqrt(var / self.N)
        report(2, "table-count mean at (6, 1.7)")

    def test_weibull_moments(self):
        # the encoder's reparameterized draw on uniform noise
        shape, scale = 2.5, 1.8
        eps = RngStream(6, (104,)).gen.uniform(size=self.N)
        draws = ad.weibull_transform(shape, scale, eps).value
        for m in (1, 2):
            want = scale**m * math.exp(gammaln(1 + m / shape))
            second = scale ** (2 * m) * math.exp(gammaln(1 + 2 * m / shape))
            sigma = math.sqrt(max(second - want**2, 0.0) / self.N)
            assert abs(np.mean(draws**m) - want) < 3 * sigma
        report(2, "Weibull moments m=1,2 at (2.5, 1.8)")

    def test_bernoulli_poisson_marginal(self):
        # thresholded Poisson counts hit 1 - exp(-rate) exactly in frequency
        rng = RngStream(7, (105,))
        for rate in (0.1, 1.0, 5.0):
            counts = rng.gen.poisson(rate, size=self.N)
            freq = float(np.mean(counts > 0))
            p = -math.expm1(-rate)
            sigma = math.sqrt(p * (1 - p) / self.N)
            assert abs(freq - p) < 3 * sigma, rate
        report(2, "edge marginal vs 1 - exp(-rate) at rates 0.1/1/5")


class TestCriterion3Gradients:
    """Finite-difference agreement at 1e-4 for the primitives and for the
    objective the trainers run, ``training._objective``, on the first batch
    of each batch source of a 12-node graph at T=2."""

    def _check(self, kind, trainer, kl_rate_fixed, labelled):
        x, graph, labels = toy_problem(RngStream(4))
        config = tr.TrainConfig(
            widths=(3, 2), beta=1.7, trainer=trainer, minibatch_nodes=8, seed=4, encoder=kind,
            heads=2, kl_rate_fixed=kl_rate_fixed, recon_weight=0.5,
        )
        objective, weights = first_objective(x, graph, config, labels if labelled else None)
        assert ("cls_w" in weights.params) == labelled
        _, parts = objective({k: ad.Tensor(v) for k, v in weights.params.items()})
        assert parts["edge_ll"] < 0 and ("label_ll" in parts) == labelled
        rep = ad.check_gradients(lambda p: objective(p)[0], weights.params, tolerance=1e-4)
        assert rep.ok, (kind, trainer, kl_rate_fixed, rep.failures[:3])
        return rep.checked

    def test_primitive_gradients(self):
        g = np.random.default_rng(8)
        x0 = g.normal(size=(3, 4))
        pos = np.abs(g.normal(size=(3, 4))) + 0.3
        eps = g.uniform(0.05, 0.9, size=(3, 4))
        src, dst = np.array([0, 0, 1, 1, 2]), np.array([1, 2, 0, 2, 2])
        val = g.normal(size=(3, 2))
        a_sp = sp.random(5, 3, density=0.6, random_state=g).tocsr()
        cases = {
            "exp": (lambda p: ad.tsum(ad.exp(p["x"])), {"x": x0}),
            "log": (lambda p: ad.tsum(ad.log(p["x"])), {"x": pos}),
            "softplus": (lambda p: ad.tsum(ad.softplus(p["x"])), {"x": x0}),
            "leaky_relu": (lambda p: ad.tsum(ad.leaky_relu(p["x"], 0.2)), {"x": x0 + 0.01}),
            "lgamma": (lambda p: ad.tsum(ad.lgamma(p["x"])), {"x": pos}),
            "matmul": (
                lambda p: ad.tsum(ad.matmul(p["a"], p["b"])),
                {"a": g.normal(size=(3, 4)), "b": g.normal(size=(4, 2))},
            ),
            "matmul_sparse_left": (
                lambda p: ad.tsum(ad.matmul(a_sp, p["x"])),
                {"x": g.normal(size=(3, 4))},
            ),
            "weibull": (
                lambda p: ad.tsum(ad.weibull_transform(p["k"], p["lam"], eps)),
                {"k": pos, "lam": pos + 0.2},
            ),
            "attention_aggregate": (
                lambda p: ad.tsum(
                    ad.mul(ad.attention_aggregate(p["s"], p["val"], src, dst, 3), x0[:, :2])
                ),
                {"s": g.normal(size=(5, 1)), "val": val},
            ),
            "attention_aggregate_constant_val": (
                lambda p: ad.tsum(
                    ad.mul(ad.attention_aggregate(p["s"], val, src, dst, 3), x0[:, :2])
                ),
                {"s": g.normal(size=(5, 1))},
            ),
            "arithmetic": (
                lambda p: ad.tsum(
                    ad.div(ad.mul(p["x"], p["y"]), ad.add(ad.mul(p["y"], p["y"]), 1.0))
                ),
                {"x": x0, "y": pos},
            ),
            "reductions": (
                lambda p: ad.tsum(ad.mul(ad.tsum(p["x"], axis=1, keepdims=True), pos[:, :1])),
                {"x": x0},
            ),
        }
        for name, (fn, params) in cases.items():
            rep = ad.check_gradients(fn, params, tolerance=1e-4)
            assert rep.ok, (name, rep.failures[:2])
        report(3, f"{len(cases)} primitive families at rel err <= 1e-4")

    @pytest.mark.parametrize("kind", ["conv", "attention"])
    def test_full_elbo_gradients(self, kind):
        checked = [
            self._check(kind, trainer, rate, labelled=False)
            for trainer in ("full_batch", "scalable")
            for rate in (1.0, None)
        ]
        report(3, f"objective ({kind}, T=2, 12 nodes, both batch sources, fixed and "
                  f"decoder KL rates): {sum(checked)} coordinates")

    def test_supervised_loss_gradients(self):
        checked = [
            self._check(kind, trainer, rate, labelled=True)
            for kind in ("conv", "attention")
            for trainer in ("full_batch", "scalable")
            for rate in (1.0, None)
        ]
        report(3, f"supervised objective, both encoders and batch sources: {sum(checked)} coordinates")


class TestCriterion4KlOracle:
    """Analytic Weibull-gamma divergence vs 10^6-sample Monte Carlo."""

    def test_exact_zero_at_matching_exponentials(self):
        kl = enc.kl_weibull_gamma(np.array(1.0), np.array(1.0), np.array(1.0), np.array(1.0))
        assert float(kl.value) == pytest.approx(0.0, abs=1e-14)
        report(4, "exactly 0 at Exp(1) vs Exp(1)")

    def test_twenty_random_settings_within_one_percent(self):
        g = np.random.default_rng(314)
        checked = 0
        while checked < 20:
            k = g.uniform(0.5, 4.0)
            lam = g.uniform(0.3, 4.0)
            alpha = g.uniform(0.5, 4.0)
            rate = g.uniform(0.3, 4.0)
            e = g.uniform(size=1_000_000)
            draws = lam * (-np.log1p(-e)) ** (1 / k)
            log_q = math.log(k / lam) + (k - 1) * np.log(draws / lam) - (draws / lam) ** k
            log_p = (
                alpha * math.log(rate) - gammaln(alpha) + (alpha - 1) * np.log(draws) - rate * draws
            )
            mc = float(np.mean(log_q - log_p))
            if abs(mc) < 0.05:
                continue  # relative comparison needs a nonzero reference
            ana = float(
                enc.kl_weibull_gamma(
                    np.array(k), np.array(lam), np.array(alpha), np.array(rate)
                ).value
            )
            assert abs(ana - mc) / abs(mc) < 0.01, (k, lam, alpha, rate, ana, mc)
            checked += 1
        report(4, "20 random parameter settings within 1% of Monte Carlo")


class TestCriterion5PosteriorRecovery:
    """Gibbs-only topic recovery from model-generated data."""

    def test_recovery(self):
        start = time.perf_counter()
        rng = RngStream(5)
        truth, x_dense, edges = dec.sample_generative(
            [5], 30, 200, rng.derive(0), u_scale=0.0013, eta_gen=0.05
        )
        assert 1000 <= len(edges) <= 2000  # the ~1500-edge regime
        x = sp.csr_matrix(x_dense.astype(float))
        state = dec.init_decoder_state([5], 30, 200, rng=RngStream(9, (106,)))
        chain = RngStream(10, (107,))
        for it in range(500):
            dec.gibbs_sweep(state, x, edges, chain.derive(it))
        a = truth.phis[0] / np.linalg.norm(truth.phis[0], axis=0)
        b = state.phis[0] / np.linalg.norm(state.phis[0], axis=0)
        sim = a.T @ b
        rows, cols = linear_sum_assignment(-sim)
        score = sim[rows, cols].mean()
        elapsed = time.perf_counter() - start
        assert score >= 0.9
        assert elapsed < 300
        report(5, f"best-permutation topic cosine {score:.3f} in {elapsed:.0f}s ({len(edges)} edges)")


class TestCriterion6SelfConsistencyLinkPrediction:
    """Two-layer generative data, conv-encoder training, held-out AUC."""

    def test_self_consistency(self):
        start = time.perf_counter()
        rng = RngStream(42)
        truth, x_dense, edges = dec.sample_generative(
            [8, 4], 50, 200, rng.derive(0), u_scale=0.01, eta_gen=0.05
        )
        x = to_sparse_counts(x_dense, 50, 200)
        graph = AdjacencyGraph.from_pairs(200, edges)
        split = split_edges(graph, 0.05, 0.10, seed=7)
        cfg = tr.TrainConfig(
            widths=(16, 8), iterations=800, encoder="conv", seed=1,
            beta=10.0, learning_rate=0.01,
        )
        res = tr.train_full_batch(x, split.train, cfg)
        means = tr.encode_posterior_means(res.weights, x, split.train, res.state)
        rep = ev.link_prediction_eval(res.weights.u_values(), means, split, "test")
        elapsed = time.perf_counter() - start
        assert rep.values["auc"] >= 0.90
        assert elapsed < 600
        report(6, f"held-out AUC {rep.values['auc']:.3f} (AP {rep.values['ap']:.3f}) in {elapsed:.0f}s")


def _train_cora_link_prediction(x, graph, seed, beta, iterations=1500, encoder="conv"):
    split = split_edges(graph, 0.05, 0.10, seed=seed)
    cfg = tr.TrainConfig(
        widths=(16, 16, 16), iterations=iterations, encoder=encoder, seed=seed,
        beta=beta, learning_rate=0.01, heads=4,
    )
    res = tr.train_full_batch(x, split.train, cfg)
    means = tr.encode_posterior_means(res.weights, x, split.train, res.state)
    val = ev.link_prediction_eval(res.weights.u_values(), means, split, "val")
    test = ev.link_prediction_eval(res.weights.u_values(), means, split, "test")
    return val.values, test.values


class TestCriterion7CoraLinkPrediction:
    """Cora: 3-layer, 16-unit model, 10 seeds, 85/5/10 split."""

    def test_cora_link_prediction(self, cora_dataset):
        start = time.perf_counter()
        x, labels, graph = cora_dataset
        assert x.num_nodes == 2708 and x.vocab_size == 1433
        assert labels.num_classes == 7

        # trade-off weight picked on the validation split of seed 0
        betas = [0.01, 0.1, 1.0, 10.0, 100.0]
        best_beta, best_val = None, -1.0
        for beta in betas:
            val, _ = _train_cora_link_prediction(x, graph, seed=0, beta=beta, iterations=600)
            if val["auc"] > best_val:
                best_val, best_beta = val["auc"], beta

        runs = []
        for seed in range(10):
            seed_start = time.perf_counter()
            _, test = _train_cora_link_prediction(x, graph, seed=seed, beta=best_beta)
            assert time.perf_counter() - seed_start < 45 * 60
            runs.append(test)
        mean = {k: float(np.mean([run[k] for run in runs])) for k in ("auc", "ap")}
        elapsed = time.perf_counter() - start
        assert mean["auc"] * 100 >= 92.0, mean
        assert mean["ap"] * 100 >= 92.0, mean
        report(
            7,
            f"Cora AUC {100 * mean['auc']:.1f} / AP {100 * mean['ap']:.1f} "
            f"(beta {best_beta}, 10 seeds, {elapsed / 60:.0f} min; reference 95.0/95.1)",
        )


def _train_cora_classification(x, labels, graph, encoder, seed=0, iterations=500):
    train_idx, val_idx, test_idx = standard_label_split(labels, 20, 500, 1000)
    masked = np.full(len(labels.labels), -1, dtype=np.int64)
    masked[train_idx] = labels.labels[train_idx]
    train_labels = LabelVector(masked, labels.num_classes)
    cfg = tr.TrainConfig(
        widths=(16,), iterations=iterations, encoder=encoder, seed=seed,
        beta=1.0, learning_rate=0.01, heads=4, recon_weight=0.01,
    )
    res = tr.train_full_batch(x, graph, cfg, labels=train_labels)
    means = tr.encode_posterior_means(res.weights, x, graph, res.state)
    logits = enc.classifier_logits(means[0], res.weights)
    val = ev.classify_nodes(logits, labels.labels, val_idx)
    test = ev.classify_nodes(logits, labels.labels, test_idx)
    return val.values["accuracy"], test.values["accuracy"]


class TestCriterion8CoraClassification:
    def test_cora_classification_conv(self, cora_dataset):
        x, labels, graph = cora_dataset
        _, acc = _train_cora_classification(x, labels, graph, "conv")
        assert acc * 100 >= 79.0, acc
        report(8, f"Cora accuracy (conv encoder) {100 * acc:.1f} (reference 82.0)")

    def test_cora_classification_attention(self, cora_dataset):
        x, labels, graph = cora_dataset
        _, acc = _train_cora_classification(x, labels, graph, "attention")
        assert acc * 100 >= 81.0, acc
        report(8, f"Cora accuracy (attention encoder) {100 * acc:.1f} (reference 84.4)")


class TestCriterion9ScalableParity:
    def test_cora_parity_and_time_to_accuracy(self, cora_dataset):
        x, labels, graph = cora_dataset
        train_idx, val_idx, test_idx = standard_label_split(labels, 20, 500, 1000)
        masked = np.full(len(labels.labels), -1, dtype=np.int64)
        masked[train_idx] = labels.labels[train_idx]
        train_labels = LabelVector(masked, labels.num_classes)

        results = {}
        for trainer in ("full_batch", "scalable"):
            curve = []

            def hook(it, state, weights, elapsed, curve=curve):
                if it % 25 == 0:
                    means = tr.encode_posterior_means(weights, x, graph, state)
                    logits = enc.classifier_logits(means[0], weights)
                    acc = ev.classify_nodes(logits, labels.labels, test_idx).values["accuracy"]
                    curve.append((elapsed, acc))

            cfg = tr.TrainConfig(
                widths=(16,), iterations=500 if trainer == "full_batch" else 1500,
                trainer=trainer, encoder="conv", seed=0, learning_rate=0.01,
                minibatch_nodes=100, recon_weight=0.01,
            )
            run = tr.train_full_batch if trainer == "full_batch" else tr.train_scalable
            res = run(x, graph, cfg, labels=train_labels, eval_hook=hook)
            means = tr.encode_posterior_means(res.weights, x, graph, res.state)
            logits = enc.classifier_logits(means[0], res.weights)
            final = ev.classify_nodes(logits, labels.labels, test_idx).values["accuracy"]
            target = 0.9 * final
            t90 = next(t for t, acc in curve + [(res.wall_time, final)] if acc >= target)
            results[trainer] = (final, t90)

        full_acc, full_t90 = results["full_batch"]
        scal_acc, scal_t90 = results["scalable"]
        assert abs(full_acc - scal_acc) * 100 <= 2.0, results
        assert scal_t90 < full_t90, results
        report(
            9,
            f"Cora parity: full {100 * full_acc:.1f} vs scalable {100 * scal_acc:.1f}; "
            f"time-to-90% {scal_t90:.0f}s vs {full_t90:.0f}s",
        )

    def test_iteration_cost_does_not_grow_with_n(self):
        # per-iteration wall time at fixed minibatch must not grow when the
        # graph is synthetically doubled
        times = {}
        for n in (600, 1200):
            rng = RngStream(33, (n,))
            g = rng.gen
            rows = g.integers(0, 40, size=n * 6)
            cols = np.repeat(np.arange(n), 6)
            keep = np.unique(cols * 40 + rows, return_index=True)[1]
            x = SparseCountMatrix(
                n, 40, rows[keep], cols[keep], np.ones(len(keep), dtype=np.int64)
            )
            pairs = set()
            while len(pairs) < n * 4:
                i, j = g.integers(0, n, size=2)
                if i != j:
                    pairs.add((min(i, j), max(i, j)))
            graph = AdjacencyGraph.from_pairs(n, sorted(pairs))
            cfg = tr.TrainConfig(
                widths=(8,), iterations=40, trainer="scalable", encoder="conv",
                seed=1, minibatch_nodes=100,
            )
            res = tr.train_scalable(x, graph, cfg)
            times[n] = float(np.median([r["wall_time"] for r in res.log[5:]]))
        assert times[1200] <= 1.35 * times[600], times
        report(
            9,
            f"scalable per-iteration cost flat under N doubling: "
            f"{1000 * times[600]:.1f}ms -> {1000 * times[1200]:.1f}ms",
        )


class TestCriterion10EdgeComplexity:
    """Sweep wall time scales linearly in the edge count."""

    def test_loglog_slope(self):
        n, vocab, k = 600, 8, 8
        rng = RngStream(5, (108,))
        g = rng.gen
        x = sp.csr_matrix(
            (np.ones(n), (g.integers(0, vocab, size=n), np.arange(n))), shape=(vocab, n)
        )
        base = dec.init_decoder_state([k], vocab, n, rng=RngStream(1, (109,)))
        for th in base.thetas:
            th *= 0.3
        sizes = [12_500, 25_000, 50_000, 100_000]
        times = []
        for m in sizes:
            pairs = set()
            while len(pairs) < m:
                i, j = g.integers(0, n, size=2)
                if i != j:
                    pairs.add((min(i, j), max(i, j)))
            edges = np.array(sorted(pairs))
            reps = []
            for r in range(7):
                state = copy.deepcopy(base)
                t0 = time.perf_counter()
                dec.gibbs_sweep(state, x, edges, rng.derive(m, r))
                reps.append(time.perf_counter() - t0)
            times.append(min(reps))
        slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        assert 0.8 <= slope <= 1.2, (slope, times)
        report(10, f"log-log slope {slope:.2f} over edges 12.5k..100k")
