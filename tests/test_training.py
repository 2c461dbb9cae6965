import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import graphtopics.decoder as dec
import graphtopics.encoders as enc
import graphtopics.training as tr
from graphtopics.checkpoint import save_checkpoint
from graphtopics.graph_data import AdjacencyGraph, LabelVector, SparseCountMatrix
from graphtopics.stochastic import RngStream

import parity
import reference


def synthetic_dataset(seed=11, widths=(4,), vocab=20, n=50, u_scale=0.05):
    rng = RngStream(seed, (77,))
    state, x_dense, edges = dec.sample_generative(
        list(widths), vocab, n, rng, u_scale=u_scale, eta_gen=0.1
    )
    v_idx, j_idx = np.nonzero(x_dense)
    x = SparseCountMatrix(n, vocab, v_idx, j_idx, x_dense[v_idx, j_idx])
    graph = AdjacencyGraph.from_pairs(n, edges)
    return x, graph


def checkpoint_digest(res, path):
    """SHA-256 over the names and bytes of every array in a run's checkpoint."""
    save_checkpoint(str(path), res.state, res.weights)
    data = np.load(str(path))
    h = hashlib.sha256()
    for key in sorted(data.files):
        h.update(key.encode() + np.ascontiguousarray(data[key]).tobytes())
    return h.hexdigest()


class TestNodeSampling:
    def test_exponent_zero_is_uniform(self):
        # k q + (1-k)(1-q)/(N-1) = 1/N when q = 1/N
        p = tr.node_sampling_table(np.arange(1.0, 11.0), 0.3, 0.0)[0]
        assert np.allclose(p, 0.1)

    def test_full_mix_returns_importance(self):
        f = np.array([1.0, 2.0, 3.0, 4.0])
        p, _ = tr.node_sampling_table(f, 1.0, 1.0)
        assert np.allclose(p, f / f.sum())

    def test_probabilities_sum_to_one(self):
        g = np.random.default_rng(2)
        for _ in range(20):
            f = g.uniform(0, 5, size=g.integers(2, 30))
            if not np.any(f > 0):
                continue
            mix = g.uniform()
            p, _ = tr.node_sampling_table(f, mix, g.uniform(0, 3))
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empirical_frequencies_match(self):
        degrees = np.array([1.0, 1, 1, 1, 1, 2, 2, 4, 8, 16])
        p, cdf = tr.node_sampling_table(degrees, 0.8, 1.0)
        draws = tr.sample_node_subset(cdf, 100_000, RngStream(4))
        freq = np.bincount(draws, minlength=10) / 100_000
        sigma = np.sqrt(p * (1 - p) / 100_000)
        assert np.all(np.abs(freq - p) < 3.5 * sigma + 1e-9)

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            tr.node_sampling_table(np.ones(5), 1.5, 1.0)

    def test_all_zero_importance_rejected(self):
        with pytest.raises(ValueError):
            tr.node_sampling_table(np.zeros(5), 0.5, 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_draws_match_generator_choice(self, seed):
        g = np.random.default_rng(seed)
        for n, size, mix, exponent in [(2, 1, 0.0, 1.0), (10, 5, 0.7, 1.0),
                                       (300, 100, 0.9, 1.3), (5000, 1000, 1.0, 0.5)]:
            f = g.integers(0, 40, size=n).astype(np.float64)
            f[0] = 1.0  # not all zero
            p, cdf = tr.node_sampling_table(f, mix, exponent)
            assert np.array_equal(p, reference.acceptance_probabilities(f, mix, exponent))
            for rep in range(3):
                assert np.array_equal(
                    tr.sample_node_subset(cdf, size, RngStream(seed, (rep,))),
                    reference.choice_draw(p, size, RngStream(seed, (rep,))),
                )


class _NoNoise:
    """A generator whose normal draws are all zero: the SG-MCMC step is its bare drift."""

    def normal(self, size):
        return np.zeros(size)


class TestSgmcmcPhi:
    def test_uniform_column_is_driftless_fixed_point(self):
        v, k = 6, 3
        phi = np.full((v, k), 1.0 / v)
        sg = tr.SgmcmcState(m=np.ones(k))
        out = tr.sgmcmc_update_phi(phi, np.zeros((v, k)), sg, 0.01, 1.0, _NoNoise())
        assert np.allclose(out, phi, atol=1e-12)

    def test_simplex_and_floor_after_noisy_updates(self):
        g = np.random.default_rng(6)
        phi = g.dirichlet(np.ones(8), size=4).T
        sg = tr.SgmcmcState(m=np.ones(4))
        rng = RngStream(7)
        for it in range(50):
            counts = g.integers(0, 20, size=(8, 4)).astype(float)
            phi = tr.sgmcmc_update_phi(phi, counts, sg, 0.01, 2.0, rng.derive(it))
            assert np.allclose(phi.sum(axis=0), 1.0, atol=1e-9)
            assert np.all(phi >= 1e-30)

    def test_drift_direction_matches_posterior_mean(self):
        # 2x1 case: drift points toward the minibatch Dirichlet posterior mean
        phi = np.array([[0.5], [0.5]])
        counts = np.array([[9.0], [1.0]])
        sg = tr.SgmcmcState(m=np.ones(1))
        out = tr.sgmcmc_update_phi(phi, counts, sg, 0.5, 1.0, _NoNoise())
        post_mean = (counts[:, 0] + 0.5) / (counts.sum() + 1.0)
        assert (out[0, 0] - 0.5) * (post_mean[0] - 0.5) > 0
        assert out[0, 0] > out[1, 0]

    def test_long_run_matches_gibbs_posterior(self):
        # tiny fixed dataset: step-size-weighted SG-MCMC average (the usual
        # decreasing-step estimator) vs the Dirichlet-Gibbs chain mean
        g = np.random.default_rng(9)
        counts = g.integers(0, 15, size=(4, 2)).astype(float)
        rng = RngStream(10)
        gibbs = np.zeros((4, 2))
        n_it = 6000
        for it in range(n_it):
            gibbs += dec.update_phi_gibbs(counts, 0.1, rng.derive(0, it))
        gibbs /= n_it
        phi = np.full((4, 2), 0.25)
        sg = tr.SgmcmcState(m=np.ones(2))
        num, den = np.zeros((4, 2)), 0.0
        for it in range(30_000):
            eps_i = sg.step_size()
            phi = tr.sgmcmc_update_phi(phi, counts, sg, 0.1, 1.0, rng.derive(1, it))
            if it >= 500:
                num += eps_i * phi
                den += eps_i
        assert np.max(np.abs(num / den - gibbs)) < 0.05


class TestTrainers:
    def test_full_batch_elbo_improves_median_seed(self):
        x, graph = synthetic_dataset()
        gains = []
        for seed in range(5):
            cfg = tr.TrainConfig(widths=(4,), iterations=50, encoder="conv", seed=seed)
            res = tr.train_full_batch(x, graph, cfg)
            first = np.mean([r["elbo"] for r in res.log[:5]])
            last = np.mean([r["elbo"] for r in res.log[-5:]])
            gains.append(last - first)
        assert np.median(gains) > 0

    def test_zero_iterations_returns_initial_state(self):
        x, graph = synthetic_dataset()
        cfg = tr.TrainConfig(widths=(4,), iterations=0, encoder="conv", seed=1)
        res = tr.train_full_batch(x, graph, cfg)
        assert res.state.iteration == 0 and res.log == []

    def test_identical_seeds_identical_runs(self):
        x, graph = synthetic_dataset()
        cfg = tr.TrainConfig(widths=(4, 3), iterations=12, encoder="conv", seed=5)
        a = tr.train_full_batch(x, graph, cfg)
        b = tr.train_full_batch(x, graph, cfg)
        assert all(np.array_equal(p, q) for p, q in zip(a.state.phis, b.state.phis))
        for name in a.weights.params:
            assert np.array_equal(a.weights.params[name], b.weights.params[name])

    def test_scalable_identical_seeds_identical_runs(self):
        x, graph = synthetic_dataset()
        cfg = tr.TrainConfig(
            widths=(4,), iterations=12, trainer="scalable", encoder="conv",
            seed=5, minibatch_nodes=20,
        )
        a = tr.train_scalable(x, graph, cfg)
        b = tr.train_scalable(x, graph, cfg)
        assert all(np.array_equal(p, q) for p, q in zip(a.state.phis, b.state.phis))
        for name in a.weights.params:
            assert np.array_equal(a.weights.params[name], b.weights.params[name])

    def test_scalable_run_gives_finite_elbo_records(self):
        x, graph = synthetic_dataset()
        cfg = tr.TrainConfig(
            widths=(4,), iterations=15, trainer="scalable", encoder="conv",
            seed=2, minibatch_nodes=15,
        )
        res = tr.train_scalable(x, graph, cfg)
        assert len(res.log) == 15
        assert np.isfinite([r["elbo"] for r in res.log]).all()

    @pytest.mark.parametrize("failing", ["augment_layers", "update_scales"])
    @pytest.mark.parametrize("trainer", ["full_batch", "scalable"])
    def test_aborted_run_keeps_the_last_finished_iteration(self, trainer, failing, monkeypatch):
        # a decoder refresh that fails in iteration 2 leaves the decoder state
        # and the encoder weights of a finished 2-iteration run: the failed
        # iteration's Adam step is taken on copies and never committed
        x, graph = synthetic_dataset(widths=(4, 3), n=120)
        cfg = tr.TrainConfig(widths=(4, 3), iterations=2, trainer=trainer, seed=3,
                             minibatch_nodes=20)
        run = {"full_batch": tr.train_full_batch, "scalable": tr.train_scalable}[trainer]
        finished = run(x, graph, cfg)
        done = finished.state
        calls = []
        original = getattr(tr, failing)

        def fail_third_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise FloatingPointError("forced failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(tr, failing, fail_third_call)
        with pytest.raises(tr.TrainingAborted, match="iteration 2: forced failure") as info:
            run(x, graph, replace(cfg, iterations=5))
        aborted = info.value.state
        assert aborted.iteration == done.iteration == 2
        for name in ("phis", "thetas", "us"):
            assert all(np.array_equal(a, b) for a, b in zip(getattr(aborted, name), getattr(done, name)))
        assert np.array_equal(aborted.c, done.c) and np.array_equal(aborted.p, done.p)
        params = info.value.weights.params
        assert params.keys() == finished.weights.params.keys()
        for name, value in finished.weights.params.items():
            assert np.array_equal(params[name], value), name
        for t, u in enumerate(aborted.us, start=1):
            assert np.array_equal(np.exp(params[f"log_u_{t}"]), u)

    def test_scalable_attention_runs(self):
        x, graph = synthetic_dataset()
        cfg = tr.TrainConfig(
            widths=(4,), iterations=8, trainer="scalable", encoder="attention",
            seed=2, minibatch_nodes=15, heads=2,
        )
        res = tr.train_scalable(x, graph, cfg)
        assert len(res.log) == 8

    @pytest.mark.parametrize("encoder", ["conv", "attention"])
    def test_scalable_checkpoint_matches_reference_paths(self, encoder, tmp_path, monkeypatch):
        # the sampling table and the neighbor-list subgraph give the run that
        # Generator.choice and the edge scan give, checkpoint byte for byte
        x, graph = synthetic_dataset(widths=(4, 3), n=120)
        cfg = tr.TrainConfig(
            widths=(4, 3), iterations=15, trainer="scalable", encoder=encoder,
            seed=3, minibatch_nodes=20, subsample_mix=0.8, heads=2,
        )

        def digest(name):
            return checkpoint_digest(tr.train_scalable(x, graph, cfg), tmp_path / f"{name}.npz")

        new = digest("new")
        # the reference run passes p itself where the cdf goes, for Generator.choice
        monkeypatch.setattr(
            tr, "node_sampling_table",
            lambda f, mix, exponent: (reference.acceptance_probabilities(f, mix, exponent),) * 2,
        )
        monkeypatch.setattr(tr, "sample_node_subset", reference.choice_draw)
        monkeypatch.setattr(AdjacencyGraph, "subgraph", reference.scan_subgraph)
        assert new == digest("reference")

    @pytest.mark.parametrize("with_labels", [False, True])
    @pytest.mark.parametrize("encoder", ["conv", "attention"])
    @pytest.mark.parametrize("trainer", ["full_batch", "scalable"])
    def test_shared_loop_matches_separate_loops(self, trainer, encoder, with_labels, tmp_path):
        # the one loop over a batch source gives the checkpoint and the log of
        # the two loops it replaced; labelled runs also take KL rates from
        # the decoder scales
        x, graph = synthetic_dataset(widths=(4, 3), n=120)
        labels = LabelVector(np.random.default_rng(0).integers(0, 3, size=x.num_nodes), 3)
        labels = labels if with_labels else None
        cfg = tr.TrainConfig(
            widths=(4, 3), iterations=15, trainer=trainer, encoder=encoder, seed=3,
            minibatch_nodes=20, subsample_mix=0.8, heads=2,
            kl_rate_fixed=None if with_labels else 1.0,
        )
        run = {"full_batch": tr.train_full_batch, "scalable": tr.train_scalable}[trainer]
        ref_run = {"full_batch": reference.train_full_batch, "scalable": reference.train_scalable}[trainer]
        new, ref = run(x, graph, cfg, labels=labels), ref_run(x, graph, cfg, labels=labels)
        assert checkpoint_digest(new, tmp_path / "new.npz") == checkpoint_digest(ref, tmp_path / "ref.npz")

        def records(res):
            return json.dumps([{k: v for k, v in r.items() if k != "wall_time"} for r in res.log])

        assert records(new) == records(ref)
        assert len(new.log) == 15

    def test_edgeless_minibatches_flagged_as_reference(self):
        x, graph = synthetic_dataset(widths=(4, 3), n=120, u_scale=0.0003)
        cfg = tr.TrainConfig(widths=(4, 3), iterations=15, trainer="scalable", seed=3,
                             minibatch_nodes=4, subsample_mix=0.5)
        new, ref = tr.train_scalable(x, graph, cfg), reference.train_scalable(x, graph, cfg)
        flags = [r.get("edge_term_skipped", False) for r in new.log]
        assert any(flags) and not all(flags)
        assert flags == [r.get("edge_term_skipped", False) for r in ref.log]

    def test_beta_zero_flags_edge_term_skipped(self):
        # elbo drops the edge term at beta = 0; every record says so, with or
        # without edges in the batch
        x, graph = synthetic_dataset()
        assert graph.num_edges > 0
        for trainer, run in (("full_batch", tr.train_full_batch), ("scalable", tr.train_scalable)):
            cfg = tr.TrainConfig(widths=(4,), iterations=4, beta=0.0, trainer=trainer, seed=1,
                                 minibatch_nodes=20)
            log = run(x, graph, cfg).log
            assert all(r["edge_term_skipped"] and r["edge_ll"] == 0.0 for r in log), trainer

    @pytest.mark.parametrize(
        "run, other", [(tr.train_full_batch, "scalable"), (tr.train_scalable, "full_batch")]
    )
    def test_config_for_other_trainer_rejected(self, run, other):
        x, graph = synthetic_dataset()
        cfg = tr.TrainConfig(widths=(4,), iterations=2, trainer=other, minibatch_nodes=10)
        with pytest.raises(ValueError, match=f"config for trainer '{other}'"):
            run(x, graph, cfg)

    def test_scalable_state_holds_trained_u_and_theta(self):
        # the decoder state of a scalable run carries the encoder's importance
        # weights and the proportions its refreshes sampled, not the initial draws
        x, graph = synthetic_dataset(widths=(4, 3), n=120)
        cfg = tr.TrainConfig(widths=(4, 3), iterations=30, trainer="scalable", seed=3,
                             minibatch_nodes=20, learning_rate=0.05)
        res = tr.train_scalable(x, graph, cfg)
        untrained = tr.train_scalable(x, graph, replace(cfg, iterations=0))
        for l in range(2):
            assert np.array_equal(res.state.us[l], res.weights.u_values()[l])
            assert not np.array_equal(res.state.thetas[l], untrained.state.thetas[l])

    def test_supervised_training_improves_label_loglik(self):
        x, graph = synthetic_dataset()
        g = np.random.default_rng(0)
        labels = LabelVector(g.integers(0, 3, size=x.num_nodes), 3)
        cfg = tr.TrainConfig(widths=(4,), iterations=60, encoder="conv", seed=3,
                             recon_weight=0.1)
        res = tr.train_full_batch(x, graph, cfg, labels=labels)
        assert res.log[-1]["label_ll"] > res.log[0]["label_ll"]

    def test_minibatch_larger_than_graph_rejected(self):
        x, graph = synthetic_dataset()
        cfg = tr.TrainConfig(widths=(4,), trainer="scalable", minibatch_nodes=1000)
        with pytest.raises(ValueError, match="minibatch"):
            tr.train_scalable(x, graph, cfg)

    def test_eval_hook_called(self):
        x, graph = synthetic_dataset()
        seen = []
        cfg = tr.TrainConfig(widths=(4,), iterations=5, encoder="conv", seed=1)
        tr.train_full_batch(x, graph, cfg, eval_hook=lambda it, s, w, t: seen.append(it))
        assert seen == list(range(5))

    def test_posterior_means_finite_both_encoders(self):
        x, graph = synthetic_dataset()
        for kind in ("conv", "attention"):
            cfg = tr.TrainConfig(widths=(4,), iterations=10, encoder=kind, seed=1, heads=2)
            res = tr.train_full_batch(x, graph, cfg)
            means = tr.encode_posterior_means(res.weights, x, graph, res.state)
            assert all(np.isfinite(m).all() and np.all(m > 0) for m in means)

    @pytest.mark.parametrize("encoder", ["conv", "attention"])
    @pytest.mark.parametrize("trainer", ["full_batch", "scalable"])
    def test_posterior_means_match_numpy_reference(self, trainer, encoder):
        # the trainer's θ stack with None noise gives the numpy Weibull-mean
        # stack bit for bit, on the mean-attention encoder outputs
        x, graph = synthetic_dataset(widths=(4, 3), n=120)
        cfg = tr.TrainConfig(widths=(4, 3), iterations=8, trainer=trainer, encoder=encoder,
                             seed=3, minibatch_nodes=20, heads=2)
        run = {"full_batch": tr.train_full_batch, "scalable": tr.train_scalable}[trainer]
        res = run(x, graph, cfg)
        means = tr.encode_posterior_means(res.weights, x, graph, res.state)
        batch = tr._encoder_batch(x.node_major(), graph, res.weights)
        out = tr._encode(res.weights.params, res.weights, batch, None)
        want = reference.posterior_mean_thetas(
            [t.value for t in out.k_raw], [t.value for t in out.lam], res.state.phis,
            res.state.gamma0,
        )
        assert len(means) == 2
        assert all(np.array_equal(m, w) for m, w in zip(means, want))


class TestPosteriorMeansMemory:
    """The evaluation pass holds only the arrays it reads again.

    Bounds on the tracemalloc peak of ``encode_posterior_means`` above its
    inputs (the normalized features and adjacency or attention edges), in
    (N, 16) float64 arrays, widths 16,16,16.  The pass holds at most six
    raw shapes and scales, or the samples, shapes and scales the θ stack
    has drawn, plus one layer's temporaries; the attention encoder's
    per-edge score and weight arrays (nine edges per node here) take two
    more.  Keeping every layer's hidden state, or the raw outputs once
    drawn, breaks the bound.  The encoder inputs are freed before the θ
    stack runs, which the conv bound checks; the attention pass peaks
    inside the encoder.
    """

    N = 20_000
    BOUND = {"conv": 9, "attention": 13}

    @staticmethod
    def _generated(n, vocab, seed):
        # about a dozen terms per node; a ring plus 3n random pairs
        g = np.random.default_rng(seed)
        keys = np.unique(np.repeat(np.arange(n), 12) * vocab + g.integers(0, vocab, size=12 * n))
        x = SparseCountMatrix(n, vocab, keys % vocab, keys // vocab,
                              g.integers(1, 4, size=keys.size))
        pairs = np.concatenate([
            np.column_stack([np.arange(n), (np.arange(n) + 1) % n]),
            g.integers(0, n, size=(3 * n, 2)),
        ])
        return x, AdjacencyGraph.from_pairs(n, pairs[pairs[:, 0] != pairs[:, 1]])

    @pytest.mark.parametrize("kind", ["conv", "attention"])
    def test_peak_above_inputs(self, kind):
        widths = [16, 16, 16]
        x, graph = self._generated(self.N, 300, seed=5)
        state = dec.init_decoder_state(widths, 300, self.N, dec.DecoderHyper(), RngStream(1))
        weights = enc.init_encoder_weights(kind, 300, widths, RngStream(2))
        batch = tr._encoder_batch(x.node_major(), graph, weights)
        inputs = sum(
            sum(getattr(a, part).nbytes for part in ("data", "indices", "indptr"))
            if sp.issparse(a) else a.nbytes
            for a in batch.values()
        )
        del batch
        tracemalloc.start()
        try:
            means = tr.encode_posterior_means(weights, x, graph, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [m.shape for m in means] == [(self.N, 16)] * 3
        arrays = (peak - inputs) / (self.N * 16 * 8)
        assert arrays <= self.BOUND[kind], f"{kind}: peak {arrays:.2f} arrays above the inputs"


class TestSubgraphEstimator:
    def test_debiased_terms_unbiased_for_full_objective(self):
        # fixed thetas: on the scalable trainer's minibatches, the node and
        # edge terms under its debias weights match the full-batch values in
        # expectation over subsamples
        import graphtopics.autodiff as ad

        x, graph = synthetic_dataset(seed=21, widths=(3,), vocab=12, n=30, u_scale=0.08)
        x_csc = x.to_csc()
        g = np.random.default_rng(3)
        theta = np.abs(g.normal(size=(30, 3))) + 0.2
        u = np.abs(g.normal(size=3)) + 0.3
        phi = np.abs(g.normal(size=(12, 3))) + 0.1
        phi /= phi.sum(axis=0)

        full_node = ad.poisson_bow_loglik(ad.Tensor(theta), phi, x_csc, np.ones(30)).value
        full_edge = ad.bernoulli_poisson_loglik(
            [ad.Tensor(theta)], [ad.Tensor(u)], graph.edges, np.ones(30)
        ).value

        cfg = tr.TrainConfig(widths=(3,), trainer="scalable", minibatch_nodes=12,
                             subsample_mix=0.7, importance_exponent=1.0)
        _, _, weights = tr._init_run(x, cfg, None)
        next_batch = tr._minibatches(x, graph, cfg, weights, None, RngStream(77, (5,)))
        node_vals, edge_vals = [], []
        for rep in range(600):
            batch = next_batch(rep)
            theta_b = theta[batch["nodes"]]
            node_vals.append(
                ad.poisson_bow_loglik(
                    ad.Tensor(theta_b), phi, batch["x_csc"], node_weights=batch["node_w"]
                ).value
            )
            edge_vals.append(
                ad.bernoulli_poisson_loglik(
                    [ad.Tensor(theta_b)], [ad.Tensor(u)], batch["edges"],
                    node_weights=batch["edge_w_nodes"],
                ).value
            )
        node_se = np.std(node_vals) / np.sqrt(len(node_vals))
        assert abs(np.mean(node_vals) - full_node) < max(4 * node_se, 0.03 * abs(full_node))
        # pair-inclusion weights are an approximation (independence of the
        # two endpoints); residual bias stays below ~8% even at this tiny N_s
        edge_se = np.std(edge_vals) / np.sqrt(len(edge_vals))
        assert abs(np.mean(edge_vals) - full_edge) < max(4 * edge_se, 0.08 * abs(full_edge))


class TestParity:
    def test_digests_reproducible(self):
        # a digest that differs between two runs of the same code cannot show
        # that a refactor kept every result
        assert parity.digests() == parity.digests()


class TestAdam:
    def test_moves_toward_maximum(self):
        params = {"x": np.array([0.0])}
        opt = tr.AdamOptimizer(lr=0.1)
        for _ in range(200):
            grad = {"x": 2.0 * (3.0 - params["x"])}  # maximize -(x-3)^2
            opt.step(params, grad)
        assert params["x"][0] == pytest.approx(3.0, abs=1e-2)
