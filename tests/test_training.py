import hashlib
import json

import numpy as np
import pytest
import scipy.sparse as sp

import graphtopics.decoder as dec
import graphtopics.training as tr
from graphtopics.checkpoint import save_checkpoint
from graphtopics.graph_data import AdjacencyGraph, LabelVector, SparseCountMatrix
from graphtopics.stochastic import RngStream

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
    save_checkpoint(str(path), res.state, res.weights, seed=res.config.seed)
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


class TestSgmcmcPhi:
    def test_uniform_column_is_driftless_fixed_point(self):
        v, k = 6, 3
        phi = np.full((v, k), 1.0 / v)
        sg = tr.SgmcmcState(m=np.ones(k))
        out = tr.sgmcmc_update_phi(phi, np.zeros((v, k)), sg, 0.01, 1.0, RngStream(5), with_noise=False)
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
        out = tr.sgmcmc_update_phi(phi, counts, sg, 0.5, 1.0, RngStream(8), with_noise=False)
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

    @pytest.mark.parametrize("debias", ["endpoint-product", "none"])
    def test_scalable_both_debias_modes_run(self, debias):
        x, graph = synthetic_dataset()
        cfg = tr.TrainConfig(
            widths=(4,), iterations=15, trainer="scalable", encoder="conv",
            seed=2, minibatch_nodes=15, debias=debias,
        )
        res = tr.train_scalable(x, graph, cfg)
        assert len(res.log) == 15
        assert np.isfinite([r["elbo"] for r in res.log]).all()

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


class TestSubgraphEstimator:
    def test_debiased_terms_unbiased_for_full_objective(self):
        # fixed thetas: the endpoint-product estimator's node and edge terms
        # must match the full-batch values in expectation over subsamples
        import graphtopics.autodiff as ad

        x, graph = synthetic_dataset(seed=21, widths=(3,), vocab=12, n=30, u_scale=0.08)
        x_csc = x.to_csc()
        g = np.random.default_rng(3)
        theta = np.abs(g.normal(size=(30, 3))) + 0.2
        u = np.abs(g.normal(size=3)) + 0.3
        phi = np.abs(g.normal(size=(12, 3))) + 0.1
        phi /= phi.sum(axis=0)

        full_node = ad.poisson_bow_loglik(ad.Tensor(theta), phi, x_csc).value
        full_edge = ad.bernoulli_poisson_loglik(
            [ad.Tensor(theta)], [ad.Tensor(u)], graph.edges, 30
        ).value

        rng = RngStream(77, (5,))
        n_s = 12
        node_vals, edge_vals = [], []
        p, cdf = tr.node_sampling_table(graph.degrees().astype(float), 0.7, 1.0)
        for rep in range(600):
            multiset = tr.sample_node_subset(cdf, n_s, rng.derive(rep))
            nodes, counts = np.unique(multiset, return_counts=True)
            sub = graph.subgraph(nodes)
            node_w = counts / (n_s * p[nodes])
            edge_w = 1.0 / -np.expm1(n_s * np.log1p(-p[nodes]))
            x_sub = x.node_major()[nodes].T.tocsc()
            node_vals.append(
                ad.poisson_bow_loglik(
                    ad.Tensor(theta[nodes]), phi, x_sub, node_weights=node_w
                ).value
            )
            edge_vals.append(
                ad.bernoulli_poisson_loglik(
                    [ad.Tensor(theta[nodes])], [ad.Tensor(u)], sub.edges, len(nodes),
                    node_weights=edge_w,
                ).value
            )
        node_se = np.std(node_vals) / np.sqrt(len(node_vals))
        assert abs(np.mean(node_vals) - full_node) < max(4 * node_se, 0.03 * abs(full_node))
        # pair-inclusion weights are an approximation (independence of the
        # two endpoints); residual bias stays below ~8% even at this tiny N_s
        edge_se = np.std(edge_vals) / np.sqrt(len(edge_vals))
        assert abs(np.mean(edge_vals) - full_edge) < max(4 * edge_se, 0.08 * abs(full_edge))


class TestAdam:
    def test_moves_toward_maximum(self):
        params = {"x": np.array([0.0])}
        opt = tr.AdamOptimizer(lr=0.1)
        for _ in range(200):
            grad = {"x": 2.0 * (3.0 - params["x"])}  # maximize -(x-3)^2
            opt.step(params, grad)
        assert params["x"][0] == pytest.approx(3.0, abs=1e-2)
