import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

import graphtopics.decoder as dec
from graphtopics.stochastic import RngStream

import reference


def make_state(widths, vocab, n, seed=0):
    return dec.init_decoder_state(widths, vocab, n, rng=RngStream(seed, (1,)))


def rnd_theta(k, n, seed=0):
    return np.abs(np.random.default_rng(seed).normal(size=(k, n))) + 0.1


class TestAugmentNodeCounts:
    def test_single_topic_takes_everything(self):
        rng = RngStream(0)
        x = sp.csr_matrix(np.array([[3.0, 0.0], [0.0, 2.0]]))
        phi = np.ones((2, 1)) * 0.5
        theta = rnd_theta(1, 2)
        word_topic, node_topic = dec.augment_node_counts(x, phi, theta, rng)
        assert word_topic.sum() == 5 and node_topic.sum() == 5
        assert node_topic[0, 0] == 3 and node_topic[0, 1] == 2

    def test_zero_matrix_no_work(self):
        rng = RngStream(1)
        x = sp.csr_matrix((4, 3))
        word_topic, node_topic = dec.augment_node_counts(x, np.full((4, 2), 0.25), rnd_theta(2, 3), rng)
        assert word_topic.sum() == 0 and node_topic.sum() == 0

    def test_balanced_split_binomial_moments(self):
        rng = RngStream(2)
        n_total = 100_000
        x = sp.csr_matrix(np.array([[float(n_total)]]))
        phi = np.full((1, 2), 0.5)
        theta = np.ones((2, 1))
        word_topic, _ = dec.augment_node_counts(x, phi, theta, rng)
        sigma = math.sqrt(n_total * 0.25)
        assert abs(word_topic[0, 0] - n_total / 2) < 3 * sigma
        assert word_topic.sum() == n_total

    def test_conservation_random(self):
        rng = RngStream(3)
        g = np.random.default_rng(4)
        x_dense = g.integers(0, 6, size=(12, 9))
        x = sp.csr_matrix(x_dense.astype(float))
        phi = g.uniform(0.05, 1.0, size=(12, 4))
        phi /= phi.sum(axis=0)
        word_topic, node_topic = dec.augment_node_counts(x, phi, rnd_theta(4, 9), rng)
        assert word_topic.sum(axis=1) == pytest.approx(x_dense.sum(axis=1))
        assert node_topic.sum(axis=0) == pytest.approx(x_dense.sum(axis=0))


    @pytest.mark.parametrize("rows", ["single_trial", "multi_count", "mixed_with_zeros"])
    def test_matches_dense_split_reference(self, rows):
        # the (row, slot, count) split gives the aggregates that dense
        # per-row splits gave, from the same draws, bit for bit
        g = np.random.default_rng(11)
        v_size, n, k = 30, 40, 5
        v_idx, j_idx = np.nonzero(g.uniform(size=(v_size, n)) < 0.3)
        high = {"single_trial": 2, "multi_count": 9, "mixed_with_zeros": 4}[rows]
        low = 2 if rows == "multi_count" else 0 if rows == "mixed_with_zeros" else 1
        data = g.integers(low, high, size=v_idx.size).astype(float)
        theta = rnd_theta(k, n, seed=12)
        if rows == "mixed_with_zeros":
            # explicit zero entries, one of them on a node whose split rate is zero
            theta[:, j_idx[0]] = 0.0
            data[j_idx == j_idx[0]] = 0.0
            assert np.any(data == 0) and np.any(data == 1) and np.any(data >= 2)
        x = sp.coo_matrix((data, (v_idx, j_idx)), shape=(v_size, n))
        phi = g.uniform(0.05, 1.0, size=(v_size, k))
        phi /= phi.sum(axis=0)
        got = dec.augment_node_counts(x, phi, theta, RngStream(13))
        want = reference.dense_augment_node_counts(x, phi, theta, RngStream(13))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestAugmentEdgeCounts:
    def test_matches_dense_split_reference(self):
        # rates spread over decades give single and multiple latent counts;
        # the edges cross a 16384-edge block boundary
        g = np.random.default_rng(14)
        edges = np.column_stack([g.integers(0, 50, 20_000), g.integers(50, 100, 20_000)])
        thetas = [np.exp(g.normal(scale=1.5, size=(k, 100))) for k in (4, 3)]
        us = [np.full(4, 0.3), np.full(3, 0.1)]
        got_m, got = dec.augment_edge_counts(edges, us, thetas, RngStream(17), rate_cap=200.0)
        want_m, want = reference.dense_augment_edge_counts(
            edges, us, thetas, RngStream(17), rate_cap=200.0
        )
        assert np.array_equal(got_m, want_m)
        assert np.any(got_m == 1) and np.any(got_m >= 2)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_no_edges_no_counts(self):
        m, splits = dec.augment_edge_counts(
            np.zeros((0, 2), int), [np.ones(2)], [rnd_theta(2, 5)], RngStream(0)
        )
        assert m.size == 0 and splits[0].shape == (0, 2)

    def test_single_slot_takes_total(self):
        rng = RngStream(1)
        edges = np.array([[0, 1], [1, 2]])
        m, splits = dec.augment_edge_counts(edges, [np.ones(1)], [rnd_theta(1, 3)], rng)
        assert np.array_equal(splits[0][:, 0], m)
        assert np.all(m >= 1)

    def test_two_layer_split_and_truncated_mean(self):
        # equal layer rates ln2 each: total rate 2 ln2, mean 2ln2/(1-2^-2)
        rng = RngStream(2)
        n_edges = 200_000
        edges = np.column_stack([np.zeros(n_edges, int), np.ones(n_edges, int)])
        theta = np.ones((1, 2))
        us = [np.array([math.log(2.0)]), np.array([math.log(2.0)])]
        m, splits = dec.augment_edge_counts(edges, us, [theta, theta], rng)
        rate = 2 * math.log(2.0)
        mean = rate / -math.expm1(-rate)
        assert abs(mean - 1.8484) < 1e-3  # the closed form itself
        assert abs(m.mean() - mean) < 0.01
        frac = splits[0].sum() / m.sum()
        assert abs(frac - 0.5) < 0.01
        assert splits[0].sum() + splits[1].sum() == m.sum()

    def test_zero_rate_on_edge_rejected(self):
        with pytest.raises(FloatingPointError, match="zero edge rate"):
            dec.augment_edge_counts(
                np.array([[0, 1]]), [np.zeros(2)], [np.ones((2, 2))], RngStream(0)
            )

    def test_aggregates_symmetric(self):
        rng = RngStream(4)
        edges = np.array([[0, 1], [1, 2], [0, 3]])
        theta = rnd_theta(3, 4)
        m, splits = dec.augment_edge_counts(edges, [np.ones(3)], [theta], rng)
        node, topic = dec.edge_count_aggregates(edges, splits, 4)
        # each unordered edge contributes to both endpoints
        assert node[0].sum() == 2 * m.sum()
        assert topic[0].sum() == m.sum()

    @pytest.mark.parametrize("n_edges", [0, 1, 20_000])
    def test_aggregates_match_scatter_reference(self, n_edges):
        # nodes 90..99 have no edges; 20,000 edges cross a 16384-edge block
        # of the scatter reference
        g = np.random.default_rng(n_edges)
        edges = np.column_stack([g.integers(0, 45, n_edges), g.integers(45, 90, n_edges)])
        splits = [g.poisson(rate, size=(n_edges, k)) for k, rate in ((4, 3.0), (3, 0.2))]
        got = dec.edge_count_aggregates(edges, splits, 100)
        want = reference.scatter_edge_count_aggregates(edges, splits, 100)
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not np.any(got[0][0][:, 90:])


class TestPropagation:
    def test_zero_and_one_counts(self):
        rng = RngStream(5)
        phi = np.full((2, 2), 0.5)
        theta = np.ones((2, 3))
        pooled = np.zeros((2, 3), int)
        assert dec.propagate_counts_upward(pooled, phi, theta, rng).sum() == 0
        pooled[0, 0] = 1
        out = dec.propagate_counts_upward(pooled, phi, theta, rng)
        assert out[0, 0] == 1 and out.sum() == 1

    def test_crt_mean(self):
        rng = RngStream(6)
        reps = 100_000
        phi = np.ones((1, 1))
        theta = np.ones((1, reps))
        pooled = np.full((1, reps), 3)
        out = dec.propagate_counts_upward(pooled, phi, theta, rng)
        assert abs(out.mean() - (1 + 0.5 + 1 / 3)) < 0.01


class TestConjugateUpdates:
    def test_phi_prior_draw_on_simplex(self):
        phi = dec.update_phi_gibbs(np.zeros((5, 3)), 0.01, RngStream(7))
        assert np.allclose(phi.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(phi >= 0)

    def test_phi_posterior_mean(self):
        # counts (2,0) with eta=0.01: mean (2.01/2.02, 0.01/2.02)
        rng = RngStream(8)
        counts = np.array([[2.0], [0.0]])
        draws = np.stack([dec.update_phi_gibbs(counts, 0.01, rng) for _ in range(200_000)])
        mean = draws.mean(axis=0).ravel()
        assert mean[0] == pytest.approx(2.01 / 2.02, abs=2e-3)
        assert mean[1] == pytest.approx(0.01 / 2.02, abs=2e-3)

    def test_theta_posterior_top_layer_simple(self):
        # no counts, gamma=1, p=1-e^-1, c=1, no edge exposure: Gam(1, 1/2)
        rng = RngStream(9)
        n = 200_000
        zero = np.zeros((1, n))
        prior = np.ones((1, n))
        p_t = np.full(n, 1 - math.exp(-1))
        c_next = np.ones(n)
        theta = dec.update_theta_gibbs(zero, zero, prior, p_t, c_next, np.zeros(1), zero, rng)
        assert abs(theta.mean() - 0.5) < 0.01

    def test_theta_posterior_mean_formula(self):
        rng = RngStream(10)
        n = 100_000
        node = np.full((1, n), 3.0)
        edge = np.full((1, n), 2.0)
        prior = np.full((1, n), 1.5)
        p_t = np.full(n, 0.4)
        c_next = np.full(n, 1.3)
        u = np.array([0.7])
        theta_old = np.full((1, n), 0.2)
        theta = dec.update_theta_gibbs(node, edge, prior, p_t, c_next, u, theta_old, rng)
        shape = 3.0 + 2.0 + 1.5
        rate = -math.log(1 - 0.4) + 1.3 + 0.7 * (0.2 * n - 0.2)
        assert abs(theta.mean() - shape / rate) / (shape / rate) < 0.01

    def test_theta_exact_scan_matches_moments(self):
        rng = RngStream(11)
        k, n = 3, 50
        node = np.random.default_rng(1).integers(0, 5, size=(k, n)).astype(float)
        prior = np.ones((k, n))
        p_t = np.full(n, 1 - math.exp(-1))
        c_next = np.ones(n)
        u = np.full(k, 0.01)
        theta_old = rnd_theta(k, n)
        out = dec.update_theta_gibbs(
            node, np.zeros((k, n)), prior, p_t, c_next, u, theta_old, rng, exact_scan=True
        )
        assert out.shape == (k, n) and np.all(out > 0)

    def test_u_posterior_means(self):
        rng = RngStream(12)
        n = 200_000
        # prior only: Gam(1,1) mean 1
        theta = np.zeros((1, 2))
        draws = dec.update_u_gibbs(np.zeros(1), theta, 1.0, 1.0, rng)
        big = dec.sample_gamma(np.full(n, 1.0), 1.0, rng)
        assert abs(big.mean() - 1.0) < 0.01
        # count 10 with pair exposure 9: mean (1+10)/(1+9)
        theta = np.array([[3.0, 2.0, 1.0]])  # pairwise sum 3*2+3*1+2*1 = 11
        u = np.array(
            [dec.update_u_gibbs(np.array([10.0]), theta, 1.0, 1.0, rng)[0] for _ in range(50_000)]
        )
        assert abs(u.mean() - 11.0 / 12.0) < 0.01

    def test_u_exposure_quadratic_in_theta(self):
        rng = RngStream(13)
        theta = np.array([[3.0, 2.0, 1.0]])
        single = [dec.update_u_gibbs(np.array([0.0]), theta, 1.0, 1.0, rng)[0] for _ in range(50_000)]
        double = [
            dec.update_u_gibbs(np.array([0.0]), 2 * theta, 1.0, 1.0, rng)[0] for _ in range(50_000)
        ]
        # posterior mean 1/(1+S) vs 1/(1+4S) with S = 11
        assert abs(np.mean(single) - 1 / 12) < 0.005
        assert abs(np.mean(double) - 1 / 45) < 0.005

    def test_scales_and_probabilities(self):
        state = make_state([3, 2], 6, 10, seed=4)
        assert np.allclose(state.p[1], 1 - math.exp(-1))
        # p2 with c=1: -ln(1-p1)=1 so p2 = 1/2
        state.c[2] = 1.0
        state.c[3] = 1.0
        assert np.allclose(state.p[2], 0.5)
        rng = RngStream(14)
        dec.update_scales(state, rng)
        for t in range(2, state.depth + 2):
            assert np.all(state.c[t] > 0)
        assert np.all((state.p[1:4] > 0) & (state.p[1:4] < 1))

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_scales_outside_positive_reals_raise(self, monkeypatch, bad):
        state = make_state([3, 2], 6, 10, seed=4)
        draw = dec.sample_gamma
        monkeypatch.setattr(dec, "sample_gamma", lambda *args: np.full_like(draw(*args), bad))
        with pytest.raises(FloatingPointError, match="scale"):
            dec.update_scales(state, RngStream(14))

    def test_scale_prior_reduction(self):
        # zero theta sums: the mid-layer posterior reduces to Gam(e0, 1/f0) = Gam(1,1);
        # the top scale keeps the top-layer shape sum: Gam(sum(gamma0)+e0, 1/f0)
        state = make_state([2, 2], 4, 20000, seed=5)
        state.thetas[0][:] = 1e-300
        state.thetas[1][:] = 1e-300
        rng = RngStream(15)
        dec.update_scales(state, rng)
        assert abs(state.c[2].mean() - 1.0) < 0.05
        assert abs(state.c[3].mean() - 3.0) < 0.05


class TestExpectations:
    def test_edge_probability_zero_theta(self):
        thetas = [np.zeros((2, 2))]
        assert dec.edge_probabilities([np.ones(2)], thetas, [(0, 1)])[0] == 0.0

    def test_edge_probability_half(self):
        u = [np.array([math.log(2.0)])]
        assert dec.edge_probabilities(u, [np.ones((1, 2))], [(0, 1)])[0] == pytest.approx(0.5)

    def test_edge_probability_monotone_saturating(self):
        probs = [
            dec.edge_probabilities([np.array([s])], [np.ones((1, 2))], [(0, 1)])[0]
            for s in (0.1, 1.0, 5.0, 10.0)
        ]
        assert all(a < b for a, b in zip(probs, probs[1:]))
        assert 0.999 < probs[-1] <= 1.0

    def test_layer_adjacency_rank_one(self):
        theta = np.array([[1.0, 2.0, 3.0]])
        a = dec.layer_adjacency(np.ones(1), theta)
        assert np.allclose(a, np.outer([1, 2, 3], [1, 2, 3]))
        assert np.allclose(a, a.T)

    def test_layer_sum_matches_edge_probability(self):
        rng = np.random.default_rng(3)
        thetas = [np.abs(rng.normal(size=(3, 6))) + 0.1 for _ in range(2)]
        us = [np.abs(rng.normal(size=3)) + 0.1 for _ in range(2)]
        total = sum(dec.layer_adjacency(u, t) for u, t in zip(us, thetas))
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        probs = dec.edge_probabilities(us, thetas, pairs)
        for (i, j), p in zip(pairs, probs):
            assert p == pytest.approx(1 - math.exp(-total[i, j]))


class TestGibbsSweep:
    def _data(self, seed=0, widths=(4,), vocab=12, n=30, u_scale=0.05):
        rng = RngStream(seed, (3,))
        state, x, edges = dec.sample_generative(list(widths), vocab, n, rng, u_scale=u_scale)
        return sp.csr_matrix(x.astype(float)), edges

    def test_sweep_deterministic(self):
        x, edges = self._data()
        a = make_state([4], 12, 30, seed=1)
        b = make_state([4], 12, 30, seed=1)
        dec.gibbs_sweep(a, x, edges, RngStream(2, (5,)))
        dec.gibbs_sweep(b, x, edges, RngStream(2, (5,)))
        assert all(np.array_equal(p, q) for p, q in zip(a.phis, b.phis))
        assert all(np.array_equal(p, q) for p, q in zip(a.thetas, b.thetas))

    @pytest.mark.parametrize("option", ["default", "exact_scan"])
    def test_sweep_matches_inline_chain(self, option):
        # the shared augmentation chain consumes the stream as the sweep's
        # own inline chain did, so three sweeps leave the same state
        x, edges = self._data(widths=(4, 3))
        kwargs = {
            "default": {},
            "exact_scan": {"exact_scan": True},
        }[option]
        a = make_state([4, 3], 12, 30, seed=1)
        b = make_state([4, 3], 12, 30, seed=1)
        for it in range(3):
            dec.gibbs_sweep(a, x, edges, RngStream(2, (it,)), **kwargs)
            reference.gibbs_sweep(b, x, edges, RngStream(2, (it,)), **kwargs)
        for name in ("phis", "thetas", "us"):
            assert all(np.array_equal(p, q) for p, q in zip(getattr(a, name), getattr(b, name)))
        assert np.array_equal(a.c, b.c) and np.array_equal(a.p, b.p)

    def test_sweep_empty_graph_runs(self):
        x, _ = self._data()
        state = make_state([4, 3], 12, 30, seed=2)
        dec.gibbs_sweep(state, x, np.zeros((0, 2), int), RngStream(3))
        assert all(np.all(t > 0) for t in state.thetas)

    def test_simplex_preserved_over_sweeps(self):
        x, edges = self._data(widths=(4, 3))
        state = make_state([4, 3], 12, 30, seed=3)
        rng = RngStream(4)
        for it in range(10):
            dec.gibbs_sweep(state, x, edges, rng.derive(it))
            for phi in state.phis:
                assert np.allclose(phi.sum(axis=0), 1.0, atol=1e-12)

    def test_edge_marginal_frequencies(self):
        # generated edges appear with probability 1 - exp(-rate)
        rng = RngStream(6, (8,))
        n_rep = 200_000
        for rate in (0.1, 1.0, 5.0):
            m = dec.sample_truncated_poisson(np.full(n_rep, rate), rng)
            # simulate the thresholding forward: Bernoulli acceptance of any count
            p_edge = -math.expm1(-rate)
            hits = rng.gen.uniform(size=n_rep) < p_edge
            sigma = math.sqrt(p_edge * (1 - p_edge) / n_rep)
            assert abs(hits.mean() - p_edge) < 3 * sigma
            assert np.all(m >= 1)


class TestGewekeConsistency:
    """Forward samples and Gibbs-chain samples of (mean total proportion,
    edge count) must agree when the sweep targets the right posterior."""

    WIDTHS, VOCAB, N = [2], 5, 8

    def _forward_stats(self, rng, reps):
        sums, edges_count = [], []
        for r in range(reps):
            state, x, edges = dec.sample_generative(self.WIDTHS, self.VOCAB, self.N, rng.derive(r))
            sums.append(state.thetas[0].sum() / self.N)
            edges_count.append(len(edges))
        return np.asarray(sums), np.asarray(edges_count)

    def _chain_stats(self, rng, reps, thin=3, burn=300):
        state, x, edges = dec.sample_generative(self.WIDTHS, self.VOCAB, self.N, rng.derive(0))
        sums, edges_count = [], []
        it = 0
        collected = 0
        while collected < reps:
            # resample data given parameters, then parameters given data
            x, edges = self._resample_data(state, rng.derive(1, it))
            dec.gibbs_sweep(
                state, sp.csr_matrix(x.astype(float)), edges, rng.derive(2, it), exact_scan=True
            )
            if it >= burn and it % thin == 0:
                sums.append(state.thetas[0].sum() / self.N)
                edges_count.append(len(edges))
                collected += 1
            it += 1
        return np.asarray(sums), np.asarray(edges_count)

    def _resample_data(self, state, rng):
        g = rng.gen
        x = g.poisson(state.phis[0] @ state.thetas[0])
        rate = dec.layer_adjacency(state.us[0], state.thetas[0])
        iu = np.triu_indices(self.N, k=1)
        hits = g.uniform(size=len(iu[0])) < -np.expm1(-rate[iu])
        return x, np.column_stack([iu[0][hits], iu[1][hits]])

    def test_joint_distribution_consistency(self):
        rng = RngStream(20250601, (42,))
        reps = 1500
        f_sum, f_edges = self._forward_stats(rng.derive(10), reps)
        c_sum, c_edges = self._chain_stats(rng.derive(11), reps)
        for fwd, chain, label in ((f_sum, c_sum, "theta"), (f_edges, c_edges, "edges")):
            se = math.sqrt(fwd.var() / len(fwd) + 6.0 * chain.var() / len(chain))
            gap = abs(fwd.mean() - chain.mean())
            assert gap < 5 * se, f"{label}: forward {fwd.mean():.4f} vs chain {chain.mean():.4f}"


class TestPosteriorRecoveryQuick:
    def test_short_run_recovers_most_structure(self):
        rng = RngStream(5, (6,))
        truth, x, edges = dec.sample_generative([5], 30, 120, rng.derive(0), u_scale=0.002, eta_gen=0.05)
        state = make_state([5], 30, 120, seed=9)
        xs = sp.csr_matrix(x.astype(float))
        chain = RngStream(10, (11,))
        for it in range(250):
            dec.gibbs_sweep(state, xs, edges, chain.derive(it))
        a = truth.phis[0] / np.linalg.norm(truth.phis[0], axis=0)
        b = state.phis[0] / np.linalg.norm(state.phis[0], axis=0)
        sim = a.T @ b
        rows, cols = linear_sum_assignment(-sim)
        assert sim[rows, cols].mean() > 0.75
