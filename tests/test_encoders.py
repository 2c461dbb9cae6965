import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import gammaln

import graphtopics.autodiff as ad
import graphtopics.encoders as enc
import graphtopics.training as tr
from graphtopics.graph_data import AdjacencyGraph, LabelVector, normalize_adjacency
from graphtopics.selftest import first_objective, toy_problem
from graphtopics.stochastic import RngStream

import reference
from conftest import hidden_states


def small_problem(seed=0):
    g = np.random.default_rng(seed)
    n, v = 5, 6
    x_counts = sp.csr_matrix(g.integers(0, 4, size=(v, n)).astype(float))
    graph = AdjacencyGraph.from_pairs(n, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
    widths = [4, 3]
    phis = [np.abs(g.normal(size=(v, 4))) + 0.1, np.abs(g.normal(size=(4, 3))) + 0.1]
    for p in phis:
        p /= p.sum(axis=0)
    return n, v, x_counts, graph, widths, phis, np.ones(3)


class TestConvForward:
    def test_zero_weights_give_log_two(self):
        n, v, x, graph, widths, _, _ = small_problem()
        a_norm = normalize_adjacency(graph)
        weights = enc.init_encoder_weights("conv", v, widths, RngStream(1))
        for name in list(weights.params):
            weights.params[name] = np.zeros_like(weights.params[name])
        params = {k: ad.Tensor(p) for k, p in weights.params.items()}
        out = enc.conv_forward(params, x.T.tocsr(), a_norm, widths)
        for k_t, lam_t in zip(out.k_raw, out.lam):
            assert np.allclose(k_t.value, math.log(2.0))
            assert np.allclose(lam_t.value, math.log(2.0))

    def test_single_node_passthrough(self):
        x_row = sp.csr_matrix(np.array([[1.0, 2.0, 0.5]]))
        a_norm = sp.identity(1, format="csr")
        w1 = np.random.default_rng(0).normal(size=(3, 2))
        params = {"w1_1": ad.Tensor(w1), "w2_1": ad.Tensor(np.zeros((2, 2))),
                  "w3_1": ad.Tensor(np.zeros((2, 2)))}
        _, hidden = hidden_states(enc.conv_forward, params, x_row, a_norm, [2])
        want = np.logaddexp(0, np.array([[1.0, 2.0, 0.5]]) @ w1)
        assert np.allclose(hidden[0].value, want)

    def test_outputs_strictly_positive(self):
        n, v, x, graph, widths, _, _ = small_problem(3)
        a_norm = normalize_adjacency(graph)
        weights = enc.init_encoder_weights("conv", v, widths, RngStream(2))
        params = {k: ad.Tensor(p) for k, p in weights.params.items()}
        out = enc.conv_forward(params, x.T.tocsr(), a_norm, widths)
        for t in out.k_raw + out.lam:
            assert np.all(t.value > 0)


class TestAttention:
    def test_single_neighbor_weight_one(self):
        scores = ad.Tensor(np.array([[3.7]]))
        values = reference.stochastic_attention(scores, np.array([[0.5]]), 2.0)
        out = reference.attention_aggregate(values, np.array([[2.5]]), [0], [0], 1)
        assert out.value.ravel() == pytest.approx([2.5])
        # the same through the layer: one node, its self-loop, value 2.5
        layer = ad.attention_layer(
            np.array([[1.0]]), [np.array([[3.7]])], [np.array([[2.5]])], np.ones((2, 1)),
            ad.Neighborhoods([0], [0], 1), enc._attention_noise([np.array([[0.5]])], 2.0), 0.2,
            enc.SCORE_CLIP, False,
        )
        assert layer.value.ravel() == pytest.approx([2.5])

    def test_mean_matches_exp_score(self):
        # E[s] = exp(m) for any attention shape
        rng = RngStream(3)
        n_draws = 100_000
        m = 0.7
        eps = rng.gen.uniform(size=(n_draws, 1))
        scores = ad.Tensor(np.full((n_draws, 1), m))
        s = reference.stochastic_attention(scores, eps, 3.0)
        assert abs(s.value.mean() - math.exp(m)) / math.exp(m) < 0.01
        # the layer's draw is exp(m) times this factor
        s = math.exp(m) * enc._attention_noise([eps], 3.0)
        assert abs(s.mean() - math.exp(m)) / math.exp(m) < 0.01

    def test_large_shape_concentrates_at_mean(self):
        rng = RngStream(4)
        eps = rng.gen.uniform(size=(50_000, 1))
        scores = ad.Tensor(np.full((50_000, 1), 1.2))
        s = reference.stochastic_attention(scores, eps, 1e4)
        rel = np.abs(s.value - math.exp(1.2)) / math.exp(1.2)
        assert np.quantile(rel, 0.99) < 0.01
        rel = np.abs(enc._attention_noise([eps], 1e4) - 1.0)
        assert np.quantile(rel, 0.99) < 0.01

    def test_rows_normalize_per_head_layer(self):
        # the row weights of every head and layer, from the inputs the forward
        # pass gives each layer
        n, v, x, graph, widths, _, _ = small_problem(5)
        src, dst = enc.attention_edge_arrays(graph)
        weights = enc.init_encoder_weights("attention", v, widths, RngStream(5), heads=3)
        params = {k: ad.Tensor(p) for k, p in weights.params.items()}
        eps = enc.draw_attention_noise(RngStream(6), len(src), 3, 2)
        _, hidden = hidden_states(enc.attention_forward, params, x.T.tocsr(), src, dst, widths, 3,
                                  10.0, eps)
        for t, h_prev in enumerate([x.T.tocsr()] + hidden[:-1], start=1):
            for c in range(3):
                scores = reference.attention_scores(
                    h_prev, params[f"watt_{t}_{c}"], params[f"a_{t}"], src, dst, 0.2
                )
                values = reference.stochastic_attention(scores, eps[t - 1][c], 10.0)
                sums = reference.attention_aggregate(values, np.ones((n, 1)), src, dst, n)
                assert np.allclose(sums.value, 1.0, atol=1e-9)

    def test_constant_shift_ordering_invariant_at_large_shape(self):
        # adding a constant to every raw score must not change the ranking
        # of normalized weights in the near-deterministic regime
        rng = RngStream(7)
        base = np.array([0.3, 1.1, -0.5, 0.9])
        seg = np.zeros(4, dtype=int)
        eps = rng.gen.uniform(size=(4, 1))
        outs = []
        for shift in (0.0, 2.5):
            scores = ad.Tensor((base + shift).reshape(-1, 1))
            values = reference.stochastic_attention(scores, eps, 1e4)
            # one identity row per edge reads the normalized weights off
            s_hat = reference.attention_aggregate(values, np.eye(4), seg, np.arange(4), 1)
            outs.append(np.argsort(s_hat.value.ravel()))
        assert np.array_equal(outs[0], outs[1])

    def test_empty_neighborhood_rejected(self):
        with pytest.raises(ValueError, match="empty neighborhood"):
            reference.attention_aggregate(ad.Tensor(np.array([[0.1]])), np.ones((2, 1)), [0], [1], 2)
        with pytest.raises(ValueError, match="empty neighborhood"):
            ad.Neighborhoods([0], [1], 2)

    def test_nonpositive_attention_shape_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            reference.stochastic_attention(ad.Tensor(np.zeros((1, 1))), np.array([[0.5]]), 0.0)
        n, v, x, graph, widths, _, _ = small_problem()
        src, dst = enc.attention_edge_arrays(graph)
        weights = enc.init_encoder_weights("attention", v, widths, RngStream(1), heads=2)
        for eps in (None, enc.draw_attention_noise(RngStream(2), len(src), 2, 2)):
            with pytest.raises(ValueError, match="positive"):
                enc.attention_forward(weights.params, x.T.tocsr(), src, dst, widths, 2, 0.0, eps)

    @pytest.mark.parametrize("softmax_of_log", [False, True])
    @pytest.mark.parametrize("noisy", [True, False])
    def test_fused_aggregation_matches_composed_reference(self, softmax_of_log, noisy):
        # one attention_layer per layer against a chain per head of scores,
        # draw, segment softmax -> gather -> mul -> segment sum: summation
        # order differs, so values and gradients agree to 1e-12 relative to
        # each array's largest entry
        x, graph, _ = toy_problem(RngStream(1))
        src, dst = enc.attention_edge_arrays(graph)
        widths = [4, 3]
        weights = enc.init_encoder_weights("attention", x.vocab_size, widths, RngStream(2), heads=3)
        noise = enc.draw_attention_noise(RngStream(3), len(src), 3, 2) if noisy else None
        runs = []
        for forward in (enc.attention_forward, reference.composed_attention_forward):
            params = {k: ad.Tensor(v) for k, v in weights.params.items()}
            out, hidden = hidden_states(forward, params, x.node_major(), src, dst, widths, 3, 10.0,
                                        noise, softmax_of_log=softmax_of_log)
            arrays = hidden + out.k_raw + out.lam
            total = ad.as_tensor(0.0)
            for i, t in enumerate(arrays):
                probe = np.random.default_rng(i).normal(size=t.value.shape)
                total = ad.add(total, ad.tsum(ad.mul(t, probe)))
            ad.backward(total)
            grads = {k: p.grad for k, p in params.items() if p.grad is not None}
            runs.append(([t.value for t in arrays], grads))
        (fused, fused_grads), (composed, composed_grads) = runs
        for a, b in zip(fused, composed):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())
        encoder_params = {k for k in weights.params if not k.startswith("log_u")}
        assert fused_grads.keys() == composed_grads.keys() == encoder_params
        for name, b in composed_grads.items():
            np.testing.assert_allclose(fused_grads[name], b, rtol=0, atol=1e-12 * np.abs(b).max())

    def test_tape_nodes_independent_of_heads(self):
        # every head of a layer lives inside one attention_layer node, so the
        # objective records as many primitives at one head as at four
        x, graph, _ = toy_problem(RngStream(4))
        recorded = []
        for heads in (1, 4):
            config = tr.TrainConfig(widths=(16, 16, 16), encoder="attention", heads=heads)
            objective, weights = first_objective(x, graph, config)
            total, _ = objective({k: ad.Tensor(v) for k, v in weights.params.items()})
            recorded.append(sum(node.bwd is not None for node in ad._topological(total)))
        assert recorded[0] == recorded[1]

    def test_uniform_attention_reduces_to_mean_aggregation(self):
        # with one head and all-equal attention draws, aggregation averages
        # the neighborhood; force it by zeroing the score path
        n, v, x, graph, widths, _, _ = small_problem(8)
        src, dst = enc.attention_edge_arrays(graph)
        weights = enc.init_encoder_weights("attention", v, [3], RngStream(8), heads=1)
        weights.params["a_1"][:] = 0.0  # all scores 0 -> equal means
        params = {k: ad.Tensor(p) for k, p in weights.params.items()}
        _, hidden = hidden_states(
            enc.attention_forward, params, x.T.tocsr(), src, dst, [3], 1, 10.0, None
        )
        val = (x.T.tocsr() @ weights.params["w1_1_0"])
        deg = np.bincount(src, minlength=n).astype(float)
        want = np.zeros_like(val)
        np.add.at(want, src, val[dst])
        want /= deg[:, None]
        assert np.allclose(hidden[0].value, want)


class TestThetaStack:
    def test_fixed_noise_recovers_scale(self):
        n, v, x, graph, widths, phis, gamma0 = small_problem(9)
        k_raw = [ad.Tensor(np.full((n, k), 0.8)) for k in widths]
        lam = [ad.Tensor(np.full((n, k), 2.5)) for k in widths]
        out = enc.EncoderOutput(k_raw, lam)
        eps = [np.full((n, k), 1 - math.exp(-1)) for k in widths]
        thetas, shapes, lams = enc.sample_theta_stack(out, phis, gamma0, eps)
        for t in thetas:
            assert np.allclose(t.value, 2.5)

    def test_large_shape_concentrates_at_scale(self):
        rng = RngStream(10)
        n = 20_000
        k_raw = [ad.Tensor(np.full((n, 1), 1000.0))]
        lam = [ad.Tensor(np.full((n, 1), 1.7))]
        eps = [rng.gen.uniform(size=(n, 1))]
        thetas, _, _ = enc.sample_theta_stack(
            enc.EncoderOutput(k_raw, lam), [None], np.ones(1), eps
        )
        rel_std = thetas[0].value.std() / thetas[0].value.mean()
        assert rel_std < 0.02

    def test_samples_positive(self):
        n, v, x, graph, widths, phis, gamma0 = small_problem(11)
        rng = RngStream(12)
        k_raw = [ad.Tensor(np.abs(rng.gen.normal(size=(n, k))) + 0.1) for k in widths]
        lam = [ad.Tensor(np.abs(rng.gen.normal(size=(n, k))) + 0.1) for k in widths]
        eps = enc.draw_theta_noise(rng, n, widths)
        thetas, shapes, _ = enc.sample_theta_stack(
            enc.EncoderOutput(k_raw, lam), phis, gamma0, eps
        )
        for t in thetas:
            assert np.all(t.value > 0)


class TestKlWeibullGamma:
    def test_identical_exponentials_zero(self):
        kl = enc.kl_weibull_gamma(np.array(1.0), np.array(1.0), np.array(1.0), np.array(1.0))
        assert float(kl.value) == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_oracle(self):
        # frozen MC estimates (1e6 draws, seed 123) for (k, lam, alpha, rate)
        cases = [
            (1.0, 2.0, 1.0, 1.0),
            (2.5, 0.7, 1.8, 0.9),
            (0.8, 3.0, 2.2, 2.0),
        ]
        g = np.random.default_rng(123)
        for k, lam, alpha, rate in cases:
            e = g.uniform(size=1_000_000)
            draws = lam * (-np.log1p(-e)) ** (1 / k)
            log_q = math.log(k / lam) + (k - 1) * np.log(draws / lam) - (draws / lam) ** k
            log_p = alpha * math.log(rate) - gammaln(alpha) + (alpha - 1) * np.log(draws) - rate * draws
            mc = float(np.mean(log_q - log_p))
            ana = float(
                enc.kl_weibull_gamma(np.array(k), np.array(lam), np.array(alpha), np.array(rate)).value
            )
            assert abs(ana - mc) / max(abs(mc), 0.05) < 0.01, (k, lam, alpha, rate)

    def test_nonnegative_on_random_parameters(self):
        g = np.random.default_rng(5)
        k = g.uniform(0.3, 4.0, size=50)
        lam = g.uniform(0.2, 5.0, size=50)
        alpha = g.uniform(0.3, 4.0, size=50)
        rate = g.uniform(0.3, 4.0, size=50)
        kl = enc.kl_weibull_gamma(k, lam, alpha, rate)
        assert np.all(kl.value >= -1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enc.kl_weibull_gamma(np.array(-1.0), np.array(1.0), np.array(1.0), np.array(1.0))


def first_objective_of(labels=None, **config):
    """Iteration 0's training objective on the 12-node toy graph:
    (objective, weights)."""
    x, graph, _ = toy_problem(RngStream(13))
    return first_objective(x, graph, tr.TrainConfig(widths=(4, 3), seed=13, **config), labels)


def at_weights(objective, weights):
    total, parts = objective({k: ad.Tensor(p) for k, p in weights.params.items()})
    return float(total.value), parts


class TestElbo:
    def test_beta_zero_drops_edge_term(self):
        total0, parts0 = at_weights(*first_objective_of(beta=0.0))
        total1, parts1 = at_weights(*first_objective_of(beta=1.0))
        # β = 0 skips the edge term; at β = 1 it is computed, negative, and
        # the only difference between the two totals
        assert parts0["edge_ll"] == 0.0 and parts1["edge_ll"] < 0.0
        assert total0 == pytest.approx(parts0["node_ll"] - parts0["kl"])
        assert total1 - total0 == pytest.approx(parts1["edge_ll"], rel=1e-12)
        # a graph without edges has no edge term at any β
        x, _, _ = toy_problem(RngStream(13))
        edgeless = AdjacencyGraph.from_pairs(12, [])
        total, parts = at_weights(*first_objective(x, edgeless, tr.TrainConfig(widths=(4, 3), seed=13)))
        assert parts["edge_ll"] == 0.0
        assert total == pytest.approx(parts["node_ll"] - parts["kl"])

    def test_beta_gradient_equals_edge_loglik(self):
        # ELBO(beta2) - ELBO(beta1) = (beta2 - beta1) * edge log-likelihood
        values = {beta: at_weights(*first_objective_of(beta=beta)) for beta in (1.0, 3.5)}
        gap = values[3.5][0] - values[1.0][0]
        assert gap == pytest.approx(2.5 * values[1.0][1]["edge_ll"], rel=1e-12)

    def test_prior_matched_single_node_elbo_is_node_loglik(self):
        # one node, no edges, top layer: Weibull(1, lam) vs Gamma(1, 1/lam)
        x = sp.csr_matrix(np.array([[2.0], [1.0]]))
        phi = np.array([[0.6], [0.4]])
        lam_val = 1.3
        shape = ad.Tensor(np.array([[1.0]]))
        lam = ad.Tensor(np.array([[lam_val]]))
        eps = np.array([[1 - math.exp(-1)]])
        theta = ad.weibull_transform(shape, lam, eps)
        total, parts = enc.elbo(
            x, np.zeros((0, 2), np.int64), [theta], [shape], [lam], [phi],
            [ad.Tensor(np.ones(1))], np.ones(1), [1.0 / lam_val], 1.0, np.ones(1), np.ones(1),
        )
        assert parts["kl"] == pytest.approx(0.0, abs=1e-12)
        assert float(total.value) == pytest.approx(parts["node_ll"])


class TestSupervisedLoss:
    def test_no_labels_reduces_to_elbo(self):
        total, _ = at_weights(*first_objective_of())
        objective, weights = first_objective_of(LabelVector(-np.ones(12, dtype=np.int64), 7))
        loss, loss_parts = at_weights(objective, weights)
        assert "cls_w" in weights.params
        assert loss == pytest.approx(total)
        assert loss_parts["label_ll"] == 0.0

    def test_uniform_classifier_gives_log_seventh(self):
        labels = LabelVector(np.array([0, 3, -1, -1, 6] + [-1] * 7), 7)
        objective, weights = first_objective_of(labels)
        weights.params["cls_w"][:] = 0.0
        weights.params["cls_b"][:] = 0.0
        _, parts = at_weights(objective, weights)
        assert parts["label_ll"] == pytest.approx(3 * math.log(1 / 7))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="label"):
            at_weights(*first_objective_of(LabelVector(np.array([9] + [0] * 11), 7)))


class TestPosteriorMeans:
    # None noise: the θ stack takes each layer's Weibull mean λ Γ(1 + 1/k)
    def test_matches_weibull_mean_formula(self):
        out = enc.EncoderOutput([np.full((3, 2), 4.0)], [np.full((3, 2), 2.0)])
        means, _, _ = enc.sample_theta_stack(out, [None], np.ones(2), [None])
        want = 2.0 * math.gamma(1 + 1 / 5.0)  # shape = 4 + gamma0 = 5
        assert np.allclose(means[0].value, want)

    def test_feeds_lower_layer_addend(self):
        phis = [None, np.full((2, 3), 1 / 2)]
        out = enc.EncoderOutput(
            [np.full((4, 2), 1.0), np.full((4, 3), 2.0)], [np.ones((4, 2)), np.ones((4, 3))]
        )
        means, _, _ = enc.sample_theta_stack(out, phis, np.ones(3), [None, None])
        top_mean = math.gamma(1 + 1 / 3.0)
        addend = 3 * 0.5 * top_mean
        want = math.exp(gammaln(1 + 1 / (1.0 + addend)))
        assert np.allclose(means[0].value, want)
