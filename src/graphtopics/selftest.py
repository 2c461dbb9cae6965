"""Built-in property checks: samplers, gradients, conjugacy, normalizations.

A fast (seconds, not minutes) version of the invariant suites, callable from
the CLI exit-code path.  The pytest suite runs the heavy versions.
"""

import math

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from . import encoders as enc
from .decoder import augment_edge_counts, augment_node_counts, update_phi_gibbs
from .graph_data import AdjacencyGraph, normalize_adjacency
from .stochastic import RngStream, sample_crt, sample_truncated_poisson
from .training import node_sampling_table


def _report(name, ok, detail, verbose):
    if verbose:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def run_selftest(verbose=False, seed=0):
    rng = RngStream(seed, (99,))
    ok = True
    n_draws = 200_000

    # Monte-Carlo sampler means against closed forms (5 sigma at 2e5 draws)
    for lam in (0.1, 1.0, 10.0):
        draws = sample_truncated_poisson(np.full(n_draws, lam), rng.derive(1))
        mean = lam / -math.expm1(-lam)
        var = (lam + lam**2) / -math.expm1(-lam) - mean**2
        tol = 5 * math.sqrt(var / n_draws)
        ok &= _report(
            f"pois+({lam}) mean", abs(draws.mean() - mean) < tol,
            f"{draws.mean():.4f} vs {mean:.4f}", verbose,
        )
    crt = sample_crt(np.full(n_draws, 3), 1.0, rng.derive(2))
    ok &= _report("crt(3,1) mean", abs(crt.mean() - 11 / 6) < 0.01, f"{crt.mean():.4f}", verbose)
    # the encoder's reparameterized draw on uniform noise
    wei = ad.weibull_transform(5.0, 1.0, rng.derive(3).gen.uniform(size=n_draws)).value
    ok &= _report(
        "weibull(5,1) mean", abs(wei.mean() - math.gamma(1.2)) < 0.005,
        f"{wei.mean():.4f}", verbose,
    )

    # count conservation through both augmentations
    g = rng.derive(4)
    x = sp.random(12, 9, density=0.4, random_state=np.random.default_rng(1), data_rvs=lambda s: np.random.default_rng(2).integers(1, 6, s)).tocsr()
    phi = update_phi_gibbs(np.zeros((12, 4)), 0.1, g)
    theta = np.abs(np.random.default_rng(3).normal(size=(4, 9))) + 0.1
    word_topic, node_topic = augment_node_counts(x, phi, theta, g)
    ok &= _report(
        "node-count conservation",
        word_topic.sum() == x.sum() and node_topic.sum() == x.sum(),
        f"{word_topic.sum()} vs {x.sum()}", verbose,
    )
    edges = np.array([[0, 1], [2, 5], [3, 8], [0, 4]])
    m, splits = augment_edge_counts(edges, [np.ones(4)], [theta], g)
    ok &= _report(
        "edge-count conservation",
        int(sum(s.sum() for s in splits)) == int(m.sum()) and np.all(m >= 1),
        f"{int(m.sum())} split into {int(sum(s.sum() for s in splits))}", verbose,
    )
    ok &= _report(
        "topic simplex", np.allclose(phi.sum(axis=0), 1.0, atol=1e-12), "columns sum to 1", verbose
    )

    # node-sampling probabilities sum to one
    p, _ = node_sampling_table(np.arange(1.0, 11.0), 0.7, 1.0)
    ok &= _report("subset probabilities", abs(p.sum() - 1.0) < 1e-12, f"sum={p.sum():.14f}", verbose)

    # attention row normalization
    graph = AdjacencyGraph.from_pairs(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]])
    src, dst = enc.attention_edge_arrays(graph)
    scores = ad.Tensor(np.random.default_rng(4).normal(size=len(src)))
    s_hat = ad.segment_softmax(scores, src, 6)
    sums = np.zeros(6)
    np.add.at(sums, src, s_hat.value)
    ok &= _report("attention rows", np.allclose(sums, 1.0, atol=1e-9), "rows sum to 1", verbose)

    # gradient spot-checks on every encoder path
    x_rows = sp.csr_matrix(np.abs(np.random.default_rng(5).normal(size=(6, 7))))
    a_norm = normalize_adjacency(graph)
    widths = [3, 2]
    phis = [np.abs(np.random.default_rng(6).normal(size=(7, 3))) + 0.1,
            np.abs(np.random.default_rng(7).normal(size=(3, 2))) + 0.1]
    for p_ in phis:
        p_ /= p_.sum(axis=0)
    gamma0 = np.ones(2)
    eps = enc.draw_theta_noise(rng.derive(6), 6, widths)
    x_counts = sp.csr_matrix(np.random.default_rng(8).integers(0, 4, size=(7, 6)).astype(float))

    for kind in ("conv", "attention"):
        weights = enc.init_encoder_weights(kind, 7, widths, rng.derive(7), heads=2)
        eps_attn = enc.draw_attention_noise(rng.derive(8), len(src), 2, 2)

        def objective(params, kind=kind, eps_attn=eps_attn):
            if kind == "conv":
                out = enc.conv_forward(params, x_rows, a_norm, widths)
            else:
                out = enc.attention_forward(
                    params, x_rows, src, dst, widths, 2, 10.0, eps_attn, num_nodes=6
                )
            thetas, shapes, lams = enc.sample_theta_stack(out, phis, gamma0, eps)
            us = [ad.exp(params[f"log_u_{t}"]) for t in (1, 2)]
            total, _ = enc.elbo(
                x_counts, graph.edges, 6, thetas, shapes, lams, phis, us, gamma0, [1.0, 1.0], 1.0
            )
            return total

        report = ad.check_gradients(objective, weights.params)
        ok &= _report(f"{kind} elbo gradients", report.ok, repr(report), verbose)

    # KL divergence sanity and expectation cross-checks
    gg = np.random.default_rng(9)
    kl = enc.kl_weibull_gamma(
        gg.uniform(0.3, 3, 20), gg.uniform(0.3, 3, 20), gg.uniform(0.3, 3, 20), gg.uniform(0.3, 3, 20)
    )
    ok &= _report("kl nonnegative", bool(np.all(kl.value >= -1e-12)), f"min {kl.value.min():.2e}", verbose)

    from .decoder import edge_probabilities, init_decoder_state, layer_adjacency
    from .export import export_topic_tree, projected_topic

    state = init_decoder_state([4, 3], 7, 8, rng=rng.derive(10))
    total = sum(layer_adjacency(u, th) for u, th in zip(state.us, state.thetas))
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    probs = edge_probabilities(state.us, state.thetas, pairs)
    want = [1 - math.exp(-total[i, j]) for i, j in pairs]
    ok &= _report("layer-sum edge probability", np.allclose(probs, want), "matches", verbose)

    vocab = [f"t{v}" for v in range(7)]
    proj_sums = [projected_topic(state, 2, k).sum() for k in range(3)]
    tree_a = export_topic_tree(state, (2, 0), 1.0, vocab).to_dict()
    tree_b = export_topic_tree(state, (2, 0), 1.0, vocab).to_dict()
    ok &= _report(
        "topic projections and tree determinism",
        np.allclose(proj_sums, 1.0) and tree_a == tree_b,
        f"sums {np.round(proj_sums, 12)}", verbose,
    )
    return bool(ok)
