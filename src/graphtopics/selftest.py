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
from .graph_data import AdjacencyGraph, LabelVector, SparseCountMatrix
from .stochastic import RngStream, sample_crt, sample_truncated_poisson
from .training import (
    _PH_INIT,
    TrainConfig,
    _batch_noise,
    _full_graph_batches,
    _init_run,
    _minibatches,
    _objective,
    node_sampling_table,
)


def _report(name, ok, detail, verbose):
    if verbose:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def toy_problem(rng):
    """Twelve documents over seven terms on a ring with chords, most of them
    labelled with one of three classes: (features, graph, labels)."""
    g = rng.gen
    dense = g.integers(0, 4, size=(7, 12))
    dense[0] += dense.sum(axis=0) == 0  # every document has a term
    v_idx, j_idx = np.nonzero(dense)
    x = SparseCountMatrix(12, 7, v_idx, j_idx, dense[v_idx, j_idx])
    pairs = [[i, (i + 1) % 12] for i in range(12)] + [[i, i + 5] for i in range(0, 7, 2)]
    return x, AdjacencyGraph.from_pairs(12, pairs), LabelVector(g.integers(-1, 3, size=12), 3)


def first_objective(x, graph, config, labels=None):
    """``training._objective`` on iteration 0 of a run of ``config``: the
    trainer's set-up, first batch and noise, with the decoder's scales drawn
    unequal across nodes.  Returns ``(objective, weights)``; ``objective(params)``
    gives (total, parts)."""
    rng, state, weights = _init_run(x, config, labels)
    state.c[2:] = rng.derive(_PH_INIT, 2).gen.uniform(0.5, 2.0, size=state.c[2:].shape)
    if config.trainer == "scalable":
        batch = _minibatches(x, graph, config, weights, labels, rng)(0)
    else:
        batch = _full_graph_batches(x, graph, weights, labels)(0)
    noise_theta, noise_attn = _batch_noise(rng, 0, weights, batch)

    def objective(params):
        return _objective(params, weights, batch, noise_theta, noise_attn, state, config)

    return objective, weights


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

    # attention row normalization on the toy graph: a two-head layer whose
    # value projections are all ones returns each row's weight sums
    x, graph, labels = toy_problem(rng.derive(5))
    nbhd = ad.Neighborhoods(*enc.attention_edge_arrays(graph), graph.num_nodes)
    gr = np.random.default_rng(4)
    h = np.column_stack([np.ones(graph.num_nodes), gr.normal(size=graph.num_nodes)])
    sums = ad.attention_layer(
        h, [gr.normal(size=(2, 1)) for _ in range(2)], [np.array([[1.0], [0.0]])] * 2,
        gr.normal(size=(2, 1)), nbhd, gr.uniform(0.5, 1.5, size=(2, len(nbhd.src))), 0.2,
        enc.SCORE_CLIP, False,
    ).value
    ok &= _report("attention rows", np.allclose(sums, 1.0, atol=1e-9), "rows sum to 1", verbose)

    # gradients of the training objective, both encoders on both batch sources
    for kind in ("conv", "attention"):
        for trainer in ("full_batch", "scalable"):
            config = TrainConfig(
                widths=(3, 2), beta=1.7, trainer=trainer, minibatch_nodes=8, encoder=kind,
                heads=2, kl_rate_fixed=None, recon_weight=0.5,
            )
            objective, weights = first_objective(x, graph, config, labels)
            report = ad.check_gradients(lambda p: objective(p)[0], weights.params)
            ok &= _report(f"{kind} {trainer} objective gradients", report.ok, repr(report), verbose)

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
