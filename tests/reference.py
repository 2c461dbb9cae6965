"""Loop and brute-force implementations that the vectorized program paths
must match bit for bit: node-sampling probabilities and draws, the induced
subgraph by a scan over every edge, and non-edge sampling one pair at a time.

Also the two separate hybrid training loops and the Gibbs sweep with its own
count-augmentation chain, as they were before the trainers shared one loop
and the sweep and the hybrid refresh shared one chain.
"""

import math
import time

import numpy as np

import graphtopics.autodiff as ad
import graphtopics.decoder as dec
import graphtopics.encoders as enc
import graphtopics.training as tr
from graphtopics.graph_data import AdjacencyGraph, normalize_adjacency
from graphtopics.stochastic import _gen


def acceptance_probabilities(importance, mix, exponent):
    f = np.asarray(importance, dtype=np.float64)
    fa = np.power(f, exponent)
    q = fa / fa.sum()
    p = mix * q + (1.0 - mix) * (1.0 - q) / (len(f) - 1)
    return p / p.sum()


def choice_draw(p, size, rng):
    return _gen(rng).choice(len(p), size=size, replace=True, p=p)


def scan_subgraph(graph, nodes):
    """Induced subgraph by mapping both endpoints of every edge."""
    nodes = np.asarray(nodes, dtype=np.int64)
    pos = -np.ones(graph.num_nodes, dtype=np.int64)
    pos[nodes] = np.arange(len(nodes))
    i, j = pos[graph.edges[:, 0]], pos[graph.edges[:, 1]]
    keep = (i >= 0) & (j >= 0)
    if not np.any(keep):
        return AdjacencyGraph(len(nodes), np.zeros((0, 2), np.int64), np.zeros(0, np.int64))
    return AdjacencyGraph.from_pairs(
        len(nodes), np.column_stack([i[keep], j[keep]]), graph.values[keep]
    )


def loop_nonedges(num_nodes, present_keys, count, rng):
    """Absent pairs accepted one at a time against Python sets."""
    present_keys = set(int(k) for k in present_keys)
    chosen = []
    seen = set()
    while len(chosen) < count:
        need = max(count - len(chosen), 16)
        i = rng.integers(0, num_nodes, size=2 * need)
        j = rng.integers(0, num_nodes, size=2 * need)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        ok = lo != hi
        for a, b in zip(lo[ok], hi[ok]):
            key = int(a) * num_nodes + int(b)
            if key in present_keys or key in seen:
                continue
            seen.add(key)
            chosen.append((int(a), int(b)))
            if len(chosen) == count:
                break
    return np.asarray(chosen, dtype=np.int64).reshape(count, 2)


# -- training before the shared loop ----------------------------------------


def _forward(params_t, weights, batch, noise_theta, noise_attn, phis, gamma0):
    if weights.kind == "conv":
        out = enc.conv_forward(params_t, batch["x_rows"], batch["a_norm"], weights.widths)
    else:
        out = enc.attention_forward(
            params_t, batch["x_rows"], batch["attn_src"], batch["attn_dst"], weights.widths,
            weights.heads, weights.k_att, noise_attn, slope=weights.leaky_slope,
            softmax_of_log=weights.softmax_of_log, num_nodes=batch["num_nodes"],
        )
    return enc.sample_theta_stack(out, phis, gamma0, noise_theta)


def _objective(params_t, weights, batch, noise_theta, noise_attn, state, config, labels):
    phis, gamma0 = state.phis, state.gamma0
    thetas, shapes, lams = _forward(params_t, weights, batch, noise_theta, noise_attn, phis, gamma0)
    us = [ad.exp(params_t[f"log_u_{t}"]) for t in range(1, len(weights.widths) + 1)]
    total, parts = enc.elbo(
        batch["x_csc"], batch["edges"], batch["num_nodes"], thetas, shapes, lams, phis, us,
        gamma0, batch["kl_rates"], config.beta, node_weights=batch.get("node_w"),
        edge_node_weights=batch.get("edge_w_nodes"),
    )
    if labels is not None and "cls_w" in params_t:
        total, label_ll = enc.supervised_loss(
            total, thetas[0], params_t["cls_w"], params_t["cls_b"], labels,
            recon_weight=config.recon_weight,
        )
        parts["label_ll"] = label_ll
    return total, parts


def _grad_step(optimizer, weights, batch, noise_theta, noise_attn, state, config, labels):
    params_t = {k: ad.Tensor(v) for k, v in weights.params.items()}
    total, parts = _objective(params_t, weights, batch, noise_theta, noise_attn, state, config, labels)
    ad.backward(total)
    grads = {k: t.grad for k, t in params_t.items() if t.grad is not None}
    optimizer.step(weights.params, grads)
    return float(total.value), parts


def _sample_thetas(weights, batch, noise_theta, noise_attn, state):
    params_t = {k: ad.Tensor(v) for k, v in weights.params.items()}
    thetas, _, _ = _forward(params_t, weights, batch, noise_theta, noise_attn, state.phis, state.gamma0)
    return [t.value for t in thetas]


def _decoder_refresh(state, x_csc, edges, theta_values, us, rng, phi_mode,
                     sg_states=None, rho=1.0, nodes=None):
    t_count = state.depth
    thetas = [np.maximum(tv.T, dec.THETA_FLOOR) for tv in theta_values]
    if nodes is None:
        state.thetas = thetas
        local = state
    else:
        local = dec.DecoderState(
            widths=list(state.widths), vocab_size=state.vocab_size, num_nodes=len(nodes),
            phis=state.phis, thetas=thetas, us=us, c=state.c[:, nodes].copy(),
            p=state.p[:, nodes].copy(), gamma0=state.gamma0, hyper=state.hyper,
        )
    local.us = us
    _, splits = dec.augment_edge_counts(edges, local.us, local.thetas, rng, rate_cap=tr.EDGE_RATE_CAP)
    edge_node, _ = dec.edge_count_aggregates(edges, splits, local.num_nodes)
    word_topic = [None] * t_count
    layer_x = x_csc
    for l in range(t_count):
        word_topic[l], node_topic = dec.augment_node_counts(layer_x, local.phis[l], local.thetas[l], rng)
        if l + 1 < t_count:
            layer_x = dec.propagate_counts_upward(
                node_topic + edge_node[l], local.phis[l + 1], local.thetas[l + 1], rng
            )
    for l in range(t_count):
        if phi_mode == "gibbs":
            state.phis[l] = dec.update_phi_gibbs(word_topic[l], state.hyper.eta_for(l + 1), rng)
        else:
            state.phis[l] = tr.sgmcmc_update_phi(
                state.phis[l], word_topic[l], sg_states[l], state.hyper.eta_for(l + 1), rho, rng
            )
    dec.update_scales(local, rng)
    if nodes is not None:
        state.c[:, nodes] = local.c
        state.p[:, nodes] = local.p


def train_full_batch(x, graph, config, labels=None):
    rng, state, weights = tr._init_run(x, config, labels)
    x_csc = x.to_csc()
    x_rows = x.node_major()
    batch = {
        "x_csc": x_csc,
        "x_rows": tr._row_normalize(x_rows) if config.normalize_features else x_rows,
        "edges": graph.edges,
        "num_nodes": x.num_nodes,
    }
    if config.encoder == "conv":
        batch["a_norm"] = normalize_adjacency(graph, add_self_loops=True).matrix
    else:
        batch["attn_src"], batch["attn_dst"] = enc.attention_edge_arrays(graph)
    label_arr = labels.labels if labels is not None else None
    optimizer = tr.AdamOptimizer(lr=config.learning_rate)
    log = []
    for it in range(config.iterations):
        t0 = time.perf_counter()
        batch["kl_rates"] = tr._kl_rates(config, state)
        noise_theta = enc.draw_theta_noise(rng.derive(tr._PH_THETA, it), x.num_nodes, config.widths)
        noise_attn = None
        if config.encoder == "attention":
            noise_attn = enc.draw_attention_noise(
                rng.derive(tr._PH_ATTN, it), len(batch["attn_src"]), config.heads, len(config.widths)
            )
        value, parts = _grad_step(optimizer, weights, batch, noise_theta, noise_attn, state, config, label_arr)
        theta_values = _sample_thetas(weights, batch, noise_theta, noise_attn, state)
        _decoder_refresh(
            state, x_csc, graph.edges, theta_values, weights.u_values(),
            rng.derive(tr._PH_GIBBS, it), "gibbs",
        )
        state.iteration = it + 1
        if it % config.log_every == 0 or it == config.iterations - 1:
            log.append({"iteration": it, "elbo": value, **parts,
                        "wall_time": time.perf_counter() - t0})
    return tr.TrainResult(state, weights, log, 0.0, config)


def _subgraph_batch(x_rows_full, graph, nodes, p, counts, config):
    n_s = config.minibatch_nodes
    n = graph.num_nodes
    sub = graph.subgraph(nodes)
    x_rows = x_rows_full[nodes].tocsr()
    batch = {
        "x_csc": x_rows.T.tocsc(),
        "x_rows": tr._row_normalize(x_rows) if config.normalize_features else x_rows,
        "edges": sub.edges,
        "num_nodes": len(nodes),
    }
    if config.debias == "endpoint-product":
        batch["node_w"] = counts / (n_s * p[nodes])
        inclusion = -np.expm1(n_s * np.log1p(-np.minimum(p[nodes], 1.0 - 1e-12)))
        batch["edge_w_nodes"] = 1.0 / inclusion
    else:
        rho = n / n_s
        batch["node_w"] = np.full(len(nodes), rho) * counts
        pair_scale = math.sqrt((n * (n - 1.0)) / (n_s * (n_s - 1.0)))
        batch["edge_w_nodes"] = np.full(len(nodes), pair_scale)
    if config.encoder == "conv":
        batch["a_norm"] = normalize_adjacency(sub, add_self_loops=True).matrix
    else:
        batch["attn_src"], batch["attn_dst"] = enc.attention_edge_arrays(sub)
    return batch, sub


def train_scalable(x, graph, config, labels=None):
    rng, state, weights = tr._init_run(x, config, labels)
    p, cdf = tr.node_sampling_table(
        graph.degrees().astype(np.float64), config.subsample_mix, config.importance_exponent
    )
    x_rows_full = x.node_major()
    label_arr_full = labels.labels if labels is not None else None
    rho = x.num_nodes / config.minibatch_nodes
    sg_states = [tr.SgmcmcState(m=np.ones(k)) for k in config.widths]
    optimizer = tr.AdamOptimizer(lr=config.learning_rate)
    log = []
    for it in range(config.iterations):
        t0 = time.perf_counter()
        multiset = tr.sample_node_subset(cdf, config.minibatch_nodes, rng.derive(tr._PH_SUBSET, it))
        nodes, counts = np.unique(multiset, return_counts=True)
        batch, sub = _subgraph_batch(x_rows_full, graph, nodes, p, counts, config)
        batch["kl_rates"] = tr._kl_rates(config, state, nodes=nodes)
        skipped_edges = len(sub.edges) == 0
        noise_theta = enc.draw_theta_noise(rng.derive(tr._PH_THETA, it), len(nodes), config.widths)
        noise_attn = None
        if config.encoder == "attention":
            noise_attn = enc.draw_attention_noise(
                rng.derive(tr._PH_ATTN, it), len(batch["attn_src"]), config.heads, len(config.widths)
            )
        labels_local = label_arr_full[nodes] if label_arr_full is not None else None
        value, parts = _grad_step(optimizer, weights, batch, noise_theta, noise_attn, state, config, labels_local)
        theta_values = _sample_thetas(weights, batch, noise_theta, noise_attn, state)
        _decoder_refresh(
            state, batch["x_csc"], sub.edges, theta_values, weights.u_values(),
            rng.derive(tr._PH_SGLD, it), "sgmcmc", sg_states=sg_states, rho=rho, nodes=nodes,
        )
        state.iteration = it + 1
        if it % config.log_every == 0 or it == config.iterations - 1:
            rec = {"iteration": it, "elbo": value, **parts, "wall_time": time.perf_counter() - t0}
            if skipped_edges:
                rec["edge_term_skipped"] = True
            log.append(rec)
    return tr.TrainResult(state, weights, log, 0.0, config)


def gibbs_sweep(state, x, edges, rng, exact_scan=False, edge_values=None, update_u=True):
    """The Gibbs sweep with its augmentation chain written out inline."""
    t_count = state.depth
    word_topic = [None] * t_count
    node_topic = [None] * t_count
    _, edge_splits = dec.augment_edge_counts(edges, state.us, state.thetas, rng, edge_values)
    edge_node, edge_topic = dec.edge_count_aggregates(edges, edge_splits, state.num_nodes)
    layer_x = x
    for l in range(t_count):
        word_topic[l], node_topic[l] = dec.augment_node_counts(layer_x, state.phis[l], state.thetas[l], rng)
        if l + 1 < t_count:
            layer_x = dec.propagate_counts_upward(
                node_topic[l] + edge_node[l], state.phis[l + 1], state.thetas[l + 1], rng
            )
    for l in range(t_count):
        state.phis[l] = dec.update_phi_gibbs(word_topic[l], state.hyper.eta_for(l + 1), rng)
    for l in range(t_count - 1, -1, -1):
        if l == t_count - 1:
            prior_shape = np.broadcast_to(state.gamma0[:, None], state.thetas[l].shape)
        else:
            prior_shape = state.phis[l + 1] @ state.thetas[l + 1]
        state.thetas[l] = dec.update_theta_gibbs(
            node_topic[l], edge_node[l], prior_shape, state.p[l + 1], state.c[l + 2],
            state.us[l], state.thetas[l], rng, exact_scan=exact_scan,
        )
    if update_u:
        for l in range(t_count):
            state.us[l] = dec.update_u_gibbs(
                edge_topic[l], state.thetas[l], state.hyper.alpha0, state.hyper.beta0, rng
            )
    dec.update_scales(state, rng)
    state.iteration += 1
    return state
