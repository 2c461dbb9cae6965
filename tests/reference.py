"""Loop and brute-force implementations that the vectorized program paths
must match bit for bit: node-sampling probabilities and draws, the induced
subgraph by a scan over every edge, and non-edge sampling one pair at a time.

Also the two separate hybrid training loops and the Gibbs sweep with its own
count-augmentation chain, as they were before the trainers shared one loop
and the sweep and the hybrid refresh shared one chain, and the numpy
posterior means that evaluation used before it ran the trainer's θ stack.

And the paths that fused primitives replaced: the attention aggregation
composed of a segment softmax, a row gather, a product and a segment sum,
the count splits that built dense per-row arrays, and the per-node edge-count
sums scattered once per endpoint.  Plus the dense N x N cosine similarity
that the row-block graph build replaced.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

import graphtopics.autodiff as ad
import graphtopics.decoder as dec
import graphtopics.encoders as enc
import graphtopics.training as tr
from graphtopics._scatter import scatter_rows
from graphtopics.graph_data import AdjacencyGraph, normalize_adjacency
from graphtopics.stochastic import _gen, sample_truncated_poisson


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
            softmax_of_log=weights.softmax_of_log,
        )
    return enc.sample_theta_stack(out, phis, gamma0, noise_theta)


def _objective(params_t, weights, batch, noise_theta, noise_attn, state, config, labels):
    phis, gamma0 = state.phis, state.gamma0
    thetas, shapes, lams = _forward(params_t, weights, batch, noise_theta, noise_attn, phis, gamma0)
    us = [ad.exp(params_t[f"log_u_{t}"]) for t in range(1, len(weights.widths) + 1)]
    ones = np.ones(batch["num_nodes"])
    total, parts = enc.elbo(
        batch["x_csc"], batch["edges"], thetas, shapes, lams, phis, us,
        gamma0, batch["kl_rates"], config.beta, batch.get("node_w", ones),
        batch.get("edge_w_nodes", ones),
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
            phis=state.phis, thetas=thetas, us=us, c=state.c[:, nodes].copy(), hyper=state.hyper
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
        for l in range(t_count):
            state.thetas[l][:, nodes] = thetas[l]
        state.us = us


def train_full_batch(x, graph, config, labels=None):
    rng, state, weights = tr._init_run(x, config, labels)
    x_csc = x.to_csc()
    x_rows = x.node_major()
    batch = {
        "x_csc": x_csc,
        "x_rows": tr._row_normalize(x_rows),
        "edges": graph.edges,
        "num_nodes": x.num_nodes,
    }
    if config.encoder == "conv":
        batch["a_norm"] = normalize_adjacency(graph)
    else:
        batch["attn_src"], batch["attn_dst"] = enc.attention_edge_arrays(graph)
    label_arr = labels.labels if labels is not None else None
    optimizer = tr.AdamOptimizer(lr=config.learning_rate)
    log = []
    for it in range(config.iterations):
        t0 = time.perf_counter()
        batch["kl_rates"] = tr._kl_rates(config, state, np.arange(x.num_nodes))
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
        log.append({"iteration": it, "elbo": value, **parts,
                    "wall_time": time.perf_counter() - t0})
    return tr.TrainResult(state, weights, log, 0.0)


def _subgraph_batch(x_rows_full, graph, nodes, p, counts, config):
    n_s = config.minibatch_nodes
    sub = graph.subgraph(nodes)
    x_rows = x_rows_full[nodes].tocsr()
    batch = {
        "x_csc": x_rows.T.tocsc(),
        "x_rows": tr._row_normalize(x_rows),
        "edges": sub.edges,
        "num_nodes": len(nodes),
    }
    batch["node_w"] = counts / (n_s * p[nodes])
    inclusion = -np.expm1(n_s * np.log1p(-np.minimum(p[nodes], 1.0 - 1e-12)))
    batch["edge_w_nodes"] = 1.0 / inclusion
    if config.encoder == "conv":
        batch["a_norm"] = normalize_adjacency(sub)
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
        rec = {"iteration": it, "elbo": value, **parts, "wall_time": time.perf_counter() - t0}
        if skipped_edges:
            rec["edge_term_skipped"] = True
        log.append(rec)
    return tr.TrainResult(state, weights, log, 0.0)


def gibbs_sweep(state, x, edges, rng, exact_scan=False):
    """The Gibbs sweep with its augmentation chain written out inline."""
    t_count = state.depth
    word_topic = [None] * t_count
    node_topic = [None] * t_count
    _, edge_splits = dec.augment_edge_counts(edges, state.us, state.thetas, rng)
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
    for l in range(t_count):
        state.us[l] = dec.update_u_gibbs(
            edge_topic[l], state.thetas[l], state.hyper.alpha0, state.hyper.beta0, rng
        )
    dec.update_scales(state, rng)
    state.iteration += 1
    return state


def posterior_mean_thetas(k_values, lam_values, phis, gamma0):
    """Deterministic posterior means, deepest layer first: the Weibull mean
    ``λ Γ(1 + 1/shape)`` with the prior addend evaluated at the means."""
    t_count = len(k_values)
    means = [None] * t_count
    for l in range(t_count - 1, -1, -1):
        if l == t_count - 1:
            addend = np.broadcast_to(np.asarray(gamma0, float)[None, :], k_values[l].shape)
        else:
            addend = means[l + 1] @ phis[l + 1].T
        shape = np.maximum(k_values[l] + addend, enc.SHAPE_FLOOR)
        lam = np.maximum(lam_values[l], enc.SCALE_FLOOR)
        means[l] = np.minimum(lam * np.exp(gammaln(1.0 + 1.0 / shape)), enc.THETA_CEILING)
    return means


# -- attention aggregation and count splits before their fused forms --------


def segment_sum(a, seg, num_segments):
    a = ad.as_tensor(a)
    seg = np.asarray(seg, dtype=np.int64)
    out = scatter_rows(seg, a.value, num_segments).reshape((num_segments,) + a.value.shape[1:])

    def bwd(g):
        a.accumulate(g[seg])

    return ad.Tensor(out, (a,), bwd, "segment_sum")


def segment_softmax(scores, seg, num_segments):
    scores = ad.as_tensor(scores)
    seg = np.asarray(seg, dtype=np.int64)
    sizes = np.bincount(seg, minlength=num_segments)
    if np.any(sizes == 0):
        raise ValueError(f"empty neighborhood for segment {int(np.flatnonzero(sizes == 0)[0])}")
    shift = np.full((num_segments,) + scores.value.shape[1:], -np.inf)
    columns = scores.value.reshape(len(seg), -1).T
    for shift_col, col in zip(shift.reshape(num_segments, -1).T, columns):
        np.maximum.at(shift_col, seg, col)
    e = ad.exp(ad.sub(scores, shift[seg]))
    denom = segment_sum(e, seg, num_segments)
    return ad.div(e, ad.gather_rows(denom, seg))


def composed_attention_forward(params, x_rows, attn_src, attn_dst, widths, heads, k_att,
                               eps_attn, slope=0.2, softmax_of_log=False):
    """The attention encoder with each head's aggregation composed of
    segment_softmax -> gather_rows -> mul -> segment_sum."""
    n = x_rows.shape[0]
    k_raw, lam = [], []
    h = x_rows
    for t in range(1, len(widths) + 1):
        agg = None
        for c in range(heads):
            scores = enc.attention_scores(
                h, params[f"watt_{t}_{c}"], params[f"a_{t}"], attn_src, attn_dst, slope
            )
            eps = None if eps_attn is None else eps_attn[t - 1][c]
            values = enc.stochastic_attention(scores, eps, k_att, softmax_of_log=softmax_of_log)
            s_hat = segment_softmax(values, attn_src, n)
            val = ad.matmul(h, params[f"w1_{t}_{c}"])
            msg = segment_sum(ad.mul(s_hat, ad.gather_rows(val, attn_dst)), attn_src, n)
            agg = msg if agg is None else ad.add(agg, msg)
        h = ad.mul(agg, 1.0 / heads)
        k_raw.append(ad.softplus(ad.matmul(h, params[f"w2_{t}"])))
        lam.append(ad.softplus(ad.matmul(h, params[f"w3_{t}"])))
    return enc.EncoderOutput(k_raw, lam)


def dense_multinomial_rows(counts, weight_rows, rng):
    """Row-wise multinomial splits as one dense (rows, slots) count array."""
    g = _gen(rng)
    counts = np.asarray(counts, dtype=np.int64)
    w = np.asarray(weight_rows, dtype=np.float64)
    totals = w.sum(axis=1)
    bad = (totals <= 0) & (counts > 0)
    if np.any(bad):
        raise ValueError(f"zero weight row for a positive count (row {np.flatnonzero(bad)[0]})")
    out = np.zeros(w.shape, dtype=np.int64)
    ones = np.flatnonzero(counts == 1)
    if ones.size:
        w_sub = w[ones]
        cum = np.cumsum(w_sub, axis=1)
        draw = g.uniform(size=ones.size) * totals[ones]
        slot = np.minimum((draw[:, None] >= cum).sum(axis=1), w.shape[1] - 1)
        out[ones, slot] = 1
    multi = np.flatnonzero(counts >= 2)
    if multi.size:
        p = w[multi] / totals[multi][:, None]
        out[multi] = g.multinomial(counts[multi], p)
    return out


def dense_augment_node_counts(x, phi, theta, rng):
    coo = sp.coo_matrix(x)
    v_idx, j_idx, counts = coo.row, coo.col, coo.data.astype(np.int64)
    v_size, k = phi.shape
    word_topic = np.zeros((v_size, k))
    node_topic = np.zeros((k, theta.shape[1]))
    if counts.size == 0:
        return word_topic, node_topic
    weights = phi[v_idx, :] * theta[:, j_idx].T
    splits = dense_multinomial_rows(counts, weights, rng)
    word_topic += scatter_rows(v_idx, splits, v_size)
    node_topic += scatter_rows(j_idx, splits, theta.shape[1]).T
    return word_topic, node_topic


def dense_augment_edge_counts(edges, us, thetas, rng, rate_cap=None):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    widths = [th.shape[0] for th in thetas]
    n_edges = len(edges)
    m = np.zeros(n_edges, dtype=np.int64)
    out = [np.zeros((n_edges, k), dtype=np.int64) for k in widths]
    block = 16384
    for lo in range(0, n_edges, block):
        hi = min(lo + block, n_edges)
        src, dst = edges[lo:hi, 0], edges[lo:hi, 1]
        rates = np.concatenate(
            [us[l][None, :] * thetas[l][:, src].T * thetas[l][:, dst].T for l in range(len(thetas))],
            axis=1,
        )
        totals_rate = rates.sum(axis=1)
        draw_rate = totals_rate if rate_cap is None else np.minimum(totals_rate, rate_cap)
        m_blk = sample_truncated_poisson(draw_rate, rng)
        splits = dense_multinomial_rows(m_blk, rates, rng)
        m[lo:hi] = m_blk
        offset = 0
        for l, k in enumerate(widths):
            out[l][lo:hi] = splits[:, offset : offset + k]
            offset += k
    return m, out


def scatter_edge_count_aggregates(edges, edge_splits, num_nodes):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    node_tot, topic_tot = [], []
    block = 16384
    for split in edge_splits:
        k = split.shape[1]
        acc = np.zeros((num_nodes, k))
        for lo in range(0, len(edges), block):
            hi = min(lo + block, len(edges))
            acc += scatter_rows(edges[lo:hi, 0], split[lo:hi], num_nodes)
            acc += scatter_rows(edges[lo:hi, 1], split[lo:hi], num_nodes)
        node_tot.append(acc.T)
        topic_tot.append(split.sum(axis=0).astype(np.float64))
    return node_tot, topic_tot


def dense_cosine_pairs(x, tau, band=1e-9):
    """Pairs (i < j) with ``cos(x_i, x_j) >= tau`` from the dense N x N
    similarity, and the pairs within ``band`` of ``tau``, whose side the
    summation order may decide."""
    dense = x.node_major().toarray()
    unit = dense / np.sqrt((dense * dense).sum(axis=1))[:, None]
    sim = np.triu(unit @ unit.T, k=1)
    above = set(zip(*map(np.ndarray.tolist, np.nonzero(sim >= tau))))
    near = set(zip(*map(np.ndarray.tolist, np.nonzero(np.abs(sim - tau) <= band))))
    return above, near
