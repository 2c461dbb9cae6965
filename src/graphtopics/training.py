"""Hybrid trainers: gradient steps on the encoder, sampling on the decoder.

Both trainers alternate, per iteration, a reparameterized-gradient ascent
step on the encoder weights and log importance weights with conjugate
resampling of the topic matrices and scales.  The full-batch variant sees
every node and edge; the scalable one works on an importance-sampled node
subset, debiases the subgraph objective, and replaces the Dirichlet draw of
the topic matrices with a preconditioned stochastic-gradient MCMC step on
the simplex.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from . import encoders as enc
from .decoder import (
    DecoderHyper,
    DecoderState,
    THETA_FLOOR,
    augment_edge_counts,
    augment_node_counts,
    edge_count_aggregates,
    init_decoder_state,
    propagate_counts_upward,
    update_phi_gibbs,
    update_scales,
)
from .graph_data import AdjacencyGraph, normalize_adjacency
from .stochastic import RngStream, _gen

# stream phases, so every draw is addressable as (seed, phase, iteration, ...)
_PH_INIT, _PH_THETA, _PH_ATTN, _PH_GIBBS, _PH_SUBSET, _PH_SGLD = range(6)

# edge-augmentation rate cap inside the hybrid loop: beyond this the edge
# probability is 1 to machine precision, but the raw count would stall the
# exact CRT propagation when encoder samples transiently explode
EDGE_RATE_CAP = 200.0


def _row_normalize(mat):
    """L1-normalize the rows of a sparse matrix (zero rows left alone)."""
    totals = np.asarray(mat.sum(axis=1)).ravel()
    inv = np.where(totals > 0, 1.0 / np.maximum(totals, 1e-300), 0.0)
    return sp.diags(inv) @ mat


class TrainingAborted(RuntimeError):
    """Raised when the objective turns non-finite; carries the last state."""

    def __init__(self, message, state=None, weights=None):
        super().__init__(message)
        self.state = state
        self.weights = weights


@dataclass
class TrainConfig:
    """Everything a run needs; mirrors the config-file schema."""

    widths: tuple = (16, 16, 16)
    beta: float = 1.0
    learning_rate: float = 1e-3
    iterations: int = 200
    trainer: str = "full_batch"  # or "scalable"
    minibatch_nodes: int = 100
    subsample_mix: float = 1.0  # k in the acceptance probability
    importance_exponent: float = 1.0
    seed: int = 0
    encoder: str = "conv"  # or "attention"
    heads: int = 4
    k_att: float = 10.0
    tau_adjacency: float = 0.5
    tau_topic: float = 1.5
    tau_link: float = 0.01
    eta: float = 0.01
    normalize_features: bool = True  # row-normalize the encoder input (decoder sees raw counts)
    kl_rate_fixed: float | None = 1.0  # None: use the decoder's sampled scales
    debias: str = "endpoint-product"  # or "none"
    recon_weight: float = 1.0  # weight of the generative objective inside the supervised loss
    softmax_of_log: bool = False
    log_every: int = 1

    def validate(self, num_nodes=None):
        if any(k <= 0 for k in self.widths):
            raise ValueError("layer widths must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if not 0.0 <= self.subsample_mix <= 1.0:
            raise ValueError("subsample_mix must lie in [0, 1]")
        if self.importance_exponent < 0:
            raise ValueError("importance_exponent must be nonnegative")
        if self.trainer not in ("full_batch", "scalable"):
            raise ValueError(f"unknown trainer {self.trainer!r}")
        if self.encoder not in ("conv", "attention"):
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.debias not in ("endpoint-product", "none"):
            raise ValueError(f"unknown debias mode {self.debias!r}")
        if (
            self.trainer == "scalable"
            and num_nodes is not None
            and self.minibatch_nodes > num_nodes
        ):
            raise ValueError("minibatch_nodes exceeds the number of nodes")
        return self


@dataclass
class TrainResult:
    state: DecoderState
    weights: enc.EncoderWeights
    log: list
    wall_time: float
    config: TrainConfig


class AdamOptimizer:
    """Adaptive-moment ascent on a named parameter dict."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.t = {}, {}, 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            params[name] += self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def node_sampling_table(importance, mix, exponent):
    """Importance node-sampling table, built once per run: the acceptance
    probabilities ``p`` and their normalized cumulative sum ``cdf``.

    ``q_i = f_i^a / sum f^a`` and the acceptance probability mixes importance
    with its complement: ``p_i = mix q_i + (1-mix)(1-q_i)/(N-1)``; the
    probabilities sum to one exactly.  Returns (p, cdf).
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix must lie in [0, 1]")
    f = np.asarray(importance, dtype=np.float64)
    n = len(f)
    if n < 2:
        raise ValueError("need at least two nodes")
    if np.any(f < 0) or not np.any(f > 0):
        raise ValueError("importance must be nonnegative and not all zero")
    fa = np.power(f, exponent)
    q = fa / fa.sum()
    p = mix * q + (1.0 - mix) * (1.0 - q) / (n - 1)
    p = p / p.sum()  # exact to rounding; renormalize for the sampler
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return p, cdf


def sample_node_subset(cdf, size, rng):
    """Multiset of ``size`` node indices drawn with replacement.

    Inverse-CDF search on uniform draws: the arithmetic of
    ``Generator.choice(N, size, replace=True, p=p)`` for the ``cdf`` of
    ``p``, so the draws are the same, without its O(N) work per call.
    """
    return cdf.searchsorted(_gen(rng).random(size), side="right")


@dataclass
class SgmcmcState:
    """Per-layer preconditioner and step schedule for the simplex sampler."""

    m: np.ndarray
    step: int = 0
    eps0: float = 1.0
    tau0: float = 20.0
    kappa: float = 0.7
    smooth: float = 0.9

    def step_size(self):
        return self.eps0 * (self.tau0 + self.step) ** (-self.kappa)


def sgmcmc_update_phi(phi, word_topic, sg, eta, rho, rng, with_noise=True):
    """Preconditioned SG-MCMC step on one topic matrix, column-simplex kept.

    The drift pushes each column toward the minibatch Dirichlet posterior
    mean (scaled to the population by ``rho``), the injected noise has
    covariance ``2 eps/M diag(phi)``, and the result is floored and
    renormalized back onto the simplex.  ``with_noise=False`` exposes the
    bare drift for fixed-point checks.
    """
    g = _gen(rng)
    v_size, k = phi.shape
    col_tot = word_topic.sum(axis=0)
    target = rho * col_tot + eta * v_size
    if sg.step == 0:
        sg.m = np.maximum(target, 1e-6)
    else:
        sg.m = np.maximum(sg.smooth * sg.m + (1 - sg.smooth) * target, 1e-6)
    eps_i = sg.step_size()
    out = phi + (eps_i / sg.m[None, :]) * ((rho * word_topic + eta) - target[None, :] * phi)
    if with_noise:
        out = out + g.normal(size=phi.shape) * np.sqrt(2.0 * eps_i * phi / sg.m[None, :])
    out = np.maximum(out, 1e-30)
    sg.step += 1
    return out / out.sum(axis=0, keepdims=True)


def _kl_rates(config, state, nodes=None):
    t_count = len(config.widths)
    if config.kl_rate_fixed is not None:
        return [float(config.kl_rate_fixed)] * t_count
    rates = []
    for l in range(t_count):
        c = state.c[l + 2]
        rates.append((c if nodes is None else c[nodes])[:, None])
    return rates


def _forward(params_t, weights, batch, noise_theta, noise_attn, phis, gamma0):
    if weights.kind == "conv":
        out = enc.conv_forward(params_t, batch["x_rows"], batch["a_norm"], weights.widths)
    else:
        out = enc.attention_forward(
            params_t,
            batch["x_rows"],
            batch["attn_src"],
            batch["attn_dst"],
            weights.widths,
            weights.heads,
            weights.k_att,
            noise_attn,
            slope=weights.leaky_slope,
            softmax_of_log=weights.softmax_of_log,
            num_nodes=batch["num_nodes"],
        )
    return enc.sample_theta_stack(out, phis, gamma0, noise_theta)


def _objective(params_t, weights, batch, noise_theta, noise_attn, state, config, labels):
    phis, gamma0 = state.phis, state.gamma0
    thetas, shapes, lams = _forward(params_t, weights, batch, noise_theta, noise_attn, phis, gamma0)
    t_count = len(weights.widths)
    us = [ad.exp(params_t[f"log_u_{t}"]) for t in range(1, t_count + 1)]
    total, parts = enc.elbo(
        batch["x_csc"],
        batch["edges"],
        batch["num_nodes"],
        thetas,
        shapes,
        lams,
        phis,
        us,
        gamma0,
        batch["kl_rates"],
        config.beta,
        node_weights=batch.get("node_w"),
        edge_node_weights=batch.get("edge_w_nodes"),
    )
    if labels is not None and "cls_w" in params_t:
        total, label_ll = enc.supervised_loss(
            total, thetas[0], params_t["cls_w"], params_t["cls_b"], labels,
            recon_weight=config.recon_weight,
        )
        parts["label_ll"] = label_ll
    return total, parts, thetas


def _decoder_refresh(state, x_csc, edges, theta_values, us, rng, phi_mode,
                     sg_states=None, rho=1.0, nodes=None):
    """Conjugate updates around encoder-sampled proportions.

    Places the sampled thetas/importance weights into the decoder, augments
    counts, then resamples every topic matrix (Dirichlet draw or SG-MCMC
    step) and the per-node scales.  With ``nodes`` set, only those columns
    of the scale arrays are refreshed (minibatch mode).
    """
    t_count = state.depth
    thetas = [np.maximum(tv.T, THETA_FLOOR) for tv in theta_values]

    if nodes is None:
        state.thetas = thetas
        local = state
    else:
        local = DecoderState(
            widths=list(state.widths),
            vocab_size=state.vocab_size,
            num_nodes=len(nodes),
            phis=state.phis,
            thetas=thetas,
            us=us,
            c=state.c[:, nodes].copy(),
            p=state.p[:, nodes].copy(),
            gamma0=state.gamma0,
            hyper=state.hyper,
        )
    local.us = us

    _, splits = augment_edge_counts(
        edges, local.us, local.thetas, rng, rate_cap=EDGE_RATE_CAP
    )
    edge_node, _ = edge_count_aggregates(edges, splits, local.num_nodes)

    word_topic = [None] * t_count
    layer_x = x_csc
    for l in range(t_count):
        word_topic[l], node_topic = augment_node_counts(layer_x, local.phis[l], local.thetas[l], rng)
        if l + 1 < t_count:
            layer_x = propagate_counts_upward(
                node_topic + edge_node[l], local.phis[l + 1], local.thetas[l + 1], rng
            )

    for l in range(t_count):
        if phi_mode == "gibbs":
            state.phis[l] = update_phi_gibbs(word_topic[l], state.hyper.eta_for(l + 1), rng)
        else:
            state.phis[l] = sgmcmc_update_phi(
                state.phis[l], word_topic[l], sg_states[l], state.hyper.eta_for(l + 1), rho, rng
            )
    local.phis = state.phis

    update_scales(local, rng)
    if nodes is not None:
        state.c[:, nodes] = local.c
        state.p[:, nodes] = local.p
    return local


def _init_run(x, graph, config, labels):
    config.validate(num_nodes=x.num_nodes)
    rng = RngStream(config.seed)
    hyper = DecoderHyper(eta=(config.eta,))
    state = init_decoder_state(
        list(config.widths), x.vocab_size, x.num_nodes, hyper, rng.derive(_PH_INIT, 0)
    )
    num_classes = None
    if labels is not None:
        num_classes = labels.num_classes
    weights = enc.init_encoder_weights(
        config.encoder,
        x.vocab_size,
        list(config.widths),
        rng.derive(_PH_INIT, 1),
        heads=config.heads,
        k_att=config.k_att,
        num_classes=num_classes,
        softmax_of_log=config.softmax_of_log,
    )
    return rng, state, weights


def _grad_step(optimizer, weights, batch, noise_theta, noise_attn, state, config, labels):
    params_t = {k: ad.Tensor(v) for k, v in weights.params.items()}
    total, parts, _ = _objective(params_t, weights, batch, noise_theta, noise_attn, state, config, labels)
    if not np.isfinite(total.value):
        raise TrainingAborted("non-finite objective", state=state, weights=weights)
    ad.backward(total)
    grads = {k: t.grad for k, t in params_t.items() if t.grad is not None}
    optimizer.step(weights.params, grads)
    return float(total.value), parts


def _sample_thetas(weights, batch, noise_theta, noise_attn, state):
    params_t = {k: ad.Tensor(v) for k, v in weights.params.items()}
    thetas, _, _ = _forward(params_t, weights, batch, noise_theta, noise_attn, state.phis, state.gamma0)
    return [t.value for t in thetas]


def train_full_batch(x, graph, config, labels=None, eval_hook=None):
    """End-to-end training on the whole graph (gradient + Gibbs per iteration)."""
    rng, state, weights = _init_run(x, graph, config, labels)
    x_csc = x.to_csc()
    x_rows = x.node_major()
    batch = {
        "x_csc": x_csc,
        "x_rows": _row_normalize(x_rows) if config.normalize_features else x_rows,
        "edges": graph.edges,
        "num_nodes": x.num_nodes,
    }
    if config.encoder == "conv":
        batch["a_norm"] = normalize_adjacency(graph, add_self_loops=True).matrix
    else:
        batch["attn_src"], batch["attn_dst"] = enc.attention_edge_arrays(graph)
    label_arr = labels.labels if labels is not None else None

    optimizer = AdamOptimizer(lr=config.learning_rate)
    log = []
    start = time.perf_counter()
    hook_cost = 0.0
    for it in range(config.iterations):
        t0 = time.perf_counter()
        batch["kl_rates"] = _kl_rates(config, state)
        noise_theta = enc.draw_theta_noise(rng.derive(_PH_THETA, it), x.num_nodes, config.widths)
        noise_attn = None
        if config.encoder == "attention":
            noise_attn = enc.draw_attention_noise(
                rng.derive(_PH_ATTN, it), len(batch["attn_src"]), config.heads, len(config.widths)
            )
        value, parts = _grad_step(
            optimizer, weights, batch, noise_theta, noise_attn, state, config, label_arr
        )
        theta_values = _sample_thetas(weights, batch, noise_theta, noise_attn, state)
        _decoder_refresh(
            state, x_csc, graph.edges, theta_values, weights.u_values(),
            rng.derive(_PH_GIBBS, it), "gibbs",
        )
        state.iteration = it + 1
        if it % config.log_every == 0 or it == config.iterations - 1:
            log.append({"iteration": it, "elbo": value, **parts,
                        "wall_time": time.perf_counter() - t0})
        if eval_hook is not None:
            h0 = time.perf_counter()
            eval_hook(it, state, weights, h0 - start - hook_cost)
            hook_cost += time.perf_counter() - h0
    return TrainResult(state, weights, log, time.perf_counter() - start - hook_cost, config)


def _subgraph_batch(x_rows_full, graph, nodes, p, counts, config):
    """Induced-subgraph batch with debiasing weights."""
    n_s = config.minibatch_nodes
    n = graph.num_nodes
    sub = graph.subgraph(nodes)
    x_rows = x_rows_full[nodes].tocsr()
    batch = {
        "x_csc": x_rows.T.tocsc(),
        "x_rows": _row_normalize(x_rows) if config.normalize_features else x_rows,
        "edges": sub.edges,
        "num_nodes": len(nodes),
    }
    if config.debias == "endpoint-product":
        batch["node_w"] = counts / (n_s * p[nodes])
        # pair weight 1/(pi_i pi_j) with pi the multiset inclusion probability;
        # reduces to the linearized 1/(N_s^2 p_i p_j) when every p is small
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


def train_scalable(x, graph, config, labels=None, eval_hook=None):
    """Minibatch training: importance node subsets, debiased subgraph
    objective, and SG-MCMC topic updates scaled back to the population."""
    rng, state, weights = _init_run(x, graph, config, labels)
    p, cdf = node_sampling_table(
        graph.degrees().astype(np.float64), config.subsample_mix, config.importance_exponent
    )
    x_rows_full = x.node_major()
    label_arr_full = labels.labels if labels is not None else None
    rho = x.num_nodes / config.minibatch_nodes
    sg_states = [SgmcmcState(m=np.ones(k)) for k in config.widths]

    optimizer = AdamOptimizer(lr=config.learning_rate)
    log = []
    start = time.perf_counter()
    hook_cost = 0.0
    for it in range(config.iterations):
        t0 = time.perf_counter()
        multiset = sample_node_subset(cdf, config.minibatch_nodes, rng.derive(_PH_SUBSET, it))
        nodes, counts = np.unique(multiset, return_counts=True)
        batch, sub = _subgraph_batch(x_rows_full, graph, nodes, p, counts, config)
        batch["kl_rates"] = _kl_rates(config, state, nodes=nodes)
        skipped_edges = len(sub.edges) == 0

        noise_theta = enc.draw_theta_noise(rng.derive(_PH_THETA, it), len(nodes), config.widths)
        noise_attn = None
        if config.encoder == "attention":
            noise_attn = enc.draw_attention_noise(
                rng.derive(_PH_ATTN, it), len(batch["attn_src"]), config.heads, len(config.widths)
            )
        labels_local = label_arr_full[nodes] if label_arr_full is not None else None
        value, parts = _grad_step(
            optimizer, weights, batch, noise_theta, noise_attn, state, config, labels_local
        )
        theta_values = _sample_thetas(weights, batch, noise_theta, noise_attn, state)
        _decoder_refresh(
            state, batch["x_csc"], sub.edges, theta_values, weights.u_values(),
            rng.derive(_PH_SGLD, it), "sgmcmc", sg_states=sg_states, rho=rho, nodes=nodes,
        )
        state.iteration = it + 1
        if it % config.log_every == 0 or it == config.iterations - 1:
            rec = {"iteration": it, "elbo": value, **parts,
                   "wall_time": time.perf_counter() - t0}
            if skipped_edges:
                rec["edge_term_skipped"] = True
            log.append(rec)
        if eval_hook is not None:
            h0 = time.perf_counter()
            eval_hook(it, state, weights, h0 - start - hook_cost)
            hook_cost += time.perf_counter() - h0
    return TrainResult(state, weights, log, time.perf_counter() - start - hook_cost, config)


def encode_posterior_means(weights, x, graph, state, normalize_features=True):
    """Deterministic posterior-mean proportions for a trained model.

    Runs the encoder without sampling (mean attention for the attention
    variant) and pushes Weibull means down the stack.  Returns a list of
    (N, K_t) arrays.
    """
    params_t = {k: ad.Tensor(v) for k, v in weights.params.items()}
    x_rows = x.node_major()
    if normalize_features:
        x_rows = _row_normalize(x_rows)
    if weights.kind == "conv":
        a_norm = normalize_adjacency(graph, add_self_loops=True).matrix
        out = enc.conv_forward(params_t, x_rows, a_norm, weights.widths)
    else:
        src, dst = enc.attention_edge_arrays(graph)
        out = enc.attention_forward(
            params_t, x_rows, src, dst, weights.widths, weights.heads, weights.k_att,
            None, slope=weights.leaky_slope, softmax_of_log=weights.softmax_of_log,
            num_nodes=x.num_nodes,
        )
    k_values = [t.value for t in out.k_raw]
    lam_values = [t.value for t in out.lam]
    return enc.posterior_mean_thetas(k_values, lam_values, state.phis, state.gamma0)
