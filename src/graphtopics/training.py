"""Hybrid trainers: gradient steps on the encoder, sampling on the decoder.

Both trainers run one loop that alternates, per iteration, a
reparameterized-gradient ascent step on the encoder weights and log
importance weights with conjugate resampling of the topic matrices and
scales.  They differ only in the batch source and the topic update: the
full-batch variant's batch is every node and edge, with unit weights, and
it draws the topics from their Dirichlet posterior; the scalable one's
batch is the subgraph of an importance-sampled node subset, with the
weights that debias it, and it replaces the Dirichlet draw with a
preconditioned stochastic-gradient MCMC step on the simplex.  Both batch
kinds carry their node indices and weights, so the objective and the
decoder refresh have one path.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from . import encoders as enc
from .decoder import (
    DecoderHyper,
    DecoderState,
    THETA_FLOOR,
    augment_layers,
    init_decoder_state,
    update_phi_gibbs,
    update_scales,
)
# called through augment_layers; bench/spans.py still patches these names here
from .decoder import (  # noqa: F401
    augment_edge_counts,
    augment_node_counts,
    edge_count_aggregates,
    propagate_counts_upward,
)
from .graph_data import normalize_adjacency
from .stochastic import RngStream, _gen

# stream phases, so every draw is addressable as (seed, phase, iteration, ...)
_PH_INIT, _PH_THETA, _PH_ATTN, _PH_GIBBS, _PH_SUBSET, _PH_SGLD = range(6)

# edge-augmentation rate cap inside the hybrid loop: beyond this the edge
# probability is 1 to machine precision, but the raw count would stall the
# exact CRT propagation when encoder samples transiently explode
EDGE_RATE_CAP = 200.0

# Adam moment decay rates and denominator guard; SG-MCMC step size
# eps0 (tau0 + step)^-kappa and preconditioner smoothing
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_SG_EPS0, _SG_TAU0, _SG_KAPPA, _SG_SMOOTH = 1.0, 20.0, 0.7, 0.9


def _row_normalize(mat):
    """L1-normalize the rows of a sparse matrix (zero rows left alone)."""
    totals = np.asarray(mat.sum(axis=1)).ravel()
    inv = np.where(totals > 0, 1.0 / np.maximum(totals, 1e-300), 0.0)
    return sp.diags(inv) @ mat


class TrainingAborted(RuntimeError):
    """Raised when an iteration fails numerically; carries the state, the
    weights and the log records of the iterations before it."""

    def __init__(self, message, state, weights, log):
        super().__init__(message)
        self.state = state
        self.weights = weights
        self.log = log


@dataclass
class TrainConfig:
    """Everything a run needs; its fields are the training keys of a config file."""

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
    eta: float = 0.01
    kl_rate_fixed: float | None = 1.0  # None: use the decoder's sampled scales
    recon_weight: float = 1.0  # weight of the generative objective inside the supervised loss
    softmax_of_log: bool = False

    def validate(self, num_nodes=None):
        if not self.widths or any(k <= 0 for k in self.widths):
            raise ValueError("layer widths must be given and positive")
        for key in ("learning_rate", "minibatch_nodes", "heads", "k_att", "eta"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")
        for key in ("beta", "importance_exponent", "iterations"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be nonnegative")
        if not 0.0 <= self.subsample_mix <= 1.0:
            raise ValueError("subsample_mix must lie in [0, 1]")
        if self.trainer not in ("full_batch", "scalable"):
            raise ValueError(f"unknown trainer {self.trainer!r}")
        if self.encoder not in ("conv", "attention"):
            raise ValueError(f"unknown encoder {self.encoder!r}")
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


@dataclass
class AdamOptimizer:
    """Adaptive-moment ascent on a named parameter dict.  A step updates the
    parameter arrays in place and replaces the moment arrays, so a step on
    copied parameters and shallow copies of the moment dicts leaves the
    originals as they were."""

    lr: float
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            params[name] += self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


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

    def step_size(self):
        return _SG_EPS0 * (_SG_TAU0 + self.step) ** (-_SG_KAPPA)


def sgmcmc_update_phi(phi, word_topic, sg, eta, rho, rng):
    """Preconditioned SG-MCMC step on one topic matrix, column-simplex kept.

    The drift pushes each column toward the minibatch Dirichlet posterior
    mean (scaled to the population by ``rho``), the injected noise has
    covariance ``2 eps/M diag(phi)``, and the result is floored and
    renormalized back onto the simplex.
    """
    g = _gen(rng)
    v_size, k = phi.shape
    col_tot = word_topic.sum(axis=0)
    target = rho * col_tot + eta * v_size
    if sg.step == 0:
        sg.m = np.maximum(target, 1e-6)
    else:
        sg.m = np.maximum(_SG_SMOOTH * sg.m + (1 - _SG_SMOOTH) * target, 1e-6)
    eps_i = sg.step_size()
    out = phi + (eps_i / sg.m[None, :]) * ((rho * word_topic + eta) - target[None, :] * phi)
    out = out + g.normal(size=phi.shape) * np.sqrt(2.0 * eps_i * phi / sg.m[None, :])
    out = np.maximum(out, 1e-30)
    sg.step += 1
    return out / out.sum(axis=0, keepdims=True)


def _kl_rates(config, state, nodes):
    t_count = len(config.widths)
    if config.kl_rate_fixed is not None:
        return [float(config.kl_rate_fixed)] * t_count
    return [state.c[l + 2][nodes][:, None] for l in range(t_count)]


def _encoder_batch(x_rows, graph, weights):
    """Encoder inputs for the nodes of ``graph``: the row-normalized features
    (the decoder sees raw counts) and either the normalized adjacency or the
    attention edges."""
    batch = {"x_rows": _row_normalize(x_rows)}
    if weights.kind == "conv":
        batch["a_norm"] = normalize_adjacency(graph)
    else:
        batch["attn_src"], batch["attn_dst"] = enc.attention_edge_arrays(graph)
    return batch


def _batch(x_rows, graph, weights, labels, nodes, node_w, edge_w_nodes):
    """The training batch over ``nodes`` (indices into the full graph), whose
    features are ``x_rows`` and whose induced graph is ``graph``: the encoder
    inputs, the decoder's counts and edges, and the per-node debiasing
    weights of the node and edge terms."""
    batch = _encoder_batch(x_rows, graph, weights)
    batch.update(
        x_csc=x_rows.T.tocsc(),
        edges=graph.edges,
        labels=labels.labels[nodes] if labels is not None else None,
        nodes=nodes,
        node_w=node_w,
        edge_w_nodes=edge_w_nodes,
    )
    return batch


def _full_graph_batches(x, graph, weights, labels):
    """Batch source of the full-batch trainer: the whole graph with unit
    weights, the same batch every iteration."""
    ones = np.ones(x.num_nodes)
    batch = _batch(x.node_major(), graph, weights, labels, np.arange(x.num_nodes), ones, ones)
    return lambda it: batch


def _minibatches(x, graph, config, weights, labels, rng):
    """Batch source of the scalable trainer: iteration ``it`` draws a node
    multiset from the importance table and gives its induced subgraph with
    the debiasing weights."""
    p, cdf = node_sampling_table(
        graph.degrees().astype(np.float64), config.subsample_mix, config.importance_exponent
    )
    x_rows_full = x.node_major()
    n_s = config.minibatch_nodes

    def next_batch(it):
        multiset = sample_node_subset(cdf, n_s, rng.derive(_PH_SUBSET, it))
        nodes, counts = np.unique(multiset, return_counts=True)
        # pair weight 1/(pi_i pi_j) with pi the multiset inclusion probability;
        # reduces to the linearized 1/(N_s^2 p_i p_j) when every p is small
        inclusion = -np.expm1(n_s * np.log1p(-np.minimum(p[nodes], 1.0 - 1e-12)))
        return _batch(
            x_rows_full[nodes].tocsr(), graph.subgraph(nodes), weights, labels, nodes,
            counts / (n_s * p[nodes]), 1.0 / inclusion,
        )

    return next_batch


def _batch_noise(rng, it, weights, batch):
    """Iteration ``it``'s uniform noise for the proportions and, for the
    attention encoder, the attention draws; returns (noise_theta, noise_attn)."""
    noise_theta = enc.draw_theta_noise(rng.derive(_PH_THETA, it), len(batch["nodes"]), weights.widths)
    noise_attn = None
    if weights.kind == "attention":
        noise_attn = enc.draw_attention_noise(
            rng.derive(_PH_ATTN, it), len(batch["attn_src"]), weights.heads, len(weights.widths)
        )
    return noise_theta, noise_attn


def _encode(params_t, weights, batch, noise_attn):
    """Run the conv or attention encoder on a batch; ``noise_attn=None``
    gives the mean attention weights."""
    if weights.kind == "conv":
        return enc.conv_forward(params_t, batch["x_rows"], batch["a_norm"], weights.widths)
    return enc.attention_forward(
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
    )


def _objective(params_t, weights, batch, noise_theta, noise_attn, state, config):
    """The training objective on a batch: the debiased ELBO, or the
    supervised loss around it when the batch carries labels and the weights
    a classifier head.  Returns (total, parts)."""
    out = _encode(params_t, weights, batch, noise_attn)
    thetas, shapes, lams = enc.sample_theta_stack(out, state.phis, state.gamma0, noise_theta)
    us = [ad.exp(params_t[f"log_u_{t}"]) for t in range(1, len(weights.widths) + 1)]
    total, parts = enc.elbo(
        batch["x_csc"],
        batch["edges"],
        thetas,
        shapes,
        lams,
        state.phis,
        us,
        state.gamma0,
        _kl_rates(config, state, batch["nodes"]),
        config.beta,
        batch["node_w"],
        batch["edge_w_nodes"],
    )
    if batch["labels"] is not None and "cls_w" in params_t:
        total, label_ll = enc.supervised_loss(
            total, thetas[0], params_t["cls_w"], params_t["cls_b"], batch["labels"],
            recon_weight=config.recon_weight,
        )
        parts["label_ll"] = label_ll
    return total, parts


def _decoder_refresh(state, batch, theta_values, us, rng, update_phi):
    """Conjugate updates around encoder-sampled proportions.

    Works on a state over the batch's ``nodes`` that holds the sampled
    proportions and importance weights: augments counts, then resamples
    every topic matrix with ``update_phi(l, word_topic, rng)`` and the
    batch's scales.  Only then are the topics, proportions, weights and
    scales written into ``state``, so a refresh that fails leaves it as the
    previous iteration left it.
    """
    nodes = batch["nodes"]
    local = replace(
        state,
        phis=list(state.phis),
        thetas=[np.maximum(tv.T, THETA_FLOOR) for tv in theta_values],
        us=us,
        c=state.c[:, nodes],
    )
    word_topic, _, _, _ = augment_layers(
        batch["x_csc"], batch["edges"], local.phis, local.thetas, local.us, rng,
        rate_cap=EDGE_RATE_CAP,
    )
    for l in range(local.depth):
        local.phis[l] = update_phi(l, word_topic[l], rng)
    update_scales(local, rng)

    state.phis, state.us = local.phis, us
    for theta, local_theta in zip(state.thetas, local.thetas):
        theta[:, nodes] = local_theta
    state.c[:, nodes] = local.c


def _init_run(x, config, labels):
    config.validate(num_nodes=x.num_nodes)
    rng = RngStream(config.seed)
    hyper = DecoderHyper(eta=(config.eta,))
    state = init_decoder_state(
        list(config.widths), x.vocab_size, x.num_nodes, hyper, rng.derive(_PH_INIT, 0)
    )
    weights = enc.init_encoder_weights(
        config.encoder,
        x.vocab_size,
        list(config.widths),
        rng.derive(_PH_INIT, 1),
        heads=config.heads,
        k_att=config.k_att,
        num_classes=labels.num_classes if labels is not None else None,
        softmax_of_log=config.softmax_of_log,
    )
    return rng, state, weights


def _grad_step(optimizer, weights, batch, noise_theta, noise_attn, state, config):
    """One ascent step on the objective, taken on copies: returns the
    objective, its parts, and the stepped weights and optimizer, and leaves
    ``weights`` and ``optimizer`` as they were."""
    params_t = {k: ad.Tensor(v) for k, v in weights.params.items()}
    total, parts = _objective(params_t, weights, batch, noise_theta, noise_attn, state, config)
    if not np.isfinite(total.value):
        raise FloatingPointError("non-finite objective")
    ad.backward(total)
    grads = {k: t.grad for k, t in params_t.items() if t.grad is not None}
    stepped = replace(weights, params={k: v.copy() for k, v in weights.params.items()})
    stepped_optimizer = replace(optimizer, m=dict(optimizer.m), v=dict(optimizer.v))
    stepped_optimizer.step(stepped.params, grads)
    return float(total.value), parts, stepped, stepped_optimizer


def _sample_thetas(out, noise_theta, state):
    """Proportions from an encoder output computed with the weights passed
    as constants, so that the pass records no graph; None noise gives the
    posterior means."""
    thetas, _, _ = enc.sample_theta_stack(out, state.phis, state.gamma0, noise_theta)
    return [t.value for t in thetas]


def _train(config, rng, state, weights, next_batch, update_phi, refresh_phase, eval_hook):
    """The hybrid loop shared by both trainers.

    Per iteration: ``next_batch(it)`` gives the batch, whose ``nodes`` are
    its node indices, the encoder takes one gradient step, then resamples
    the proportions that the decoder refresh conditions on.  The step is
    committed to ``weights`` and the optimizer only after the refresh
    returns, so an aborted run holds one finished iteration's weights and
    decoder state.
    """
    optimizer = AdamOptimizer(lr=config.learning_rate)
    log = []
    start = time.perf_counter()
    hook_cost = 0.0
    for it in range(config.iterations):
        t0 = time.perf_counter()
        batch = next_batch(it)
        noise_theta, noise_attn = _batch_noise(rng, it, weights, batch)
        try:
            value, parts, stepped, stepped_optimizer = _grad_step(
                optimizer, weights, batch, noise_theta, noise_attn, state, config
            )
            out = _encode(stepped.params, stepped, batch, noise_attn)
            theta_values = _sample_thetas(out, noise_theta, state)
            _decoder_refresh(
                state, batch, theta_values, stepped.u_values(), rng.derive(refresh_phase, it),
                update_phi,
            )
        except FloatingPointError as exc:
            raise TrainingAborted(f"iteration {it}: {exc}", state, weights, log) from exc
        weights.params, optimizer = stepped.params, stepped_optimizer
        state.iteration = it + 1
        rec = {"iteration": it, "elbo": value, **parts, "wall_time": time.perf_counter() - t0}
        if len(batch["edges"]) == 0 or config.beta == 0.0:  # elbo skips the edge term
            rec["edge_term_skipped"] = True
        log.append(rec)
        if eval_hook is not None:
            h0 = time.perf_counter()
            eval_hook(it, state, weights, h0 - start - hook_cost)
            hook_cost += time.perf_counter() - h0
    return TrainResult(state, weights, log, time.perf_counter() - start - hook_cost)


def train_full_batch(x, graph, config, labels=None, eval_hook=None):
    """End-to-end training on the whole graph (gradient + Gibbs per iteration)."""
    if config.trainer != "full_batch":
        raise ValueError(f"train_full_batch given a config for trainer {config.trainer!r}")
    rng, state, weights = _init_run(x, config, labels)
    next_batch = _full_graph_batches(x, graph, weights, labels)

    def update_phi(l, word_topic, rng_it):
        return update_phi_gibbs(word_topic, state.hyper.eta_for(l + 1), rng_it)

    return _train(config, rng, state, weights, next_batch, update_phi, _PH_GIBBS, eval_hook)


def train_scalable(x, graph, config, labels=None, eval_hook=None):
    """Minibatch training: importance node subsets, debiased subgraph
    objective, and SG-MCMC topic updates scaled back to the population."""
    if config.trainer != "scalable":
        raise ValueError(f"train_scalable given a config for trainer {config.trainer!r}")
    rng, state, weights = _init_run(x, config, labels)
    next_batch = _minibatches(x, graph, config, weights, labels, rng)
    rho = x.num_nodes / config.minibatch_nodes
    sg_states = [SgmcmcState(m=np.ones(k)) for k in config.widths]

    def update_phi(l, word_topic, rng_it):
        return sgmcmc_update_phi(
            state.phis[l], word_topic, sg_states[l], state.hyper.eta_for(l + 1), rho, rng_it
        )

    return _train(config, rng, state, weights, next_batch, update_phi, _PH_SGLD, eval_hook)


def encode_posterior_means(weights, x, graph, state):
    """Deterministic posterior-mean proportions for a trained model.

    Runs the encoder without sampling (mean attention for the attention
    variant) and pushes Weibull means down the trainer's θ stack.  Returns a
    list of (N, K_t) arrays.
    """
    # the encoder inputs are a temporary, freed before the θ stack runs
    out = _encode(weights.params, weights, _encoder_batch(x.node_major(), graph, weights), None)
    return _sample_thetas(out, [None] * len(weights.widths), state)
