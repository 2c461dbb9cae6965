"""The generative network for document graphs, with Gibbs inference.

A stack of gamma-distributed topic proportions generates bag-of-words node
features through a Poisson likelihood and binary edges through a
Bernoulli-Poisson link whose rate sums per-layer topic affinities
``u_k θ_ik θ_jk``.  All conditionals are conjugate after augmenting counts:
observed word counts split multinomially over topics, each observed edge
carries a truncated-Poisson latent count split over layers and topics, and
counts propagate upward through the gamma stack via the Chinese-restaurant
table construction.

Layer indexing follows the generative story: lists hold layers 1..T at
positions 0..T-1; per-node scales ``c`` are stored in a (T+2, N) array
addressed with their 1-based layer index (valid for 2..T+1), and the layer
probabilities ``p``, derived from ``c`` on each read, share that layout
(valid for 1..T+1).
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .stochastic import (
    _gen,
    sample_crt,
    sample_dirichlet,
    sample_gamma,
    sample_multinomial_rows,
    sample_truncated_poisson,
)

THETA_FLOOR = 1e-30
P_FLOOR = 1e-9


@dataclass
class DecoderHyper:
    """Prior settings: Dirichlet concentration per layer and gamma priors for
    scales and importance weights."""

    eta: tuple = (0.01,)
    e0: float = 1.0
    f0: float = 1.0
    alpha0: float = 1.0
    beta0: float = 1.0

    def eta_for(self, layer):
        if len(self.eta) == 1:
            return float(self.eta[0])
        return float(self.eta[layer - 1])

    def validate(self):
        for v in (self.e0, self.f0, self.alpha0, self.beta0, *self.eta):
            if v <= 0:
                raise ValueError("hyperparameters must be strictly positive")
        return self


@dataclass
class DecoderState:
    """All decoder parameters for a T-layer model over N nodes.

    Only the sampled arrays are stored; the shapes, the top-layer shape
    vector and the layer probabilities are derived from them.
    """

    phis: list  # phis[l]: (K_{l}, K_{l+1}) with K_0 = vocab, columns on simplex
    thetas: list  # thetas[l]: (K_{l+1}, N)
    us: list  # us[l]: (K_{l+1},)
    c: np.ndarray  # (T+2, N)
    hyper: DecoderHyper = field(default_factory=DecoderHyper)
    iteration: int = 0

    @property
    def widths(self):
        return [phi.shape[1] for phi in self.phis]

    @property
    def vocab_size(self):
        return self.phis[0].shape[0]

    @property
    def num_nodes(self):
        return self.c.shape[1]

    @property
    def depth(self):
        return len(self.phis)

    @property
    def gamma0(self):
        """The top-layer gamma shape vector, ones of length K_T."""
        return np.ones(self.phis[-1].shape[1])

    @property
    def p(self):
        """Layer probabilities (T+2, N) from the scales: p_1 = 1 - e^{-1} and
        p_{t+1} = L_t / (c_{t+1} + L_t) with L_t = -ln(1 - p_t).  Raises if a
        value leaves (0, 1); returns them clipped to [P_FLOOR, 1 - P_FLOOR]."""
        p = np.zeros_like(self.c)
        p[1] = 1.0 - math.exp(-1.0)
        for t in range(1, self.depth + 1):
            neg_log = -np.log1p(-p[t])
            p[t + 1] = neg_log / (self.c[t + 1] + neg_log)
        live = p[1 : self.depth + 2]
        if np.any(~np.isfinite(live)) or np.any((live <= 0) | (live >= 1)):
            raise FloatingPointError("layer probability left (0, 1)")
        return np.clip(p, P_FLOOR, 1.0 - P_FLOOR, out=p)


def _prior_topics(widths, vocab_size, hyper, rng, concentration=None):
    """Validated ``hyper`` and topic matrices drawn column by column from a
    symmetric Dirichlet whose concentration defaults to each layer's η."""
    hyper = (hyper or DecoderHyper()).validate()
    dims = [vocab_size] + list(widths)
    phis = []
    for l in range(len(widths)):
        conc = hyper.eta_for(l + 1) if concentration is None else concentration
        phis.append(
            np.column_stack([sample_dirichlet(np.full(dims[l], conc), rng) for _ in range(dims[l + 1])])
        )
    return hyper, phis


def init_decoder_state(widths, vocab_size, num_nodes, hyper=None, rng=None):
    """Draw a fresh state from (flat) priors; deterministic given the stream."""
    hyper, phis = _prior_topics(widths, vocab_size, hyper, rng, concentration=1.0)
    thetas = [np.maximum(sample_gamma(np.ones((k, num_nodes)), 1.0, rng), THETA_FLOOR) for k in widths]
    us = [np.ones(k) for k in widths]
    c = np.ones((len(widths) + 2, num_nodes))
    return DecoderState(phis=phis, thetas=thetas, us=us, c=c, hyper=hyper)


def augment_node_counts(x, phi, theta, rng):
    """Split observed counts over topics: Multinomial(x_vj, ∝ φ_vk θ_jk).

    ``x`` is a (V, N) scipy sparse or dense count matrix for this layer.
    Returns ``(word_topic (V, K), node_topic (K, N))`` aggregate counts;
    zero entries produce no work and no draws.
    """
    coo = sp.coo_matrix(x)
    v_idx, j_idx = coo.row.astype(np.int64), coo.col.astype(np.int64)
    counts = coo.data.astype(np.int64)
    v_size, k = phi.shape
    n = theta.shape[1]
    if counts.size == 0:
        return np.zeros((v_size, k)), np.zeros((k, n))
    weights = phi[v_idx, :] * theta[:, j_idx].T
    totals = weights.sum(axis=1)
    if np.any((totals <= 0) & (counts > 0)):
        raise FloatingPointError("zero split rate for a positive count")
    rows, slots, split_counts = sample_multinomial_rows(counts, weights, totals, rng)
    word_topic = np.bincount(
        v_idx[rows] * k + slots, weights=split_counts, minlength=v_size * k
    ).reshape(v_size, k)
    node_topic = np.bincount(
        slots * n + j_idx[rows], weights=split_counts, minlength=k * n
    ).reshape(k, n)
    return word_topic, node_topic


def augment_edge_counts(edges, us, thetas, rng, rate_cap=None):
    """Latent counts for observed edges, split over layers and topics.

    Each edge draws a total from the zero-truncated Poisson at rate
    ``sum_t sum_k u_k θ_ik θ_jk`` and splits it multinomially across all
    (layer, topic) slots.  Non-edges contribute nothing.  Returns
    ``(totals (E,), [per-layer (E, K_t) splits])``.

    ``rate_cap`` bounds the total rate fed to the truncated-Poisson draw
    (split proportions are untouched); the hybrid trainers use it to keep
    transiently exploded encoder samples from stalling the count machinery.

    Edges are processed in blocks of 16,384, and the block size fixes the
    order of the random draws: one block's totals and splits before the
    next block's.  A block is not cache-sized: at three layers of 16 topics
    its rates array alone is 6.3 MB.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    widths = [th.shape[0] for th in thetas]
    n_edges = len(edges)
    if n_edges == 0:
        return np.zeros(0, np.int64), [np.zeros((0, k), np.int64) for k in widths]
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
        if np.any(totals_rate <= 0):
            bad = lo + int(np.flatnonzero(totals_rate <= 0)[0])
            raise FloatingPointError(f"zero edge rate on observed edge {tuple(edges[bad])}")
        draw_rate = totals_rate if rate_cap is None else np.minimum(totals_rate, rate_cap)
        m_blk = sample_truncated_poisson(draw_rate, rng)
        rows, slots, split_counts = sample_multinomial_rows(m_blk, rates, totals_rate, rng)
        m[lo:hi] = m_blk
        offset = 0
        for l, k in enumerate(widths):
            layer = (slots >= offset) & (slots < offset + k)
            out[l][lo + rows[layer], slots[layer] - offset] = split_counts[layer]
            offset += k
    return m, out


def edge_count_aggregates(edges, edge_splits, num_nodes):
    """Per-node and per-topic sums of the latent edge counts.

    Returns per layer: ``node (K_t, N)`` with entry (k, j) holding
    ``sum_{i != j} m_ijk`` and ``topic (K_t,)`` holding the per-topic total
    over unordered pairs.  The node sums are one product with the N x E
    incidence matrix, whose column e holds ones at both endpoints of edge e.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n_ends = 2 * len(edges)
    incidence = sp.csc_matrix(
        (np.ones(n_ends), edges.ravel(), np.arange(0, n_ends + 1, 2)), shape=(num_nodes, len(edges))
    )
    node_tot = [(incidence @ split).T for split in edge_splits]
    topic_tot = [split.sum(axis=0).astype(np.float64) for split in edge_splits]
    return node_tot, topic_tot


def propagate_counts_upward(pooled_counts, phi_next, theta_next, rng):
    """CRT-propagate pooled layer-t counts into layer t+1 pseudo-observations.

    ``pooled_counts`` is (K_t, N): node-feature splits plus edge splits
    attributed to each θ_jk.  The table count uses the gamma shape
    ``(Φ^{t+1} θ^{t+1})_k`` as its concentration.
    """
    conc = phi_next @ theta_next
    if np.any(conc <= 0):
        raise FloatingPointError("nonpositive CRT concentration")
    return sample_crt(np.asarray(pooled_counts, dtype=np.int64), conc, rng)


def augment_layers(x, edges, phis, thetas, us, rng, rate_cap=None):
    """The count-augmentation chain of one sweep, bottom layer first.

    Augments the edge counts and sums them per node and topic, then splits
    each layer's counts over its topics and CRT-propagates the pooled node
    and edge counts into the next layer's pseudo-observations.  ``x`` is the
    (V, N) first-layer count matrix; ``rate_cap`` goes to
    :func:`augment_edge_counts`.  Returns per-layer lists ``(word_topic,
    node_topic, edge_node, edge_topic)``.
    """
    _, edge_splits = augment_edge_counts(edges, us, thetas, rng, rate_cap=rate_cap)
    edge_node, edge_topic = edge_count_aggregates(edges, edge_splits, thetas[0].shape[1])
    word_topic, node_topic = [], []
    layer_x = x
    for l in range(len(phis)):
        wt, nt = augment_node_counts(layer_x, phis[l], thetas[l], rng)
        word_topic.append(wt)
        node_topic.append(nt)
        if l + 1 < len(phis):
            layer_x = propagate_counts_upward(nt + edge_node[l], phis[l + 1], thetas[l + 1], rng)
    return word_topic, node_topic, edge_node, edge_topic


def update_phi_gibbs(word_topic, eta, rng):
    """Dirichlet-posterior resample of a topic matrix, column by column."""
    draws = sample_gamma(word_topic + eta, 1.0, rng)
    draws = np.maximum(np.atleast_2d(draws), 1e-300)
    return draws / draws.sum(axis=0, keepdims=True)


def update_theta_gibbs(
    node_topic, edge_node, prior_shape, p_t, c_next, u, theta_old, rng, exact_scan=False
):
    """Gamma-posterior resample of one layer of topic proportions.

    Shape is ``counts + prior_shape``; the rate adds the layer probability
    term, the next layer's scale, and the edge exposure ``u_k sum_{i!=j}
    θ_ik``.  The exposure uses the pre-sweep state for all nodes at once
    unless ``exact_scan`` requests a sequential per-node scan.
    """
    shape = node_topic + edge_node + prior_shape
    neg_log = -np.log1p(-p_t)
    if not exact_scan:
        cross = theta_old.sum(axis=1, keepdims=True) - theta_old
        rate = neg_log[None, :] + c_next[None, :] + u[:, None] * cross
        return np.maximum(sample_gamma(shape, 1.0 / rate, rng), THETA_FLOOR)
    theta = theta_old.copy()
    row_sum = theta.sum(axis=1)
    for j in range(theta.shape[1]):
        cross = row_sum - theta[:, j]
        rate = neg_log[j] + c_next[j] + u * cross
        col = np.maximum(sample_gamma(shape[:, j], 1.0 / rate, rng), THETA_FLOOR)
        row_sum += col - theta[:, j]
        theta[:, j] = col
    return theta


def update_u_gibbs(edge_topic_totals, theta, alpha0, beta0, rng):
    """Gamma-posterior resample of the per-topic importance weights."""
    tot = theta.sum(axis=1)
    sq = (theta * theta).sum(axis=1)
    pair_exposure = 0.5 * (tot * tot - sq)
    shape = alpha0 + np.asarray(edge_topic_totals, dtype=np.float64)
    return np.maximum(sample_gamma(shape, 1.0 / (beta0 + pair_exposure), rng), THETA_FLOOR)


def update_scales(state, rng):
    """Resample the per-node scales c.

    The shape term sums the node's topic proportions at the same layer
    (equivalently the layer-above Poisson rate, since topic columns are on
    the simplex); the top scale uses the top-layer prior shape sum.  Raises
    if a new scale is not finite and positive.
    """
    sums = [th.sum(axis=0) for th in state.thetas]  # θ^{(t)}_{j·}, t = 1..T
    for t in range(2, state.depth + 1):
        state.c[t] = sample_gamma(
            sums[t - 1] + state.hyper.e0, 1.0 / (state.hyper.f0 + sums[t - 2]), rng
        )
    state.c[state.depth + 1] = sample_gamma(
        float(state.gamma0.sum()) + state.hyper.e0,
        1.0 / (state.hyper.f0 + sums[state.depth - 1]),
        rng,
    )
    scales = state.c[2 : state.depth + 2]
    if not np.all(np.isfinite(scales) & (scales > 0)):
        raise FloatingPointError("scale left (0, inf)")


def edge_probabilities(us, thetas, pairs):
    """Vectorized link probabilities for an array of (i, j) pairs.

    ``thetas`` holds (K_t, N) layers; returns one probability per pair.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    rate = np.zeros(len(pairs))
    for u, th in zip(us, thetas):
        rate += np.einsum("k,ke,ke->e", u, th[:, pairs[:, 0]], th[:, pairs[:, 1]])
    return -np.expm1(-rate)


def layer_adjacency(u, theta):
    """Semantic affinity matrix of one layer: ``sum_k u_k θ_ik θ_jk``."""
    return (theta.T * u[None, :]) @ theta


def gibbs_sweep(state, x, edges, rng, exact_scan=False):
    """One sweep over all decoder conditionals.

    Order: augment edge counts and node counts, propagate counts upward,
    resample every topic matrix, resample proportions from the deepest layer
    down (so each prior term is current), then importance weights and
    scales.  Cost is linear in nonzero counts and observed edges.

    Only ``exact_scan=True`` is an exact systematic-scan Gibbs sweep.  By
    default each layer's proportions are drawn for every node at once, with
    the edge exposure taken from the proportions before the draw, which is
    not an exact Gibbs step; the Geweke test runs the exact path.
    """
    t_count = state.depth
    p = state.p
    word_topic, node_topic, edge_node, edge_topic = augment_layers(
        x, edges, state.phis, state.thetas, state.us, rng
    )

    for l in range(t_count):
        state.phis[l] = update_phi_gibbs(word_topic[l], state.hyper.eta_for(l + 1), rng)

    for l in range(t_count - 1, -1, -1):
        if l == t_count - 1:
            prior_shape = np.broadcast_to(state.gamma0[:, None], state.thetas[l].shape)
        else:
            prior_shape = state.phis[l + 1] @ state.thetas[l + 1]
        state.thetas[l] = update_theta_gibbs(
            node_topic[l],
            edge_node[l],
            prior_shape,
            p[l + 1],
            state.c[l + 2],
            state.us[l],
            state.thetas[l],
            rng,
            exact_scan=exact_scan,
        )

    for l in range(t_count):
        state.us[l] = update_u_gibbs(
            edge_topic[l], state.thetas[l], state.hyper.alpha0, state.hyper.beta0, rng
        )

    update_scales(state, rng)
    state.iteration += 1
    return state


def sample_generative(widths, vocab_size, num_nodes, rng, hyper=None, u_scale=1.0, eta_gen=None):
    """Forward-sample a full model and a dataset (features + binary edges).

    Used by simulation-based tests and synthetic benchmarks; ``u_scale``
    rescales the importance weights to steer the expected edge density.
    """
    hyper, phis = _prior_topics(widths, vocab_size, hyper, rng, concentration=eta_gen)
    t_count = len(widths)
    c = np.ones((t_count + 2, num_nodes))
    for t in range(2, t_count + 2):
        c[t] = sample_gamma(np.full(num_nodes, hyper.e0), 1.0 / hyper.f0, rng)
    thetas = [None] * t_count
    thetas[t_count - 1] = np.maximum(
        sample_gamma(
            np.ones((widths[-1], num_nodes)),
            1.0 / c[t_count + 1][None, :],
            rng,
        ),
        THETA_FLOOR,
    )
    for l in range(t_count - 2, -1, -1):
        shape = phis[l + 1] @ thetas[l + 1]
        thetas[l] = np.maximum(sample_gamma(shape, 1.0 / c[l + 2][None, :], rng), THETA_FLOOR)
    us = [
        u_scale * sample_gamma(np.full(k, hyper.alpha0), 1.0 / hyper.beta0, rng) for k in widths
    ]

    x = _gen(rng).poisson(phis[0] @ thetas[0])
    rate = np.zeros((num_nodes, num_nodes))
    for l in range(t_count):
        rate += layer_adjacency(us[l], thetas[l])
    prob = -np.expm1(-rate)
    iu = np.triu_indices(num_nodes, k=1)
    hits = _gen(rng).uniform(size=len(iu[0])) < prob[iu]
    edges = np.column_stack([iu[0][hits], iu[1][hits]])

    return DecoderState(phis=phis, thetas=thetas, us=us, c=c, hyper=hyper), x, edges
