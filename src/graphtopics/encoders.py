"""Weibull-based graph inference networks and the training objective.

Two encoders map (features, graph) to per-layer Weibull posteriors over the
topic proportions: a graph-convolutional one driven by the normalized
adjacency, and a multi-head attention one whose edge weights are themselves
Weibull draws around the usual LeakyReLU scores.  Both feed the same
objective: Poisson feature likelihood, a weighted Bernoulli-Poisson edge
likelihood, and per-layer Weibull-to-gamma divergences.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import autodiff as ad
from .stochastic import _gen

SHAPE_FLOOR = 0.1  # Weibull shape guard: keeps Gamma(1 + 1/k) and the draw tail sane
SCALE_FLOOR = 1e-8
THETA_CEILING = 1e4  # proportion samples are capped; only transient blow-ups hit this
SCORE_CLIP = 30.0  # attention scores feed exp() twice; clip before the first

EULER_GAMMA = float(np.euler_gamma)


@dataclass
class EncoderWeights:
    """Trainable arrays for either encoder, addressed by name.

    Conv encoder: ``w1_t`` (K_{t-1} x K_t) plus square ``w2_t``/``w3_t``
    heads producing Weibull shape and scale.  Attention encoder adds, per
    head, a score projection ``watt_t_c`` and value projection ``w1_t_c``,
    and a per-layer score vector ``a_t`` (2 K_t x 1).  The per-layer
    log-importance weights ``log_u_t`` live here because they are trained by
    gradient alongside the network.  A linear classifier head
    (``cls_w``/``cls_b``) is present when the model is supervised.
    """

    kind: str  # "conv" | "attention"
    vocab_size: int
    widths: list
    heads: int = 4
    k_att: float = 10.0
    leaky_slope: float = 0.2
    softmax_of_log: bool = False
    params: dict = field(default_factory=dict)

    def u_values(self):
        return [np.exp(self.params[f"log_u_{t}"]) for t in range(1, len(self.widths) + 1)]


def encoder_param_shapes(kind, vocab_size, widths, heads=4, num_classes=None):
    """The name and shape of every trainable array, in initialization order."""
    if kind not in ("conv", "attention"):
        raise ValueError(f"unknown encoder kind {kind!r}")
    dims = [vocab_size] + list(widths)
    shapes = {}
    for t in range(1, len(widths) + 1):
        k_prev, k_t = dims[t - 1], dims[t]
        if kind == "conv":
            shapes[f"w1_{t}"] = (k_prev, k_t)
        else:
            for c in range(heads):
                shapes[f"watt_{t}_{c}"] = (k_prev, k_t)
                shapes[f"w1_{t}_{c}"] = (k_prev, k_t)
            shapes[f"a_{t}"] = (2 * k_t, 1)
        shapes[f"w2_{t}"] = (k_t, k_t)
        shapes[f"w3_{t}"] = (k_t, k_t)
        shapes[f"log_u_{t}"] = (k_t,)
    if num_classes is not None:
        shapes["cls_w"] = (widths[0], num_classes)
        shapes["cls_b"] = (1, num_classes)
    return shapes


def init_encoder_weights(
    kind, vocab_size, widths, rng, heads=4, k_att=10.0, num_classes=None, softmax_of_log=False
):
    """Glorot-scaled random initialization; log u starts at zero (u = 1)."""
    shapes = encoder_param_shapes(kind, vocab_size, widths, heads, num_classes)
    g = _gen(rng)
    params = {}
    for name, shape in shapes.items():
        if name.startswith("log_u_") or name == "cls_b":
            params[name] = np.zeros(shape)
        else:
            fan_in, fan_out = shape
            params[name] = g.normal(0.0, math.sqrt(2.0 / (fan_in + fan_out)), size=shape)
    return EncoderWeights(
        kind=kind,
        vocab_size=vocab_size,
        widths=list(widths),
        heads=heads,
        k_att=k_att,
        softmax_of_log=softmax_of_log,
        params=params,
    )


@dataclass
class EncoderOutput:
    """Per-layer Weibull parameters, before the θ stack adds the prior shape.

    Each layer's hidden state is only the next layer's input, so it is not
    kept: a pass over constants frees it once that layer is done, and a
    recorded pass keeps it on the tape.  ``sample_theta_stack`` consumes
    both lists.
    """

    k_raw: list  # Tensor (N, K_t), strictly positive
    lam: list  # Tensor (N, K_t), strictly positive


def conv_forward(params, x_rows, a_norm, widths):
    """Graph-convolutional encoder: softplus(A~ H W) stacks for H, shape, scale."""
    t_count = len(widths)
    k_raw, lam = [], []
    h = x_rows  # scipy sparse, constant
    for t in range(1, t_count + 1):
        h = ad.softplus(ad.matmul(a_norm, ad.matmul(h, params[f"w1_{t}"])))
        k_raw.append(ad.softplus(ad.matmul(a_norm, ad.matmul(h, params[f"w2_{t}"]))))
        lam.append(ad.softplus(ad.matmul(a_norm, ad.matmul(h, params[f"w3_{t}"]))))
    return EncoderOutput(k_raw, lam)


def _attention_noise(eps_heads, k_att):
    """(H, E) Weibull factors ``(-ln(1-eps))^{1/k} / Γ(1+1/k)``, mean one,
    from each head's (E, 1) uniform noise."""
    eps = np.clip(np.vstack([np.ravel(e) for e in eps_heads]), ad.EPS_FLOOR, 1.0 - ad.EPS_FLOOR)
    return np.power(-np.log1p(-eps), 1.0 / k_att) / math.exp(gammaln(1.0 + 1.0 / k_att))


def attention_forward(params, x_rows, attn_src, attn_dst, widths, heads, k_att, eps_attn,
                      slope=0.2, softmax_of_log=False):
    """Multi-head Bayesian-attention encoder.

    ``attn_src``/``attn_dst`` list directed neighbor pairs (self-loops
    included), sorted by source; ``eps_attn[t-1][c]`` carries the per-edge
    uniform noise, or None for the deterministic mean-attention pass used at
    evaluation.  Each layer is one :func:`autodiff.attention_layer`: the
    attention draw ``s = exp(m) (-ln(1-eps))^{1/k} / Γ(1+1/k)`` around the
    clipped LeakyReLU score m has mean ``exp(m)``, and each node's
    neighborhood is normalized by a softmax of s, or of ``ln s`` when
    ``softmax_of_log``.
    """
    if k_att <= 0:
        raise ValueError("attention shape parameter must be positive")
    nbhd = ad.Neighborhoods(attn_src, attn_dst, x_rows.shape[0])
    k_raw, lam = [], []
    h = x_rows
    for t in range(1, len(widths) + 1):
        noise = None if eps_attn is None else _attention_noise(eps_attn[t - 1], k_att)
        h = ad.attention_layer(
            h, [params[f"watt_{t}_{c}"] for c in range(heads)],
            [params[f"w1_{t}_{c}"] for c in range(heads)], params[f"a_{t}"], nbhd, noise,
            slope, SCORE_CLIP, softmax_of_log,
        )
        k_raw.append(ad.softplus(ad.matmul(h, params[f"w2_{t}"])))
        lam.append(ad.softplus(ad.matmul(h, params[f"w3_{t}"])))
    return EncoderOutput(k_raw, lam)


def sample_theta_stack(output, phis, gamma0, eps_list):
    """Reparameterized posterior samples, deepest layer first.

    Layer t's Weibull shape is the encoder output plus the prior shape
    (projected sample from layer t+1, or the top-layer shape vector), so
    gradients flow through the whole stack.  A layer whose noise is None
    takes the Weibull mean ``λ Γ(1 + 1/k)`` instead of a draw, the
    deterministic pass used at evaluation.  The stack consumes ``output``:
    it pops each layer's raw shape and scale as it draws that layer, so a
    pass over constants frees them there.  Returns bottom-up lists of
    samples, shapes, and scales.
    """
    t_count = len(output.k_raw)
    thetas = [None] * t_count
    shapes = [None] * t_count
    lams = [None] * t_count
    for l in range(t_count - 1, -1, -1):
        if l == t_count - 1:
            addend = ad.as_tensor(np.asarray(gamma0, dtype=np.float64)[None, :])
        else:
            addend = ad.matmul(thetas[l + 1], ad.as_tensor(phis[l + 1].T))
        # without a tape, the names here are all that keeps an array alive:
        # pop the raw outputs and drop each temporary as soon as it is read
        shape = ad.clamp(ad.add(output.k_raw.pop(), addend), lo=SHAPE_FLOOR)
        del addend
        lam = ad.clamp(output.lam.pop(), lo=SCALE_FLOOR)
        if eps_list[l] is None:
            draw = ad.mul(lam, ad.exp(ad.lgamma(ad.add(1.0, ad.div(1.0, shape)))))
        else:
            draw = ad.weibull_transform(shape, lam, eps_list[l])
        thetas[l] = ad.clamp(draw, hi=THETA_CEILING)
        del draw
        shapes[l], lams[l] = shape, lam
    return thetas, shapes, lams


def kl_weibull_gamma(shape, scale, alpha, rate):
    """Analytic KL(Weibull(shape, scale) || Gamma(alpha, rate)), elementwise.

    ``gE a/k - a ln λ + ln k + b λ Γ(1+1/k) - gE - 1 - a ln b + ln Γ(a)``.
    Accepts tensors or arrays; every argument must be positive.
    """
    shape, scale = ad.as_tensor(shape), ad.as_tensor(scale)
    alpha, rate = ad.as_tensor(alpha), ad.as_tensor(rate)
    if np.any(shape.value <= 0) or np.any(scale.value <= 0):
        raise ValueError("Weibull parameters must be positive")
    if np.any(alpha.value <= 0) or np.any(rate.value <= 0):
        raise ValueError("gamma parameters must be positive")
    inv_k = ad.div(1.0, shape)
    mean_term = ad.mul(ad.mul(rate, scale), ad.exp(ad.lgamma(ad.add(1.0, inv_k))))
    out = ad.mul(alpha, ad.mul(inv_k, EULER_GAMMA))
    out = ad.sub(out, ad.mul(alpha, ad.log(scale)))
    out = ad.add(out, ad.log(shape))
    out = ad.add(out, mean_term)
    out = ad.sub(out, EULER_GAMMA + 1.0)
    out = ad.sub(out, ad.mul(alpha, ad.log(rate)))
    return ad.add(out, ad.lgamma(alpha))


def elbo(x_csc, pairs, thetas, shapes, lams, phis, us, gamma0, kl_rates, beta,
         node_weights, edge_node_weights):
    """Variational objective: feature likelihood + β-weighted edge likelihood
    minus the per-layer posterior divergences.  Returns (total, parts).

    ``x_csc`` is the batch's V x N count matrix in CSC form and ``pairs`` its
    :class:`autodiff.EdgePattern`; ``thetas`` are (N, K_t) tensors; ``us`` are (K_t,) tensors; ``kl_rates``
    holds the per-layer gamma rate of the prior (scalar or per-node column).
    The per-node weights of the node and KL terms and of the edge term
    debias subsampled estimates; the whole graph has unit weights.
    """
    t_count = len(thetas)
    node_ll = ad.poisson_bow_loglik(thetas[0], phis[0], x_csc, node_weights)

    if len(pairs) and beta != 0.0:
        edge_ll = ad.bernoulli_poisson_loglik(thetas, us, pairs, edge_node_weights)
    else:
        edge_ll = ad.as_tensor(0.0)

    kl_total = ad.as_tensor(0.0)
    for l in range(t_count):
        if l == t_count - 1:
            alpha = ad.as_tensor(np.asarray(gamma0, dtype=np.float64)[None, :])
        else:
            alpha = ad.clamp(ad.matmul(thetas[l + 1], ad.as_tensor(phis[l + 1].T)), lo=SHAPE_FLOOR)
        kl = ad.mul(kl_weibull_gamma(shapes[l], lams[l], alpha, kl_rates[l]), node_weights[:, None])
        kl_total = ad.add(kl_total, ad.tsum(kl))

    total = ad.add(node_ll, ad.sub(ad.mul(edge_ll, beta), kl_total))
    parts = {"node_ll": float(node_ll.value), "edge_ll": float(edge_ll.value),
             "kl": float(kl_total.value)}
    return total, parts


def label_loglik(theta1, cls_w, cls_b, labels):
    """Sum of log-categorical likelihoods of the labeled nodes.

    ``labels`` uses -1 for unlabeled nodes; returns a zero tensor when no
    label is present.
    """
    labels = np.asarray(labels, dtype=np.int64)
    idx = np.flatnonzero(labels >= 0)
    if idx.size == 0:
        return ad.as_tensor(0.0)
    logits = ad.add(ad.matmul(ad.gather_rows(theta1, idx), cls_w), cls_b)
    shift = logits.value.max(axis=1, keepdims=True)
    shifted = ad.sub(logits, shift)
    log_norm = ad.log(ad.tsum(ad.exp(shifted), axis=1, keepdims=True))
    onehot = np.zeros(logits.value.shape)
    onehot[np.arange(idx.size), labels[idx]] = 1.0
    picked = ad.tsum(ad.mul(shifted, onehot), axis=1, keepdims=True)
    return ad.tsum(ad.sub(picked, log_norm))


def supervised_loss(elbo_value, theta1, cls_w, cls_b, labels, recon_weight=1.0):
    """Supervised objective: label log-likelihood plus the (optionally
    reweighted) generative objective.  ``recon_weight=1`` is the plain sum."""
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = cls_w.value.shape[1] if isinstance(cls_w, ad.Tensor) else cls_w.shape[1]
    if np.any(labels >= num_classes):
        raise ValueError("label index out of range")
    ll = label_loglik(theta1, cls_w, cls_b, labels)
    scaled = elbo_value if recon_weight == 1.0 else ad.mul(elbo_value, recon_weight)
    return ad.add(ll, scaled), float(ll.value)


def classifier_logits(theta1_mean, weights):
    return theta1_mean @ weights.params["cls_w"] + weights.params["cls_b"]


def draw_theta_noise(rng, num_nodes, widths):
    g = _gen(rng)
    return [g.uniform(size=(num_nodes, k)) for k in widths]


def draw_attention_noise(rng, num_edges, heads, depth):
    g = _gen(rng)
    return [[g.uniform(size=(num_edges, 1)) for _ in range(heads)] for _ in range(depth)]


def attention_edge_arrays(graph):
    """Directed neighbor pairs (both directions plus self-loops)."""
    e = graph.edges
    src = np.concatenate([e[:, 0], e[:, 1], np.arange(graph.num_nodes)])
    dst = np.concatenate([e[:, 1], e[:, 0], np.arange(graph.num_nodes)])
    order = np.argsort(src, kind="stable")
    return src[order], dst[order]
