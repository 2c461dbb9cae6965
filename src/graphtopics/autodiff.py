"""A small reverse-mode differentiation engine on numpy arrays.

Covers exactly the primitives the graph encoders and their objective need:
products with a dense or constant sparse left operand, softplus/exp/log,
log-gamma, clipping, row gathers and sums, elementwise arithmetic with
broadcasting, the Weibull noise transform, and three fused primitives with
hand-written backward rules: one multi-head attention layer (every head's
scores, Weibull attention draws, neighborhood softmax and aggregation in
one node), the Poisson bag-of-words and the Bernoulli-Poisson edge
likelihoods.  Their backward passes are sparse products over structures
built once per batch or pass: the attention layer's ``Neighborhoods`` (the
source-sorted CSR pattern shared by all heads), the V x N count matrix in
CSC form, whose arrays also give its N x V transpose, and the edges'
symmetric ``EdgePattern``.  Double precision throughout; gradients
accumulate additively across fan-out.

A leaf built with ``Tensor(v)`` is a parameter; ``as_tensor`` wraps an array
as a constant.  A primitive records its parents and backward rule only when
one of its inputs depends on a parameter, so a pass over constants (the
trainer's resample and evaluation passes) keeps no graph alive.
"""

import numpy as np
import scipy.sparse as sp
from scipy.special import digamma as _digamma_fn
from scipy.special import gammaln

EPS_FLOOR = 1e-6  # uniform-noise clamp before the log-log path


class NumericsError(ArithmeticError):
    """A primitive of a checked expression produced a non-finite value."""


def _records(parents):
    """Whether a primitive over ``parents`` is recorded: some input is a
    parameter or depends on one."""
    for p in parents:  # a loop, not any(): this runs for every primitive
        if p.parents or p.op == "leaf":
            return True
    return False


class Tensor:
    """A node in the expression graph: value, adjoint, and backward rule."""

    __slots__ = ("value", "grad", "parents", "bwd", "op")

    def __init__(self, value, parents=(), bwd=None, op="leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        if not _records(parents):
            parents, bwd = (), None  # every input is a constant: record nothing
        self.parents = parents
        self.bwd = bwd
        self.op = op

    @property
    def shape(self):
        return self.value.shape

    def accumulate(self, g):
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.value.shape})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x, op="const")


def _unbroadcast(g, shape):
    """Sum a gradient down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    for _ in range(extra):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        a.accumulate(_unbroadcast(g, a.value.shape))
        b.accumulate(_unbroadcast(g, b.value.shape))

    return Tensor(a.value + b.value, (a, b), bwd, "add")


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        a.accumulate(_unbroadcast(g, a.value.shape))
        b.accumulate(_unbroadcast(-g, b.value.shape))

    return Tensor(a.value - b.value, (a, b), bwd, "sub")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        a.accumulate(_unbroadcast(g * b.value, a.value.shape))
        b.accumulate(_unbroadcast(g * a.value, b.value.shape))

    return Tensor(a.value * b.value, (a, b), bwd, "mul")


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        a.accumulate(_unbroadcast(g / b.value, a.value.shape))
        b.accumulate(_unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return Tensor(a.value / b.value, (a, b), bwd, "div")


def exp(a):
    a = as_tensor(a)
    y = np.exp(a.value)

    def bwd(g):
        a.accumulate(g * y)

    return Tensor(y, (a,), bwd, "exp")


def log(a):
    a = as_tensor(a)

    def bwd(g):
        a.accumulate(g / a.value)

    return Tensor(np.log(a.value), (a,), bwd, "log")


def softplus(a):
    a = as_tensor(a)

    def bwd(g):
        a.accumulate(g / (1.0 + np.exp(-a.value)))

    # max(x, 0) + log1p(exp(-|x|)) in one output buffer
    y = np.empty_like(a.value)
    np.abs(a.value, out=y)
    np.negative(y, out=y)
    np.exp(y, out=y)
    np.log1p(y, out=y)
    np.add(y, a.value, out=y, where=a.value > 0)
    return Tensor(y, (a,), bwd, "softplus")


def lgamma(a):
    a = as_tensor(a)

    def bwd(g):
        a.accumulate(g * _digamma_fn(a.value))

    return Tensor(gammaln(a.value), (a,), bwd, "lgamma")


def clamp(a, lo=None, hi=None):
    """Clip values; gradient passes only through the unclamped region."""
    a = as_tensor(a)
    inside = np.ones(a.value.shape, dtype=bool)
    if lo is not None:
        inside &= a.value > lo
    if hi is not None:
        inside &= a.value < hi

    def bwd(g):
        a.accumulate(g * inside)

    return Tensor(np.clip(a.value, lo, hi), (a,), bwd, "clamp")


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.value.shape).copy())

    return Tensor(a.value.sum(axis=axis, keepdims=keepdims), (a,), bwd, "sum")


def matmul(a, b):
    """2-D product; vectors must be carried as column matrices.

    A scipy sparse left operand is a constant with a fixed sparsity pattern:
    gradients then flow only to ``b``.
    """
    b = as_tensor(b)
    if sp.issparse(a):
        return Tensor(a @ b.value, (b,), lambda g: b.accumulate(a.T @ g), "matmul")
    a = as_tensor(a)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul expects 2-D operands")

    def bwd(g):
        a.accumulate(g @ b.value.T)
        b.accumulate(a.value.T @ g)

    return Tensor(a.value @ b.value, (a, b), bwd, "matmul")


def gather_rows(a, idx):
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        out = np.zeros(a.value.shape)
        np.add.at(out, idx, g)
        a.accumulate(out)

    return Tensor(a.value[idx], (a,), bwd, "gather_rows")


class Neighborhoods:
    """Directed attention edges sorted by source node: the CSR pattern of
    the N x N attention matrix, ``indptr`` over the source nodes and ``dst``
    as column indices.  Every node must own at least one edge."""

    def __init__(self, src, dst, num_nodes):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        if np.any(self.src[1:] < self.src[:-1]):
            raise ValueError("attention edges must be sorted by source node")
        self.sizes = np.bincount(self.src, minlength=num_nodes)
        if np.any(self.sizes == 0):
            raise ValueError(f"empty neighborhood for node {int(np.flatnonzero(self.sizes == 0)[0])}")
        self.indptr = np.concatenate(([0], np.cumsum(self.sizes)))
        self.num_nodes = num_nodes

    def spread(self, per_node):
        """Each node's value repeated over the edges it is the source of."""
        return np.repeat(per_node, self.sizes)

    def softmax(self, v):
        """Softmax of the per-edge values over each source's neighborhood,
        each neighborhood's max subtracted first."""
        starts = self.indptr[:-1]
        e = np.exp(v - self.spread(np.maximum.reduceat(v, starts)))
        e /= self.spread(np.add.reduceat(e, starts))
        return e


def attention_layer(h, watts, w1s, a_vec, nbhd, noise, slope, clip, softmax_of_log):
    """One multi-head Bayesian-attention layer as a single primitive.

    Head c scores edge e = (i, j) of ``nbhd`` with
    ``m = clip(LeakyReLU(a_src . h_i watt_c + a_dst . h_j watt_c), ±clip)``,
    draws the attention weight ``s = exp(m) noise[c, e]``, or takes its mean
    ``exp(m)`` when ``noise`` is None (``noise`` is the (H, E) Weibull factor
    with mean one), normalizes s, or ``ln s`` when ``softmax_of_log``, by a
    softmax over i's neighborhood, and sums ``h_j w1_c`` with those weights;
    the output is the mean over the heads.  ``h`` is a constant sparse matrix
    or a tensor.  Since ``a_src . h_i watt_c = h_i (watt_c a_src)``, a head
    multiplies ``h`` once, by ``[w1_c | watt_c a_src | watt_c a_dst]``.  Each
    head's weights fill one CSR matrix ``A_c`` over the shared pattern.

    The backward pass is closed-form: ``A_cᵀ g / H`` to each head's values,
    the softmax adjoint from ``g[src]`` gathered once, the score adjoints
    summed per node by source and by destination, and one product
    ``hᵀ dproj`` for every head's matrices.  A head's projection and edge
    arrays are kept for it only when the primitive is recorded, so a pass
    over constants holds one head's at a time.
    """
    dense_in = not sp.issparse(h)
    if dense_in:
        h = as_tensor(h)
    watts, w1s, a_vec = [as_tensor(w) for w in watts], [as_tensor(w) for w in w1s], as_tensor(a_vec)
    parents = ((h,) if dense_in else ()) + tuple(watts) + tuple(w1s) + (a_vec,)
    recorded = _records(parents)
    hv = h.value if dense_in else h
    heads, k = len(watts), watts[0].value.shape[1]
    a_src, a_dst = a_vec.value[:k], a_vec.value[k:]
    src, dst, n = nbhd.src, nbhd.dst, nbhd.num_nodes
    right = [np.concatenate([w1.value, watt.value @ a_src, watt.value @ a_dst], axis=1)
             for watt, w1 in zip(watts, w1s)]
    agg, kept = np.zeros((n, k)), []
    for c in range(heads):
        proj = hv @ right[c]  # values, then the source and destination score halves
        m = proj[src, k] + proj[dst, k + 1]
        leak = np.where(m > 0, 1.0, slope)
        m *= leak
        leak *= np.abs(m) < clip  # the clip's zero gradient where it binds
        s = np.exp(np.clip(m, -clip, clip, out=m), out=m)
        if noise is not None:
            s *= noise[c]
        mat = sp.csr_matrix(
            (nbhd.softmax(np.log(s) if softmax_of_log else s), dst, nbhd.indptr), shape=(n, n)
        )
        agg += mat @ proj[:, :k]
        if recorded:  # d(draw)/dm is s, and d(ln s)/dm is 1
            kept.append((proj, mat, leak if softmax_of_log else s * leak))

    def bwd(g):
        g = g * (1.0 / heads)
        g_src = g[src]
        d_proj = np.empty((n, heads * (k + 2)))
        for c, (proj, mat, factor) in enumerate(kept):
            block = d_proj[:, c * (k + 2) : (c + 1) * (k + 2)]
            block[:, :k] = mat.T @ g
            weights = mat.data
            d_v = weights * np.einsum("ek,ek->e", g_src, proj[dst, :k])
            d_v -= weights * nbhd.spread(np.add.reduceat(d_v, nbhd.indptr[:-1]))
            d_m = d_v * factor
            block[:, k] = np.bincount(src, weights=d_m, minlength=n)
            block[:, k + 1] = np.bincount(dst, weights=d_m, minlength=n)
        d_right = (hv.T @ d_proj).reshape(-1, heads, k + 2)
        d_a = np.zeros((2 * k, 1))
        for c, (watt, w1) in enumerate(zip(watts, w1s)):
            d_score = d_right[:, c, k:]
            w1.accumulate(d_right[:, c, :k])
            watt.accumulate(d_score @ a_vec.value.reshape(2, k))
            d_a += (watt.value.T @ d_score).T.reshape(2 * k, 1)
        a_vec.accumulate(d_a)
        if dense_in:
            h.accumulate(d_proj @ np.concatenate(right, axis=1).T)

    return Tensor(agg * (1.0 / heads), parents, bwd, "attention_layer")


def weibull_transform(shape_t, scale_t, eps):
    """Reparameterized Weibull draw ``scale * (-ln(1-eps))**(1/shape)``.

    ``eps`` is fixed uniform noise (clamped away from {0, 1}); gradients flow
    through shape and scale only.
    """
    shape_t, scale_t = as_tensor(shape_t), as_tensor(scale_t)
    eps = np.clip(np.asarray(eps, dtype=np.float64), EPS_FLOOR, 1.0 - EPS_FLOOR)
    w = -np.log1p(-eps)
    y = scale_t.value * np.power(w, 1.0 / shape_t.value)

    def bwd(g):
        shape_t.accumulate(
            _unbroadcast(-g * y * np.log(w) / (shape_t.value * shape_t.value), shape_t.value.shape)
        )
        scale_t.accumulate(_unbroadcast(g * np.power(w, 1.0 / shape_t.value), scale_t.value.shape))

    return Tensor(y, (shape_t, scale_t), bwd, "weibull_transform")


def poisson_bow_loglik(theta, phi, x_csc, node_weights):
    """Poisson bag-of-words log-likelihood, the ``ln x!`` constant dropped.

    ``theta`` is (N, K), ``phi`` a constant (V, K) topic matrix, ``x_csc`` the
    V x N count matrix in CSC form (another sparse format is converted).
    Only nonzero counts touch the log term; the exposure term reduces to
    column sums of phi.  The (N,) per-node weights scale each node's
    contribution (subsampling debias).  The θ-gradient of the log term is
    one product: the N x V CSR matrix over the same arrays (``x_csc.T``),
    holding ``x w / rate`` in storage order, times phi.
    """
    theta = as_tensor(theta)
    phi = np.asarray(phi, dtype=np.float64)
    x_csc = sp.csc_matrix(x_csc)
    n = theta.value.shape[0]
    w = np.asarray(node_weights, dtype=np.float64)
    v_idx, x = x_csc.indices, x_csc.data
    j_idx = np.repeat(np.arange(n), np.diff(x_csc.indptr))
    rates = np.einsum("ek,ek->e", phi[v_idx], theta.value[j_idx])
    rates = np.maximum(rates, 1e-30)
    col = phi.sum(axis=0)
    value = float(np.dot(x * w[j_idx], np.log(rates)) - (w @ theta.value) @ col)

    def bwd(g):
        coef = sp.csr_matrix((x * w[j_idx] / rates, v_idx, x_csc.indptr), shape=(n, phi.shape[0]))
        acc = coef @ phi
        acc -= w[:, None] * col[None, :]
        theta.accumulate(g * acc)

    return Tensor(value, (theta,), bwd, "poisson_bow_loglik")


class EdgePattern:
    """An undirected edge list over N nodes with the pattern of its
    symmetric N x N matrix, built once per batch: row i lists the edges at
    node i, first those where i is the first endpoint, in edge order."""

    def __init__(self, edges, num_nodes):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.src, self.dst = edges[:, 0], edges[:, 1]
        self.num_nodes = num_nodes
        ends = edges.T.ravel()
        order = np.argsort(ends, kind="stable")
        self.cols = edges[:, ::-1].T.ravel()[order]
        self.slot_edge = np.tile(np.arange(len(edges)), 2)[order]
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=num_nodes))))

    def __len__(self):
        return len(self.src)

    def symmetric(self, edge_values):
        """The N x N CSR matrix holding ``edge_values[e]`` at (i, j) and (j, i)."""
        n = self.num_nodes
        return sp.csr_matrix((edge_values[self.slot_edge], self.cols, self.indptr), shape=(n, n))


def bernoulli_poisson_loglik(thetas, us, pairs, node_weights):
    """Bernoulli-Poisson log-likelihood of a binary edge set over all pairs.

    ``sum_{i<j} [a_ij ln(1 - e^{-S_ij}) - (1 - a_ij) S_ij]`` with
    ``S_ij = sum_t sum_k u_k θ_ik θ_jk``, computed in O(E + NK) by writing the
    all-pairs exposure as a square-of-sums identity.  ``pairs`` is the
    batch's :class:`EdgePattern`.  The (N,) per-node weights w_i turn each
    pair term into ``w_i w_j * term`` (subsampling debias); edge
    probabilities are floored at 1e-12.  Each layer's θ-gradient over the
    edges is one product of the symmetric matrix of the edge adjoints with
    ``θ u``.
    """
    thetas = [as_tensor(t) for t in thetas]
    us = [as_tensor(u) for u in us]
    src, dst = pairs.src, pairs.dst
    w = np.asarray(node_weights, dtype=np.float64)

    s_e = np.zeros(len(src))
    for th, u in zip(thetas, us):
        s_e += np.einsum("ek,ek->e", th.value[src] * u.value[None, :], th.value[dst])
    one_minus = np.maximum(-np.expm1(-s_e), 1e-12)
    w_e = w[src] * w[dst]

    value = float(np.dot(w_e, np.log(one_minus) + s_e))
    for th, u in zip(thetas, us):
        z = th.value * w[:, None]
        tot, sq = z.sum(axis=0), (z * z).sum(axis=0)
        value -= 0.5 * float(u.value @ (tot * tot - sq))

    def bwd(g):
        g_e = w_e / one_minus
        sym = pairs.symmetric(g_e)
        for th, u in zip(thetas, us):
            z = th.value * w[:, None]
            tot = z.sum(axis=0)
            d_th = sym @ (th.value * u.value[None, :])
            d_th -= u.value[None, :] * (w[:, None] * tot[None, :] - (w * w)[:, None] * th.value)
            th.accumulate(g * d_th)
            pair_prod = np.einsum("ek,ek->k", th.value[src], th.value[dst] * g_e[:, None])
            sq = (z * z).sum(axis=0)
            u.accumulate(g * (pair_prod - 0.5 * (tot * tot - sq)))

    return Tensor(value, tuple(thetas) + tuple(us), bwd, "bernoulli_poisson_loglik")


def _topological(root):
    """The tensors of ``root``'s recorded graph, each after its inputs."""
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return topo


def backward(root):
    """Reverse pass from a scalar root; fills ``grad`` on reachable tensors."""
    if root.value.ndim != 0:
        raise ValueError("backward requires a scalar root")
    root.accumulate(np.ones(()))
    for node in reversed(_topological(root)):
        if node.bwd is not None and node.grad is not None:
            node.bwd(node.grad)


def evaluate_with_gradients(fn, params):
    """Evaluate a scalar expression and return (value, gradient per parameter).

    ``fn`` maps a dict of leaf Tensors to a scalar Tensor.  A NaN or Inf in
    the recorded graph raises ``NumericsError`` naming the first primitive,
    in evaluation order, that produced one.
    """
    leaves = {k: Tensor(v) for k, v in params.items()}
    out = fn(leaves)
    if out.value.ndim != 0:
        raise ValueError("expression root must be scalar")
    for node in _topological(out):
        if not np.all(np.isfinite(node.value)):
            raise NumericsError(f"non-finite value produced by primitive {node.op!r}")
    backward(out)
    grads = {k: (t.grad if t.grad is not None else np.zeros(t.value.shape)) for k, t in leaves.items()}
    return float(out.value), grads


class GradCheckReport:
    """Outcome of a finite-difference comparison over every coordinate."""

    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.max_rel_err = 0.0
        self.failures = []  # (param, flat index, analytic, numeric, rel err)
        self.kinks = []  # non-checkable coordinates (one-sided slopes disagree)
        self.checked = 0

    @property
    def ok(self):
        return not self.failures

    def __repr__(self):
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"GradCheckReport({status}, checked={self.checked}, "
            f"max_rel_err={self.max_rel_err:.3e}, kinks={len(self.kinks)})"
        )


def check_gradients(fn, params, tolerance=1e-4, step=1e-5, abs_tol=1e-6):
    """Central finite-difference check of ``fn``'s gradients at ``params``.

    The step is relative (``step * max(1, |x|)``).  A coordinate passes when
    the relative error is within tolerance or the absolute gap is below
    ``abs_tol`` (near-zero gradients sit inside finite-difference round-off).
    Coordinates where the two one-sided slopes disagree are reported as
    kinks instead of failures.
    """
    value, grads = evaluate_with_gradients(fn, params)

    def eval_at(p):
        leaves = {k: Tensor(v) for k, v in p.items()}
        return float(fn(leaves).value)

    report = GradCheckReport(tolerance)
    for name, x in params.items():
        x = np.asarray(x, dtype=np.float64)
        flat = x.ravel()
        g_flat = np.asarray(grads[name]).ravel()
        for i in range(flat.size):
            h = step * max(1.0, abs(flat[i]))
            bumped = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}
            bumped[name].ravel()[i] = flat[i] + h
            f_plus = eval_at(bumped)
            bumped[name].ravel()[i] = flat[i] - h
            f_minus = eval_at(bumped)
            central = (f_plus - f_minus) / (2 * h)
            analytic = g_flat[i]
            gap = abs(analytic - central)
            scale = max(abs(analytic), abs(central))
            rel = gap / max(scale, 1e-12)
            report.checked += 1
            if scale > 1e-5:  # keep round-off-dominated coordinates out of the headline
                report.max_rel_err = max(report.max_rel_err, rel)
            if rel > tolerance and gap > abs_tol:
                fwd = (f_plus - value) / h
                back = (value - f_minus) / h
                slope_gap = abs(fwd - back) / max(abs(fwd), abs(back), 1e-6)
                if slope_gap > 0.1:
                    report.kinks.append((name, i))
                else:
                    report.failures.append((name, i, analytic, central, rel))
    return report
