"""A small reverse-mode differentiation engine on numpy arrays.

Covers exactly the primitives the graph encoders and their objective need:
products with a dense or constant sparse left operand,
softplus/LeakyReLU/exp/log, log-gamma, clipping, row gathers and sums,
elementwise arithmetic with broadcasting, the Weibull noise transform, and
three fused primitives with hand-written backward rules: the attention
aggregation (neighborhood softmax times a sparse product), the Poisson
bag-of-words and the Bernoulli-Poisson edge likelihoods.  Double precision
throughout; gradients accumulate additively across fan-out.

A leaf built with ``Tensor(v)`` is a parameter; ``as_tensor`` wraps an array
as a constant.  A primitive records its parents and backward rule only when
one of its inputs depends on a parameter, so a pass over constants (the
trainer's resample and evaluation passes) keeps no graph alive.
"""

import numpy as np
import scipy.sparse as sp
from scipy.special import digamma as _digamma_fn
from scipy.special import gammaln

from ._scatter import scatter_rows

EPS_FLOOR = 1e-6  # uniform-noise clamp before the log-log path


class NumericsError(ArithmeticError):
    """A primitive of a checked expression produced a non-finite value."""


class Tensor:
    """A node in the expression graph: value, adjoint, and backward rule."""

    __slots__ = ("value", "grad", "parents", "bwd", "op")

    def __init__(self, value, parents=(), bwd=None, op="leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        for p in parents:  # a loop, not any(): this runs for every primitive
            if p.parents or p.op == "leaf":
                break
        else:
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


def leaky_relu(a, slope=0.2):
    a = as_tensor(a)
    mask = a.value > 0

    def bwd(g):
        a.accumulate(g * np.where(mask, 1.0, slope))

    return Tensor(np.where(mask, a.value, slope * a.value), (a,), bwd, "leaky_relu")


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
        a.accumulate(scatter_rows(idx, g, a.value.shape[0]).reshape(a.value.shape))

    return Tensor(a.value[idx], (a,), bwd, "gather_rows")


def attention_aggregate(values, val, src, dst, num_nodes):
    """Attention-weighted neighborhood sums ``out_i = sum_{e: src_e = i} ŝ_e val_{dst_e}``.

    ``ŝ`` is the softmax of the per-edge ``values`` over each node's
    neighborhood, the edges that share its ``src``; ``src`` must be sorted
    and every node must own at least one edge.  The weights form a CSR
    matrix ``A`` over the edges, so the forward pass is one sparse product;
    the backward pass gives ``Aᵀ g`` to ``val`` and ``ŝ (d - Σ_nbhd ŝ d)``,
    with ``d_e = g_{src_e} · val_{dst_e}``, to the values.  Each
    neighborhood's max is subtracted before the exponential, which leaves
    value and gradient exact.
    """
    values, val = as_tensor(values), as_tensor(val)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if np.any(src[1:] < src[:-1]):
        raise ValueError("attention edges must be sorted by source node")
    sizes = np.bincount(src, minlength=num_nodes)
    if np.any(sizes == 0):
        raise ValueError(f"empty neighborhood for segment {int(np.flatnonzero(sizes == 0)[0])}")
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    starts = indptr[:-1]
    v = values.value.ravel()
    e = np.exp(v - np.repeat(np.maximum.reduceat(v, starts), sizes))
    weights = e / np.repeat(np.add.reduceat(e, starts), sizes)
    a = sp.csr_matrix((weights, dst, indptr), shape=(num_nodes, val.value.shape[0]))

    def bwd(g):
        val.accumulate(a.T @ g)
        wd = weights * np.einsum("ek,ek->e", np.repeat(g, sizes, axis=0), val.value[dst])
        wd -= weights * np.repeat(np.add.reduceat(wd, starts), sizes)
        values.accumulate(wd.reshape(values.value.shape))

    return Tensor(a @ val.value, (values, val), bwd, "attention_aggregate")


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


def poisson_bow_loglik(theta, phi, x_csr, node_weights):
    """Poisson bag-of-words log-likelihood, the ``ln x!`` constant dropped.

    ``theta`` is (N, K), ``phi`` a constant (V, K) topic matrix, ``x_csr`` the
    sparse V x N count matrix.  Only nonzero counts touch the log term; the
    exposure term reduces to column sums of phi.  The (N,) per-node weights
    scale each node's contribution (subsampling debias).
    """
    theta = as_tensor(theta)
    phi = np.asarray(phi, dtype=np.float64)
    n = theta.value.shape[0]
    w = np.asarray(node_weights, dtype=np.float64)
    coo = x_csr.tocoo()
    v_idx, j_idx, x = coo.row, coo.col, coo.data
    rates = np.einsum("ek,ek->e", phi[v_idx], theta.value[j_idx])
    rates = np.maximum(rates, 1e-30)
    col = phi.sum(axis=0)
    value = float(np.dot(x * w[j_idx], np.log(rates)) - (w @ theta.value) @ col)

    def bwd(g):
        acc = scatter_rows(j_idx, (x * w[j_idx] / rates)[:, None] * phi[v_idx], n)
        acc -= w[:, None] * col[None, :]
        theta.accumulate(g * acc)

    return Tensor(value, (theta,), bwd, "poisson_bow_loglik")


def bernoulli_poisson_loglik(thetas, us, edges, node_weights):
    """Bernoulli-Poisson log-likelihood of a binary edge set over all pairs.

    ``sum_{i<j} [a_ij ln(1 - e^{-S_ij}) - (1 - a_ij) S_ij]`` with
    ``S_ij = sum_t sum_k u_k θ_ik θ_jk``, computed in O(E + NK) by writing the
    all-pairs exposure as a square-of-sums identity.  The (N,) per-node
    weights w_i turn each pair term into ``w_i w_j * term`` (subsampling
    debias); edge probabilities are floored at 1e-12.
    """
    thetas = [as_tensor(t) for t in thetas]
    us = [as_tensor(u) for u in us]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    w = np.asarray(node_weights, dtype=np.float64)

    s_e = np.zeros(len(edges))
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
        n_rows = thetas[0].value.shape[0]
        for th, u in zip(thetas, us):
            z = th.value * w[:, None]
            tot = z.sum(axis=0)
            d_th = scatter_rows(src, g_e[:, None] * (u.value[None, :] * th.value[dst]), n_rows)
            d_th += scatter_rows(dst, g_e[:, None] * (u.value[None, :] * th.value[src]), n_rows)
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
