"""Seeded random streams and the elementary samplers used by the inference code.

Streams are derived from a (seed, stream path) pair via numpy's SeedSequence,
so any parallel unit of work (a document, an edge block, an iteration) can own
a reproducible, statistically independent generator.  All samplers accept
either an :class:`RngStream` or a bare ``numpy.random.Generator``.
"""

import numpy as np


class RngStream:
    """A reproducible random stream identified by (seed, stream path).

    Two streams with the same seed and path produce identical draws on any
    platform; distinct paths give independent streams.  A stream must not be
    shared between concurrent consumers; derive children instead.
    """

    def __init__(self, seed, path=()):
        if isinstance(path, int):
            path = (path,)
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self.gen = np.random.Generator(np.random.Philox(ss))

    def derive(self, *ids):
        """Child stream at ``path + ids``; deterministic and independent."""
        return RngStream(self.seed, self.path + tuple(int(i) for i in ids))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


def _gen(rng):
    return rng.gen if isinstance(rng, RngStream) else rng


def sample_gamma(shape, scale, rng):
    """Gamma draw(s) with the given shape and scale (mean = shape * scale).

    Shapes below one are handled with the boosting identity
    ``Gamma(a) = Gamma(a+1) * U^(1/a)``, which stays accurate where the
    density diverges at zero.
    """
    g = _gen(rng)
    shape = np.asarray(shape, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    if np.any(shape <= 0) or np.any(scale <= 0):
        raise ValueError("gamma shape and scale must be positive")
    out_shape = np.broadcast_shapes(shape.shape, scale.shape)
    shape = np.broadcast_to(shape, out_shape)
    small = shape < 1.0
    boosted = np.where(small, shape + 1.0, shape)
    draw = g.standard_gamma(boosted)
    if np.any(small):
        u = g.uniform(size=out_shape)
        # U^(1/a) in log space to avoid underflow for tiny a
        boost = np.exp(np.where(small, np.log(np.maximum(u, 1e-300)) / shape, 0.0))
        draw = draw * boost
    out = draw * scale
    return float(out) if out.ndim == 0 else out


def sample_dirichlet(concentrations, rng):
    """Dirichlet draw: normalized gamma variates; always sums to one."""
    conc = np.asarray(concentrations, dtype=np.float64)
    if conc.size == 0:
        raise ValueError("empty concentration vector")
    if np.any(conc <= 0):
        raise ValueError("concentrations must be positive")
    draws = np.maximum(sample_gamma(conc, 1.0, rng), 1e-300)
    draws = np.atleast_1d(draws)
    return draws / draws.sum()


def sample_truncated_poisson(rate, rng):
    """Poisson draw(s) conditioned to be >= 1.

    Rates >= 1 use plain rejection of zeros.  Rates < 1 use a two-stage
    scheme: return 1 with the exact conditional probability, otherwise
    sample the tail k >= 2 by thinning a shifted Poisson proposal.
    Works elementwise on arrays.
    """
    g = _gen(rng)
    rate_arr = np.asarray(rate, dtype=np.float64)
    if np.any(rate_arr <= 0):
        raise ValueError("rate must be positive")
    scalar = rate_arr.ndim == 0
    lam = np.atleast_1d(rate_arr).ravel()
    out = np.zeros(lam.shape, dtype=np.int64)

    big = lam >= 1.0
    if np.any(big):
        vals = g.poisson(lam[big])
        while np.any(vals == 0):
            redo = vals == 0
            vals[redo] = g.poisson(lam[big][redo])
        out[big] = vals

    small = ~big
    if np.any(small):
        lam_s = lam[small]
        p_one = lam_s * np.exp(-lam_s) / (-np.expm1(-lam_s))
        take_one = g.uniform(size=lam_s.shape) < p_one
        vals = np.ones(lam_s.shape, dtype=np.int64)
        pending = np.flatnonzero(~take_one)
        while pending.size:
            k = 2 + g.poisson(lam_s[pending])
            accept = g.uniform(size=pending.shape) < 2.0 / (k * (k - 1.0))
            vals[pending[accept]] = k[accept]
            pending = pending[~accept]
        out[small] = vals

    if scalar:
        return int(out[0])
    return out.reshape(rate_arr.shape)


def sample_crt(count, concentration, rng):
    """Chinese-restaurant-table draw: the number of occupied tables after
    ``count`` customers under the given concentration.

    Equals ``sum_i Bernoulli(a / (a + i))`` for i = 0..count-1; vectorized over
    arrays of counts/concentrations by sweeping i up to the largest count.
    """
    g = _gen(rng)
    n = np.asarray(count)
    a = np.asarray(concentration, dtype=np.float64)
    if np.any(n < 0):
        raise ValueError("count must be nonnegative")
    if np.any(a <= 0):
        raise ValueError("concentration must be positive")
    n_b, a_b = np.broadcast_arrays(n, a)
    scalar = n_b.ndim == 0
    n_f = np.atleast_1d(n_b).astype(np.int64).ravel()
    a_f = np.atleast_1d(a_b).astype(np.float64).ravel()
    tables = np.zeros(n_f.shape, dtype=np.int64)
    max_n = int(n_f.max()) if n_f.size else 0
    for i in range(max_n):
        active = np.flatnonzero(n_f > i)
        if active.size == 0:
            break
        ai = a_f[active]
        hit = g.uniform(size=active.shape) < ai / (ai + i)
        tables[active] += hit
    if scalar:
        return int(tables[0])
    return tables.reshape(n_b.shape)


def sample_multinomial_rows(counts, weight_rows, rng):
    """Row-wise multinomial splits: row r gets Multinomial(counts[r], weights[r]).

    Weight rows are unnormalized and must each have a positive sum.  Rows
    with a single trial (the bulk for binary features) take a vectorized
    categorical path.  Returns the nonzero cells of the split as
    ``(rows, slots, counts)`` arrays, single-trial rows first.
    """
    g = _gen(rng)
    counts = np.asarray(counts, dtype=np.int64)
    w = np.asarray(weight_rows, dtype=np.float64)
    totals = w.sum(axis=1)
    bad = (totals <= 0) & (counts > 0)
    if np.any(bad):
        raise ValueError(f"zero weight row for a positive count (row {np.flatnonzero(bad)[0]})")
    ones = np.flatnonzero(counts == 1)
    slot = np.zeros(0, np.int64)
    if ones.size:
        cum = np.cumsum(w[ones], axis=1)
        draw = g.uniform(size=ones.size) * totals[ones]
        slot = np.minimum(np.count_nonzero(draw[:, None] >= cum, axis=1), w.shape[1] - 1)
    rows, slots, cell_counts = [ones], [slot], [np.ones(ones.size, np.int64)]
    multi = np.flatnonzero(counts >= 2)
    if multi.size:
        p = w[multi] / totals[multi][:, None]
        split = g.multinomial(counts[multi], p)
        r, k = np.nonzero(split)
        rows.append(multi[r])
        slots.append(k)
        cell_counts.append(split[r, k])
    return np.concatenate(rows), np.concatenate(slots), np.concatenate(cell_counts)
