import math

import numpy as np
import pytest
from scipy.special import gammaln

import graphtopics.autodiff as ad
from graphtopics.stochastic import (
    RngStream,
    sample_crt,
    sample_dirichlet,
    sample_gamma,
    sample_multinomial_rows,
    sample_truncated_poisson,
)

N_BIG = 1_000_000


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(7, (1, 2)).gen.uniform(size=10)
        b = RngStream(7, (1, 2)).gen.uniform(size=10)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RngStream(7, (1,)).gen.uniform(size=10)
        b = RngStream(7, (2,)).gen.uniform(size=10)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic(self):
        a = RngStream(3).derive(4, 5).gen.uniform(size=4)
        b = RngStream(3, (4, 5)).gen.uniform(size=4)
        assert np.array_equal(a, b)

    def test_sampler_sequences_reproducible(self):
        out = []
        for _ in range(2):
            rng = RngStream(11, (0,))
            vals = [
                sample_gamma(0.4, 2.0, rng),
                float(sample_truncated_poisson(2.5, rng)),
                float(sample_crt(5, 1.3, rng)),
            ]
            out.append(vals)
        assert out[0] == out[1]


class TestGamma:
    def test_exponential_mean(self):
        rng = RngStream(1)
        draws = sample_gamma(np.ones(N_BIG), 3.0, rng)
        assert abs(draws.mean() - 3.0) / 3.0 < 0.01

    def test_moments_general_shape(self):
        rng = RngStream(2)
        k, s = 2.5, 1.5
        draws = sample_gamma(np.full(N_BIG, k), s, rng)
        assert abs(draws.mean() - k * s) / (k * s) < 0.01
        assert abs(draws.var() - k * s * s) / (k * s * s) < 0.02

    def test_small_shape_moments(self):
        rng = RngStream(3)
        k = 0.2
        draws = sample_gamma(np.full(N_BIG, k), 1.0, rng)
        assert abs(draws.mean() - k) / k < 0.02
        assert abs(draws.var() - k) / k < 0.03
        assert np.all(draws >= 0)

    def test_domain_errors(self):
        rng = RngStream(0)
        with pytest.raises(ValueError):
            sample_gamma(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_gamma(1.0, -1.0, rng)


class TestDirichlet:
    def test_sums_to_one_with_tiny_concentration(self):
        rng = RngStream(4)
        for _ in range(200):
            v = sample_dirichlet(np.full(2, 0.01), rng)
            assert v.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(v >= 0)

    def test_concentration_limit(self):
        # per-component std at concentration 1e6 is ~3.5e-4
        rng = RngStream(5)
        draws = np.array([sample_dirichlet(np.full(2, 1e6), rng) for _ in range(200)])
        assert np.allclose(draws, 0.5, atol=2.5e-3)
        assert np.allclose(draws.mean(axis=0), 0.5, atol=1e-4)

    def test_single_element(self):
        rng = RngStream(6)
        assert sample_dirichlet(np.array([0.3]), rng) == pytest.approx([1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_dirichlet(np.array([]), RngStream(0))


class TestTruncatedPoisson:
    def test_support_at_least_one(self):
        rng = RngStream(7)
        for rate in (0.01, 0.5, 1.0, 4.0, 20.0):
            draws = sample_truncated_poisson(np.full(5000, rate), rng)
            assert draws.min() >= 1

    @pytest.mark.parametrize("rate", [0.1, 1.0, 10.0])
    def test_mean_matches_closed_form(self, rate):
        # E[Pois+(lam)] = lam / (1 - exp(-lam))
        rng = RngStream(8)
        draws = sample_truncated_poisson(np.full(N_BIG, rate), rng)
        mean = rate / -math.expm1(-rate)
        second = (rate + rate * rate) / -math.expm1(-rate)
        sigma = math.sqrt((second - mean * mean) / N_BIG)
        assert abs(draws.mean() - mean) < 3 * sigma

    def test_small_rate_distribution_exact(self):
        # compare the full pmf at rate 0.3 against Poisson weights
        rng = RngStream(9)
        rate = 0.3
        draws = sample_truncated_poisson(np.full(N_BIG, rate), rng)
        norm = -math.expm1(-rate)
        for k in (1, 2, 3):
            expect = math.exp(-rate) * rate**k / math.factorial(k) / norm
            got = float(np.mean(draws == k))
            sigma = math.sqrt(expect * (1 - expect) / N_BIG)
            assert abs(got - expect) < 4 * sigma

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_truncated_poisson(0.0, RngStream(0))


class TestCrt:
    def test_degenerate_counts(self):
        rng = RngStream(10)
        assert sample_crt(0, 1.0, rng) == 0
        assert sample_crt(1, 0.01, rng) == 1  # first customer always opens a table

    def test_mean_matches_sum_formula(self):
        # E[CRT(3, 1)] = 1 + 1/2 + 1/3
        rng = RngStream(11)
        draws = sample_crt(np.full(N_BIG, 3), 1.0, rng)
        mean = 1 + 0.5 + 1 / 3
        p = [1 / (1 + i) for i in range(3)]
        var = sum(q * (1 - q) for q in p)
        assert abs(draws.mean() - mean) < 3 * math.sqrt(var / N_BIG)

    def test_bounds_and_all_tables_probability(self):
        rng = RngStream(12)
        n, a = 3, 2.0
        draws = sample_crt(np.full(200_000, n), a, rng)
        assert draws.min() >= 1 and draws.max() <= n
        p_all = np.prod([a / (a + i) for i in range(n)])
        got = float(np.mean(draws == n))
        sigma = math.sqrt(p_all * (1 - p_all) / 200_000)
        assert abs(got - p_all) < 4 * sigma

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_crt(-1, 1.0, RngStream(0))


class TestMultinomial:
    def test_rowwise_sums_exact(self):
        rng = RngStream(16)
        counts = np.array([5, 0, 17, 3])
        weights = np.abs(np.random.default_rng(0).normal(size=(4, 3))) + 0.01
        rows, slots, cell_counts = sample_multinomial_rows(counts, weights, rng)
        assert np.all(cell_counts > 0) and np.all((slots >= 0) & (slots < 3))
        assert np.array_equal(np.bincount(rows, weights=cell_counts, minlength=4), counts)

    def test_rowwise_zero_weight_with_count_rejected(self):
        with pytest.raises(ValueError):
            sample_multinomial_rows(np.array([2]), np.zeros((1, 3)), RngStream(0))


class TestWeibull:
    """The encoder's reparameterized draw ``ad.weibull_transform`` on uniform noise."""

    def test_fixed_noise_gives_scale(self):
        # eps = 1 - exp(-1) makes (-ln(1-eps)) = 1, so the draw equals scale
        eps = 1 - math.exp(-1)
        for shape in (0.5, 1.0, 7.0):
            assert ad.weibull_transform(shape, 2.5, eps).value == pytest.approx(2.5)

    def test_exponential_case(self):
        eps = RngStream(17).gen.uniform(size=N_BIG)
        draws = ad.weibull_transform(1.0, 2.0, eps).value
        assert abs(draws.mean() - 2.0) / 2.0 < 0.01

    @pytest.mark.parametrize("shape,scale", [(5.0, 1.0), (2.0, 3.0)])
    def test_first_two_moments(self, shape, scale):
        # E[X^m] = scale^m Gamma(1 + m/shape)
        eps = RngStream(18).gen.uniform(size=N_BIG)
        draws = ad.weibull_transform(shape, scale, eps).value
        for m in (1, 2):
            want = scale**m * math.exp(gammaln(1 + m / shape))
            got = float(np.mean(draws**m))
            assert abs(got - want) / want < 0.01
