import math

import numpy as np
import pytest
import scipy.sparse as sp

import graphtopics.autodiff as ad
from graphtopics.selftest import toy_problem
from graphtopics.stochastic import RngStream
from graphtopics.training import TrainConfig, _encode, _full_graph_batches, _init_run

from conftest import hidden_states


def rnd(shape, seed=0, positive=False, offset=0.2):
    rng = np.random.default_rng(seed)
    out = rng.normal(size=shape)
    return np.abs(out) + offset if positive else out


class TestEvaluateWithGradients:
    def test_square(self):
        value, grads = ad.evaluate_with_gradients(
            lambda p: ad.mul(p["x"], p["x"]), {"x": np.array(3.0)}
        )
        assert value == 9.0
        assert grads["x"] == pytest.approx(6.0)

    def test_softplus_at_zero(self):
        value, grads = ad.evaluate_with_gradients(
            lambda p: ad.softplus(p["x"]), {"x": np.array(0.0)}
        )
        assert value == pytest.approx(math.log(2))
        assert grads["x"] == pytest.approx(0.5)

    def test_sparse_dense_linear_map(self):
        a = sp.random(6, 5, density=0.5, random_state=np.random.default_rng(0)).tocsr()
        h = rnd((5, 4), 1)

        def fn(p):
            return ad.tsum(ad.matmul(a, ad.matmul(ad.as_tensor(h), p["w"])))

        report = ad.check_gradients(fn, {"w": rnd((4, 3), 2)})
        assert report.ok and report.max_rel_err < 1e-4

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.evaluate_with_gradients(lambda p: ad.mul(p["x"], 2.0), {"x": np.ones(3)})

    def test_nan_names_primitive(self):
        with np.errstate(invalid="ignore"), pytest.raises(ad.NumericsError, match="log"):
            ad.evaluate_with_gradients(lambda p: ad.log(p["x"]), {"x": np.array(-1.0)})

    def test_fanout_accumulates(self):
        value, grads = ad.evaluate_with_gradients(
            lambda p: ad.add(p["x"], p["x"]), {"x": np.array(1.5)}
        )
        assert grads["x"] == pytest.approx(2.0)


class TestRecording:
    def test_primitive_over_constants_records_nothing(self):
        out = ad.mul(ad.exp(ad.as_tensor(rnd((3, 2)))), np.arange(2.0))
        assert out.parents == () and out.bwd is None

    def test_primitive_over_parameter_records_parents(self):
        x, c = ad.Tensor(rnd((3, 2))), ad.as_tensor(rnd((3, 2), 1))
        inner = ad.exp(x)
        out = ad.mul(c, inner)
        assert inner.parents == (x,) and out.parents == (c, inner) and out.bwd is not None

    @pytest.mark.parametrize("kind", ["conv", "attention"])
    def test_encoder_on_plain_weights_records_nothing(self, kind):
        # the resample and evaluation passes run the encoder on weights.params
        x, graph, _ = toy_problem(RngStream(4))
        config = TrainConfig(widths=(3, 2), encoder=kind, heads=2)
        _, _, weights = _init_run(x, config, None)
        batch = _full_graph_batches(x, graph, weights, None)(0)
        out, hidden = hidden_states(
            lambda params: _encode(params, weights, batch, None), weights.params
        )
        for t in hidden + out.k_raw + out.lam:
            assert t.parents == () and t.bwd is None


class TestPrimitiveGradients:
    CASES = {
        "exp": lambda p: ad.tsum(ad.exp(p["x"])),
        "log": lambda p: ad.tsum(ad.log(ad.add(ad.mul(p["x"], p["x"]), 0.5))),
        "softplus": lambda p: ad.tsum(ad.softplus(p["x"])),
        "lgamma": lambda p: ad.tsum(ad.lgamma(ad.add(ad.mul(p["x"], p["x"]), 0.3))),
        "div": lambda p: ad.tsum(ad.div(p["x"], ad.add(ad.mul(p["x"], p["x"]), 1.0))),
        "sum_axis": lambda p: ad.tsum(ad.mul(ad.tsum(p["x"], axis=0), np.arange(1.0, 5.0))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_random_input_gradcheck(self, name):
        report = ad.check_gradients(self.CASES[name], {"x": rnd((3, 4), seed=7)})
        assert report.ok, f"{name}: {report.failures[:3]}"
        assert report.max_rel_err < 1e-4

    def test_leaky_relu_gradient(self):
        report = ad.check_gradients(
            lambda p: ad.tsum(ad.leaky_relu(p["x"], 0.2)), {"x": rnd((4, 4), 3) + 0.05}
        )
        assert report.ok

    def test_leaky_relu_kink_flagged(self):
        report = ad.check_gradients(
            lambda p: ad.tsum(ad.leaky_relu(p["x"], 0.2)),
            {"x": np.array([0.0])},
            step=1e-5,
        )
        # exactly at the kink: not a failure, reported as non-checkable
        assert report.kinks and not report.failures

    def test_matmul_both_sides(self):
        def fn(p):
            return ad.tsum(ad.mul(ad.matmul(p["a"], p["b"]), rnd((3, 5), 9)))

        report = ad.check_gradients(fn, {"a": rnd((3, 4), 4), "b": rnd((4, 5), 5)})
        assert report.ok

    def test_broadcasting_unbroadcast(self):
        def fn(p):
            return ad.tsum(ad.mul(p["col"], p["mat"]))

        report = ad.check_gradients(fn, {"col": rnd((6, 1), 1), "mat": rnd((6, 4), 2)})
        assert report.ok

    def test_gather_segment_roundtrip(self):
        # rows gathered by dst and summed into src neighborhoods, at equal
        # weights: the gradient is the transposed sum
        src, dst = np.array([0, 0, 1, 2, 2]), np.array([0, 2, 2, 1, 0])

        def fn(p):
            agg = ad.attention_aggregate(np.zeros((5, 1)), p["x"], src, dst, 3)
            return ad.tsum(ad.mul(agg, rnd((3, 2), 8)))

        report = ad.check_gradients(fn, {"x": rnd((3, 2), 6)})
        assert report.ok

    def test_clamp_passes_gradient_inside_only(self):
        value, grads = ad.evaluate_with_gradients(
            lambda p: ad.tsum(ad.clamp(p["x"], lo=0.0, hi=1.0)),
            {"x": np.array([-0.5, 0.5, 2.0])},
        )
        assert np.allclose(grads["x"], [0.0, 1.0, 0.0])


def edge_weights(values, src, num_nodes):
    """The per-edge softmax weights of ``attention_aggregate``, read off by
    aggregating one identity row per edge."""
    n_edges = len(src)
    out = ad.attention_aggregate(values, np.eye(n_edges), src, np.arange(n_edges), num_nodes)
    return out.value[src, np.arange(n_edges)]


class TestSegmentSoftmax:
    """The neighborhood softmax inside ``attention_aggregate``."""

    def test_rows_sum_to_one(self):
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = ad.attention_aggregate(ad.Tensor(rnd((6, 1), 0)), np.ones((4, 1)), seg, seg, 3)
        assert np.allclose(out.value, 1.0, atol=1e-12)
        assert np.allclose(np.bincount(seg, weights=edge_weights(rnd((6, 1), 0), seg, 3)), 1.0)

    def test_single_member_segment_is_one(self):
        assert edge_weights(np.array([[42.0]]), np.array([0]), 1) == pytest.approx([1.0])

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError, match="empty neighborhood"):
            ad.attention_aggregate(np.array([[1.0]]), np.ones((3, 1)), [1], [0], 3)

    def test_unsorted_sources_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            ad.attention_aggregate(np.zeros((3, 1)), np.ones((2, 1)), [1, 0, 1], [0, 1, 1], 2)

    def test_gradients(self):
        src = np.array([0, 0, 0, 1, 1])
        dst = np.array([0, 1, 2, 1, 2])
        val = rnd((3, 2), 4)
        for with_val in (False, True):

            def fn(p):
                v = p["val"] if with_val else val
                agg = ad.attention_aggregate(ad.as_tensor(p["s"]), v, src, dst, 2)
                return ad.tsum(ad.mul(agg, rnd((2, 2), 9)))

            params = {"s": rnd((5, 1), 3)}
            if with_val:
                params["val"] = val
            report = ad.check_gradients(fn, params)
            assert report.ok, (with_val, report.failures[:3])

    def test_shift_invariance(self):
        seg = np.array([0, 0, 1, 1])
        s = rnd((4, 1), 5)
        assert np.allclose(edge_weights(s, seg, 2), edge_weights(s + 100.0, seg, 2))


class TestWeibullTransform:
    def test_analytic_partials(self):
        # d theta / d scale = w^(1/k); d theta / d shape = -theta ln(w) / k^2
        eps = np.array([0.3, 0.8])
        k, lam = np.array([2.0, 0.7]), np.array([1.5, 3.0])
        out = ad.weibull_transform(ad.Tensor(k), ad.Tensor(lam), eps)
        ad.backward(ad.tsum(out))
        w = -np.log1p(-eps)
        t_val = lam * w ** (1 / k)
        assert np.allclose(out.value, t_val)

        value, grads = ad.evaluate_with_gradients(
            lambda p: ad.tsum(ad.weibull_transform(p["k"], p["lam"], eps)),
            {"k": k, "lam": lam},
        )
        assert np.allclose(grads["lam"], w ** (1 / k))
        assert np.allclose(grads["k"], -t_val * np.log(w) / k**2)

    def test_matches_finite_differences(self):
        eps = np.random.default_rng(0).uniform(0.05, 0.9, size=6)

        def fn(p):
            return ad.tsum(ad.weibull_transform(p["k"], p["lam"], eps))

        report = ad.check_gradients(fn, {"k": rnd(6, 1, True, 0.5), "lam": rnd(6, 2, True, 0.5)})
        assert report.ok and report.max_rel_err < 1e-4

    def test_noise_clamped(self):
        out = ad.weibull_transform(ad.Tensor(np.array(1.0)), ad.Tensor(np.array(1.0)), np.array(1.0))
        assert np.isfinite(out.value)


class TestFusedLikelihoods:
    def test_poisson_bow_value_matches_dense(self):
        x = sp.csr_matrix(np.array([[2.0, 0.0], [1.0, 3.0], [0.0, 1.0]]))
        phi = rnd((3, 2), 1, True)
        theta = rnd((2, 2), 2, True)
        got = ad.poisson_bow_loglik(ad.Tensor(theta), phi, x, np.ones(2)).value
        rates = phi @ theta.T
        dense = x.toarray()
        want = np.sum(dense * np.log(rates) - rates)
        assert got == pytest.approx(want)

    def test_poisson_bow_gradients_weighted(self):
        x = sp.csr_matrix(np.random.default_rng(3).integers(0, 4, size=(5, 4)).astype(float))
        phi = rnd((5, 3), 4, True)
        w = rnd(4, 5, True)

        def fn(p):
            return ad.poisson_bow_loglik(p["theta"], phi, x, node_weights=w)

        report = ad.check_gradients(fn, {"theta": rnd((4, 3), 6, True)})
        assert report.ok

    def test_edge_loglik_value_matches_bruteforce(self):
        n = 5
        edges = np.array([[0, 1], [2, 3], [1, 4]])
        theta = rnd((n, 2), 7, True)
        u = rnd(2, 8, True)
        got = ad.bernoulli_poisson_loglik([ad.Tensor(theta)], [ad.Tensor(u)], edges, np.ones(n)).value
        present = set(map(tuple, edges))
        want = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                s = float(np.sum(u * theta[i] * theta[j]))
                if (i, j) in present:
                    want += math.log(-math.expm1(-s))
                else:
                    want += -s
        assert got == pytest.approx(want)

    def test_edge_loglik_gradients_multilayer_weighted(self):
        edges = np.array([[0, 1], [1, 2], [0, 3]])
        w = rnd(4, 11, True)

        def fn(p):
            return ad.bernoulli_poisson_loglik(
                [p["t1"], p["t2"]], [p["u1"], p["u2"]], edges, node_weights=w
            )

        params = {
            "t1": rnd((4, 2), 12, True),
            "t2": rnd((4, 3), 13, True),
            "u1": rnd(2, 14, True),
            "u2": rnd(3, 15, True),
        }
        report = ad.check_gradients(fn, params)
        assert report.ok and report.max_rel_err < 1e-4

    def test_edge_loglik_clamp_flagged(self):
        # the edge probability 1 - exp(-1e-400) underflows to the 1e-12 floor
        theta = np.full((2, 1), 1e-200)
        out = ad.bernoulli_poisson_loglik([ad.Tensor(theta)], [ad.Tensor(np.ones(1))], [[0, 1]], np.ones(2))
        assert out.value == np.log(1e-12)
