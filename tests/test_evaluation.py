import json
import math

import numpy as np
import pytest

import graphtopics.decoder as dec
import graphtopics.evaluation as ev
from graphtopics.graph_data import AdjacencyGraph, split_edges
from graphtopics.stochastic import RngStream


def brute_force_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestAucAp:
    def test_perfect_separation(self):
        auc, ap = ev.auc_ap([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc == 1.0 and ap == 1.0

    def test_all_equal_scores_chance(self):
        auc, _ = ev.auc_ap([0.5] * 6, [1, 0, 1, 0, 1, 0])
        assert auc == 0.5

    def test_worked_example(self):
        auc, _ = ev.auc_ap([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])
        assert auc == 0.75

    def test_matches_bruteforce_on_small_inputs(self):
        g = np.random.default_rng(0)
        for trial in range(60):
            n = int(g.integers(3, 13))
            labels = np.zeros(n, int)
            labels[: int(g.integers(1, n))] = 1
            g.shuffle(labels)
            if labels.sum() in (0, n):
                continue
            scores = np.round(g.uniform(size=n), 1)  # coarse grid forces ties
            auc, _ = ev.auc_ap(scores, labels)
            assert auc == pytest.approx(brute_force_auc(scores, labels))

    def test_ap_with_ties_matches_group_processing(self):
        scores = np.array([0.9, 0.9, 0.5, 0.5, 0.1])
        labels = np.array([1, 0, 1, 0, 0])
        _, ap = ev.auc_ap(scores, labels)
        # thresholds at 0.9: P=1/2 R=1/2; at 0.5: P=2/4 R=1; at 0.1: P=2/5
        want = 0.5 * 0.5 + 0.5 * 0.5
        assert ap == pytest.approx(want)

    def test_degenerate_labels_rejected(self):
        with pytest.raises(ValueError):
            ev.auc_ap([0.1, 0.2], [1, 1])


class TestClustering:
    def test_permuted_labels_perfect(self):
        g = np.random.default_rng(1)
        truth = g.integers(0, 4, size=60)
        pred = (truth + 2) % 4  # a pure relabeling
        assert ev.clustering_accuracy(pred, truth) == 1.0
        assert ev.normalized_mutual_information(pred, truth) == pytest.approx(1.0)

    def test_single_cluster_two_balanced_classes(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.zeros(4, int)
        assert ev.clustering_accuracy(pred, truth) == 0.5
        assert ev.normalized_mutual_information(pred, truth) == 0.0

    def test_contingency_worked_example(self):
        # contingency [[2, 0], [1, 1]]: ACC = 3/4, NMI by direct formula
        pred = np.array([0, 0, 1, 1])
        truth = np.array([0, 0, 0, 1])
        assert ev.clustering_accuracy(pred, truth) == 0.75
        joint = np.array([[2, 0], [1, 1]]) / 4.0
        pa, pb = joint.sum(1), joint.sum(0)
        mi = sum(
            joint[i, j] * math.log(joint[i, j] / (pa[i] * pb[j]))
            for i in range(2)
            for j in range(2)
            if joint[i, j] > 0
        )
        ha = -sum(p * math.log(p) for p in pa)
        hb = -sum(p * math.log(p) for p in pb)
        want = mi / (0.5 * (ha + hb))
        got = ev.normalized_mutual_information(pred, truth)
        assert got == pytest.approx(want)

    def test_nmi_symmetric(self):
        g = np.random.default_rng(2)
        a = g.integers(0, 3, size=40)
        b = g.integers(0, 4, size=40)
        assert ev.normalized_mutual_information(a, b) == pytest.approx(
            ev.normalized_mutual_information(b, a)
        )

    def test_acc_invariant_under_cluster_permutation(self):
        g = np.random.default_rng(3)
        truth = g.integers(0, 3, size=50)
        pred = g.integers(0, 3, size=50)
        perm = np.array([2, 0, 1])
        assert ev.clustering_accuracy(pred, truth) == pytest.approx(
            ev.clustering_accuracy(perm[pred], truth)
        )

    def test_kmeans_separated_blobs(self):
        g = np.random.default_rng(4)
        pts = np.vstack(
            [g.normal(c, 0.05, size=(30, 2)) for c in ((0, 0), (5, 5), (0, 5))]
        )
        truth = np.repeat([0, 1, 2], 30)
        report = ev.cluster_nodes(pts, 3, truth, seed=0)
        assert report.values["acc"] == 1.0
        assert report.values["nmi"] == pytest.approx(1.0)

    def test_cluster_requires_two(self):
        with pytest.raises(ValueError):
            ev.cluster_nodes(np.zeros((4, 2)), 1, np.zeros(4, int), 0)


class TestLinkPredictionHarness:
    def _setup(self, seed=0):
        rng = RngStream(seed, (31,))
        state, x, edges = dec.sample_generative([4], 20, 60, rng, u_scale=0.02)
        graph = AdjacencyGraph.from_pairs(60, edges)
        split = split_edges(graph, 0.1, 0.2, seed=seed)
        return state, split

    def test_untrained_random_model_is_chance(self):
        _, split = self._setup(1)
        g = np.random.default_rng(5)
        aucs = []
        for rep in range(20):
            means = [np.abs(g.normal(size=(60, 4))) + 0.01]
            rep_out = ev.link_prediction_eval([np.ones(4)], means, split, "test")
            aucs.append(rep_out.values["auc"])
        assert abs(np.mean(aucs) - 0.5) < 0.06

    def test_true_parameters_beat_chance(self):
        state, split = self._setup(2)
        means = [t.T for t in state.thetas]
        report = ev.link_prediction_eval(state.us, means, split, "test")
        assert report.values["auc"] > 0.7

    def test_leakage_detected(self):
        state, split = self._setup(3)
        split.test_edges = split.train.edges[:3].copy()
        means = [t.T for t in state.thetas]
        with pytest.raises(ValueError, match="leakage"):
            ev.link_prediction_eval(state.us, means, split, "test")

    def test_leakage_detected_with_unsorted_train_edges(self):
        state, split = self._setup(3)
        order = np.random.default_rng(0).permutation(split.train.num_edges)
        split.train.edges, split.train.values = split.train.edges[order], split.train.values[order]
        means = [t.T for t in state.thetas]
        ev.link_prediction_eval(state.us, means, split, "test")  # no leak yet
        split.test_edges = np.vstack([split.test_edges, split.train.edges[-1:]])
        with pytest.raises(ValueError, match="leakage"):
            ev.link_prediction_eval(state.us, means, split, "test")


class TestClassifyNodes:
    def test_constant_predictor_on_single_class_test(self):
        logits = np.tile([5.0, 0.0, 0.0], (10, 1))
        labels = np.zeros(10, int)
        report = ev.classify_nodes(logits, labels, np.arange(5))
        assert report.values["accuracy"] == 1.0

    def test_random_predictor_near_chance(self):
        g = np.random.default_rng(6)
        logits = g.normal(size=(7000, 7))
        labels = g.integers(0, 7, size=7000)
        report = ev.classify_nodes(logits, labels, np.arange(7000))
        assert abs(report.values["accuracy"] - 1 / 7) < 0.02

    def test_missing_label_rejected(self):
        with pytest.raises(ValueError):
            ev.classify_nodes(np.zeros((3, 2)), np.array([0, -1, 1]), [1])


class TestMetricsReport:
    def test_seed_aggregation(self):
        report = ev.MetricsReport("link-prediction", {"auc": 0.85}, seeds=[0, 1], wall_time=1.0)
        assert "0.8500" in report.table()
        assert json.loads(report.to_json()) == {
            "task": "link-prediction", "values": {"auc": 0.85},
            "seeds": [0, 1], "wall_time": 1.0,
        }
