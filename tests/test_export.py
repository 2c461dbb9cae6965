import numpy as np
import pytest

import graphtopics.decoder as dec
import graphtopics.export as ex
from graphtopics.stochastic import RngStream


def trained_like_state(widths=(4, 3, 2), vocab=10, n=12, seed=0):
    return dec.init_decoder_state(list(widths), vocab, n, rng=RngStream(seed, (51,)))


VOCAB10 = [f"w{i}" for i in range(10)]


class TestTopicTree:
    def test_projection_sums_to_one(self):
        state = trained_like_state()
        for layer in (1, 2, 3):
            for k in range(state.widths[layer - 1]):
                profile = ex.projected_topic(state, layer, k)
                assert profile.sum() == pytest.approx(1.0)
                assert np.all(profile >= 0)

    def test_huge_threshold_single_node(self):
        state = trained_like_state()
        tree = ex.export_topic_tree(state, (3, 0), tau_topic=1e9, vocabulary=VOCAB10)
        assert tree.root.children == []
        assert len(tree.root.words) == 10

    def test_zero_threshold_full_fanout(self):
        state = trained_like_state()
        tree = ex.export_topic_tree(state, (3, 1), tau_topic=0.0, vocabulary=VOCAB10)
        assert len(tree.root.children) == state.widths[1]
        for child in tree.root.children:
            assert len(child.children) == state.widths[0]

    def test_identity_like_phi_top_words(self):
        state = trained_like_state(widths=(4,), vocab=4)
        state.phis[0] = np.eye(4) * 0.97 + 0.01
        state.phis[0] /= state.phis[0].sum(axis=0)
        tree = ex.export_topic_tree(state, (1, 2), tau_topic=1e9, vocabulary=["a", "b", "c", "d"])
        assert tree.root.words[0] == "c"

    def test_deterministic(self):
        state = trained_like_state()
        a = ex.export_topic_tree(state, (3, 0), 1.0, VOCAB10).to_dict()
        b = ex.export_topic_tree(state, (3, 0), 1.0, VOCAB10).to_dict()
        assert a == b

    def test_edges_connect_adjacent_layers_only(self):
        state = trained_like_state()
        tree = ex.export_topic_tree(state, (3, 0), 0.5, VOCAB10)
        for edge in tree.to_dict()["edges"]:
            assert edge["parent"][0] == edge["child"][0] + 1

    def test_root_out_of_range(self):
        state = trained_like_state()
        with pytest.raises(ValueError, match="out of range"):
            ex.export_topic_tree(state, (5, 0), 1.0, VOCAB10)

    def test_per_layer_thresholds(self):
        # one tau; a layer-t node's children are the layer t-1 topics whose
        # weight exceeds tau / K_{t-1}
        state = trained_like_state()
        tau = 0.9

        def check(node):
            phi = state.phis[node.layer - 1]
            want = np.flatnonzero(phi[:, node.index] > tau / phi.shape[0]) if node.layer > 1 else []
            assert [child.index for child in node.children] == list(want)
            for child in node.children:
                check(child)

        tree = ex.export_topic_tree(state, (3, 0), tau, VOCAB10)
        check(tree.root)
        assert tree.root.children and 0 < len(tree.to_dict()["edges"])


class TestSubnetwork:
    def test_infinite_threshold_empty(self):
        state = trained_like_state()
        net = ex.export_subnetwork(state, 0, tau_link=np.inf)
        assert net.links == []

    def test_zero_threshold_includes_all_positive(self):
        state = trained_like_state()
        net = ex.export_subnetwork(state, 0, tau_link=0.0)
        partners = {l.node for l in net.links}
        assert partners == set(range(1, state.num_nodes))

    def test_symmetry(self):
        state = trained_like_state(seed=3)
        tau = 0.4
        net_i = ex.export_subnetwork(state, 2, tau)
        net_j = ex.export_subnetwork(state, 7, tau)
        has_j = any(l.node == 7 for l in net_i.links)
        has_i = any(l.node == 2 for l in net_j.links)
        assert has_i == has_j

    def test_node_out_of_range(self):
        state = trained_like_state()
        with pytest.raises(ValueError, match="out of range"):
            ex.export_subnetwork(state, 99, 0.1)

    def test_strengths_exceed_threshold(self):
        state = trained_like_state(seed=4)
        tau = 0.25
        net = ex.export_subnetwork(state, 1, tau)
        assert all(l.strength > tau for l in net.links)


class TestWriteExport:
    def test_files_written(self, tmp_path):
        state = trained_like_state()
        tree = ex.export_topic_tree(state, (2, 0), 1.0, VOCAB10)
        text_path, json_path = ex.write_export(tree, str(tmp_path / "tree"))
        import json

        with open(json_path) as fh:
            payload = json.load(fh)
        assert payload["kind"] == "topic-tree"
        assert "layer 2 topic 0" in open(text_path).read()
