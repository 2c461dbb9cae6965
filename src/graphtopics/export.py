"""Interpretability exports: hierarchical topic trees and node subnetworks.

Both exports read a trained decoder state.  A topic's observation-space
profile is its column projected through every lower topic matrix, which
stays on the simplex, so the listed word probabilities always sum to one.
Output is an indented text rendering plus a machine-readable dict (nodes and
edges) for external drawing tools.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

_WORDS_PER_TOPIC = 10  # top words listed for each topic


@dataclass
class TopicNode:
    layer: int
    index: int
    words: list
    probs: list
    children: list = field(default_factory=list)


@dataclass
class TopicTree:
    root: TopicNode

    def to_dict(self):
        nodes, edges = [], []

        def walk(node):
            nodes.append(
                {
                    "id": [node.layer, node.index],
                    "words": node.words,
                    "probs": node.probs,
                }
            )
            for child in node.children:
                edges.append({"parent": [node.layer, node.index], "child": [child.layer, child.index]})
                walk(child)

        walk(self.root)
        return {"kind": "topic-tree", "nodes": nodes, "edges": edges}

    def to_text(self):
        lines = []

        def walk(node, depth):
            words = ", ".join(node.words)
            lines.append(f"{'  ' * depth}[layer {node.layer} topic {node.index}] {words}")
            for child in node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


@dataclass
class SubnetworkLink:
    layer: int
    topic: int
    node: int
    strength: float
    top_words: list


@dataclass
class Subnetwork:
    source: int
    links: list

    def to_dict(self):
        return {"kind": "subnetwork", **asdict(self)}

    def to_text(self):
        lines = [f"source node {self.source}"]
        for l in sorted(self.links, key=lambda x: (x.layer, -x.strength)):
            words = ", ".join(l.top_words)
            lines.append(
                f"  layer {l.layer} topic {l.topic}: node {l.node} "
                f"(strength {l.strength:.4g}) [{words}]"
            )
        return "\n".join(lines)


def projected_topic(state, layer, index):
    """Observation-space profile of topic (layer, index); sums to one."""
    column = state.phis[layer - 1][:, index]
    for l in range(layer - 2, -1, -1):
        column = state.phis[l] @ column
    return column


def top_words(profile, vocabulary):
    order = np.argsort(-profile)[:_WORDS_PER_TOPIC]
    return [vocabulary[i] for i in order], [float(profile[i]) for i in order]


def export_topic_tree(state, root, tau_topic, vocabulary):
    """Grow the topic tree downward from ``root = (layer, topic)``.

    Children of a node at layer t are the layer t-1 topics whose topic-matrix
    weight exceeds ``tau_topic / K_{t-1}``; each node is annotated with the
    top words of its projected profile.
    """
    layer, index = root
    if not (1 <= layer <= state.depth) or not (0 <= index < state.widths[layer - 1]):
        raise ValueError(f"root {root} out of range")
    if len(vocabulary) != state.vocab_size:
        raise ValueError("vocabulary length must match the feature dimension")

    def build(layer, index):
        profile = projected_topic(state, layer, index)
        words, probs = top_words(profile, vocabulary)
        node = TopicNode(layer, index, words, probs)
        if layer >= 2:
            phi = state.phis[layer - 1]
            threshold = tau_topic / phi.shape[0]
            for child_idx in np.flatnonzero(phi[:, index] > threshold):
                node.children.append(build(layer - 1, int(child_idx)))
        return node

    return TopicTree(build(layer, index))


def export_subnetwork(state, source, tau_link, vocabulary=None):
    """Neighbors of ``source`` whose per-topic affinity exceeds ``tau_link``.

    Includes node j at (layer t, topic k) when ``u_k θ_ik θ_jk > tau``;
    annotates each link with the connecting topic's top words.
    """
    if not 0 <= source < state.num_nodes:
        raise ValueError(f"node {source} out of range")
    links = []
    vocab = vocabulary or [f"term_{v}" for v in range(state.vocab_size)]
    profiles = {}
    for l in range(state.depth):
        theta = state.thetas[l]
        strengths = state.us[l][:, None] * theta[:, source : source + 1] * theta  # (K, N)
        strengths[:, source] = 0.0
        for k, j in zip(*np.nonzero(strengths > tau_link)):
            key = (l + 1, int(k))
            if key not in profiles:
                profiles[key] = top_words(projected_topic(state, l + 1, int(k)), vocab)[0]
            links.append(
                SubnetworkLink(l + 1, int(k), int(j), float(strengths[k, j]), profiles[key])
            )
    return Subnetwork(source, links)


def write_export(obj, path_base):
    """Write text and JSON renderings side by side; returns the two paths."""
    text_path = f"{path_base}.txt"
    json_path = f"{path_base}.json"
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(obj.to_text() + "\n")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(obj.to_dict(), fh, indent=2)
    return text_path, json_path
