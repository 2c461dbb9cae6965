import os
from unittest import mock

import numpy as np
import pytest

import graphtopics.autodiff as ad
from graphtopics.graph_data import load_content_cites


def edge_set(graph):
    """A graph's edges as a set of (i, j) tuples."""
    return set(map(tuple, graph.edges))


def hidden_states(forward, params, *args, **kwargs):
    """Run an encoder ``forward`` and return (output, hidden states).

    Layer t's hidden state, the input of layer t + 1, is read off as the
    left operand of its product with the layer's shape weights ``w2_t``:
    the encoder output does not keep it.
    """
    shape_weights = {id(v) for k, v in params.items() if k.startswith("w2_")}
    hidden = []
    matmul = ad.matmul

    def spy(a, b):
        if id(b) in shape_weights:
            hidden.append(a)
        return matmul(a, b)

    with mock.patch.object(ad, "matmul", spy):
        out = forward(params, *args, **kwargs)
    assert len(hidden) == len(out.k_raw), "one product with w2_t per layer"
    return out, hidden


def cora_paths():
    """Locate cora.content / cora.cites under $GRAPHTOPICS_DATA or ./data."""
    roots = []
    if os.environ.get("GRAPHTOPICS_DATA"):
        roots.append(os.environ["GRAPHTOPICS_DATA"])
    roots += ["data", os.path.join(os.path.dirname(__file__), "..", "data")]
    for root in roots:
        content = os.path.join(root, "cora", "cora.content")
        cites = os.path.join(root, "cora", "cora.cites")
        if os.path.exists(content) and os.path.exists(cites):
            return content, cites
    return None


def require_cora():
    paths = cora_paths()
    if paths is None:
        pytest.skip(
            "Cora files not found: place cora.content and cora.cites under "
            "$GRAPHTOPICS_DATA/cora or ./data/cora (download is the user's "
            "responsibility; see README)"
        )
    return paths


@pytest.fixture(scope="session")
def cora_dataset():
    content, cites = require_cora()
    x, labels, graph, _ = load_content_cites(content, cites)
    return x, labels, graph
