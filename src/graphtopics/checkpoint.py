"""Checkpoint container: one .npz holding decoder state, encoder weights, meta.

Array names: ``phi_T``/``theta_T``/``u_T`` per layer (1-based), the ``c``
scale array, and ``enc/<name>`` for every encoder parameter; the layer
probabilities and the top-layer shape vector are derived from these on
load, and the ``p`` and ``gamma0`` arrays that older checkpoints also hold
are ignored.  A JSON ``meta`` entry records widths, vocabulary size, node
count, iteration counter and seed, the ``DecoderHyper`` fields under
``hyper`` and the ``EncoderWeights`` fields under ``encoder`` (all but the
``params`` arrays), so a checkpoint alone reproduces scoring; the loader
checks the array shapes against the recorded widths and sizes.
The archive is stored uncompressed: compression saves about a fifth of the
bytes at some thirty times the write time.
"""

import json
from dataclasses import asdict, fields

import numpy as np

from .decoder import DecoderHyper, DecoderState
from .encoders import EncoderWeights


def save_checkpoint(path, state, weights=None, extra=None, seed=None):
    arrays = {"c": state.c}
    for l, (phi, theta, u) in enumerate(zip(state.phis, state.thetas, state.us), start=1):
        arrays[f"phi_{l}"] = phi
        arrays[f"theta_{l}"] = theta
        arrays[f"u_{l}"] = u
    meta = {
        "widths": list(state.widths),
        "vocab_size": state.vocab_size,
        "num_nodes": state.num_nodes,
        "iteration": state.iteration,
        "seed": seed,
        "hyper": asdict(state.hyper),
        "extra": extra or {},
    }
    if weights is not None:
        meta["encoder"] = {
            f.name: getattr(weights, f.name) for f in fields(weights) if f.name != "params"
        }
        for name, value in weights.params.items():
            arrays[f"enc/{name}"] = value
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Returns (DecoderState, EncoderWeights or None, extra dict).

    Raises ValueError when an array's shape disagrees with the widths,
    vocabulary size and node count that ``meta`` records.
    """
    data = np.load(path, allow_pickle=False)
    meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    dims, n = [meta["vocab_size"]] + list(meta["widths"]), meta["num_nodes"]
    layers = range(1, len(dims))
    shapes = {"c": (len(dims) + 1, n)}  # first: its rows tell the layer count
    for l in layers:
        shapes.update({f"phi_{l}": (dims[l - 1], dims[l]), f"theta_{l}": (dims[l], n),
                       f"u_{l}": (dims[l],)})
    arrays = {}
    for name, shape in shapes.items():
        arrays[name] = data[name]
        if arrays[name].shape != shape:
            raise ValueError(
                f"checkpoint array {name} has shape {arrays[name].shape}; meta gives {shape}"
            )
    state = DecoderState(
        phis=[arrays[f"phi_{l}"] for l in layers],
        thetas=[arrays[f"theta_{l}"] for l in layers],
        us=[arrays[f"u_{l}"] for l in layers],
        c=arrays["c"],
        hyper=DecoderHyper(**dict(meta["hyper"], eta=tuple(meta["hyper"]["eta"]))),
        iteration=meta["iteration"],
    )
    weights = None
    if "encoder" in meta:
        params = {
            name[len("enc/") :]: data[name] for name in data.files if name.startswith("enc/")
        }
        weights = EncoderWeights(**meta["encoder"], params=params)
    return state, weights, meta.get("extra", {})
