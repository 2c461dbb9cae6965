"""Checkpoint container: one .npz holding decoder state, encoder weights, meta.

Array names: ``phi_T``/``theta_T``/``u_T`` per layer (1-based), ``c``/``p``
scale arrays, ``gamma0``, and ``enc/<name>`` for every encoder parameter.
A JSON ``meta`` entry records widths, iteration counter and seed, the
``DecoderHyper`` fields under ``hyper`` (all but the ``gamma0`` array) and
the ``EncoderWeights`` fields under ``encoder`` (all but the ``params``
arrays), so a checkpoint alone reproduces scoring.
The archive is stored uncompressed: compression saves about a fifth of the
bytes at some thirty times the write time.
"""

import json
from dataclasses import fields

import numpy as np

from .decoder import DecoderHyper, DecoderState
from .encoders import EncoderWeights


def _fields_without(record, skipped):
    """A dataclass record's fields by name, in declaration order, without
    the field named ``skipped`` (whose arrays are stored apart)."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name != skipped}


def save_checkpoint(path, state, weights=None, extra=None, seed=None):
    arrays = {"c": state.c, "p": state.p, "gamma0": state.gamma0}
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
        "hyper": _fields_without(state.hyper, "gamma0"),
        "extra": extra or {},
    }
    if weights is not None:
        meta["encoder"] = _fields_without(weights, "params")
        for name, value in weights.params.items():
            arrays[f"enc/{name}"] = value
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Returns (DecoderState, EncoderWeights or None, extra dict)."""
    data = np.load(path, allow_pickle=False)
    meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    widths = meta["widths"]
    state = DecoderState(
        widths=widths,
        vocab_size=meta["vocab_size"],
        num_nodes=meta["num_nodes"],
        phis=[data[f"phi_{l}"] for l in range(1, len(widths) + 1)],
        thetas=[data[f"theta_{l}"] for l in range(1, len(widths) + 1)],
        us=[data[f"u_{l}"] for l in range(1, len(widths) + 1)],
        c=data["c"],
        p=data["p"],
        gamma0=data["gamma0"],
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
