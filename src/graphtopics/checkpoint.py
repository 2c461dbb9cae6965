"""Checkpoint container: one .npz holding decoder state, encoder weights, meta.

Array names: ``phi_T``/``theta_T``/``u_T`` per layer (1-based), ``c``/``p``
scale arrays, ``gamma0``, and ``enc/<name>`` for every encoder parameter.
A JSON ``meta`` entry records widths, hyperparameters, encoder settings,
iteration counter, and seed, so a checkpoint alone reproduces scoring.
The archive is stored uncompressed: compression saves about a fifth of the
bytes at some thirty times the write time.
"""

import json

import numpy as np

from .decoder import DecoderHyper, DecoderState
from .encoders import EncoderWeights


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
        "hyper": {
            "eta": list(state.hyper.eta),
            "e0": state.hyper.e0,
            "f0": state.hyper.f0,
            "alpha0": state.hyper.alpha0,
            "beta0": state.hyper.beta0,
        },
        "extra": extra or {},
    }
    if weights is not None:
        meta["encoder"] = {
            "kind": weights.kind,
            "vocab_size": weights.vocab_size,
            "widths": list(weights.widths),
            "heads": weights.heads,
            "k_att": weights.k_att,
            "leaky_slope": weights.leaky_slope,
            "softmax_of_log": weights.softmax_of_log,
        }
        for name, value in weights.params.items():
            arrays[f"enc/{name}"] = value
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Returns (DecoderState, EncoderWeights or None, extra dict)."""
    data = np.load(path, allow_pickle=False)
    meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    widths = meta["widths"]
    hyper = DecoderHyper(
        eta=tuple(meta["hyper"]["eta"]),
        e0=meta["hyper"]["e0"],
        f0=meta["hyper"]["f0"],
        alpha0=meta["hyper"]["alpha0"],
        beta0=meta["hyper"]["beta0"],
    )
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
        hyper=hyper,
        iteration=meta["iteration"],
    )
    weights = None
    if "encoder" in meta:
        einfo = meta["encoder"]
        params = {
            name[len("enc/") :]: data[name] for name in data.files if name.startswith("enc/")
        }
        weights = EncoderWeights(
            kind=einfo["kind"],
            vocab_size=einfo["vocab_size"],
            widths=einfo["widths"],
            heads=einfo["heads"],
            k_att=einfo["k_att"],
            leaky_slope=einfo["leaky_slope"],
            softmax_of_log=einfo["softmax_of_log"],
            params=params,
        )
    return state, weights, meta.get("extra", {})
