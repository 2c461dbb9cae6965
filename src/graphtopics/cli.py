"""Command-line entry point: ingest, train, eval, export, selftest.

Every run resolves its configuration (plain ``key = value`` file, any key
overridable with ``--set key=value``), hashes its inputs, and writes a
manifest next to its outputs so results are reproducible bit for bit.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, fields


@dataclass
class TaskConfig:
    """Settings of the command around a run: edge and label splits, the
    checkpoint cadence and the ingest graph threshold.  The config keys are
    the fields of this class and of ``training.TrainConfig``."""

    val_frac: float = 0.05
    test_frac: float = 0.10
    split_seed: int = 0
    train_per_class: int = 20
    val_nodes: int = 500
    test_nodes: int = 1000
    checkpoint_every: int = 0  # 0: only the final checkpoint
    tau_adjacency: float = 0.5  # cosine threshold of a feature-built graph


class UsageError(ValueError):
    pass


def _config_fields():
    """Annotated type of every config key."""
    from .training import TrainConfig

    return {f.name: f.type for cls in (TrainConfig, TaskConfig) for f in fields(cls)}


def _parse_value(key, raw):
    kind = _config_fields().get(key)
    if kind is None:
        raise UsageError(f"unknown config key {key!r}")
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is tuple:
            return tuple(int(p) for p in raw.replace(",", " ").split())
        if kind == float | None:
            return None if raw.lower() in ("none", "decoder") else float(raw)
        return kind(raw)
    except ValueError:
        raise UsageError(f"bad value for config key {key!r}: {raw!r}") from None


def parse_config_file(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            try:
                values[key] = _parse_value(key, raw)
            except UsageError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
    return values


def resolve_config(args):
    """Config file < --set overrides < dedicated flags; returns a plain dict."""
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        values[key] = _parse_value(key, raw)
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    return values


def _split_config(values):
    """Partition resolved values into a validated TrainConfig and a TaskConfig."""
    from .training import TrainConfig

    task_keys = {f.name for f in fields(TaskConfig)}
    task = TaskConfig(**{k: v for k, v in values.items() if k in task_keys})
    try:
        config = TrainConfig(**{k: v for k, v in values.items() if k not in task_keys}).validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return config, task


def resolve_data_path(path):
    """Fall back to $GRAPHTOPICS_DATA for relative dataset paths."""
    if os.path.exists(path):
        return path
    root = os.environ.get("GRAPHTOPICS_DATA")
    if root and not os.path.isabs(path):
        candidate = os.path.join(root, path)
        if os.path.exists(candidate):
            return candidate
    return path


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_manifest(out_dir, command, values, inputs, artifacts, seed):
    import numpy as np
    import scipy

    from . import __version__

    manifest = {
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            **{var: os.environ.get(var) for var in _THREAD_VARS},
        },
        "command": command,
        "config": values,
        "seed": seed,
        "inputs": {p: sha256_file(p) for p in inputs if p and os.path.exists(p)},
        "artifacts": artifacts,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def cmd_ingest(args):
    from .graph_data import (
        build_cosine_adjacency,
        load_content_cites,
        load_edge_list,
        load_triples,
        save_dataset,
    )

    os.makedirs(args.out_dir, exist_ok=True)
    values = resolve_config(args)
    _, task = _split_config(values)
    dataset_path = os.path.join(args.out_dir, "dataset.npz")
    inputs = [args.features]
    if args.format == "cora-content":
        if not args.cites:
            raise UsageError("cora-content format requires --cites")
        inputs.append(args.cites)
        x, labels, graph, id_map = load_content_cites(args.features, args.cites)
        map_path = os.path.join(args.out_dir, "id_map.json")
        with open(map_path, "w", encoding="utf-8") as fh:
            json.dump(id_map, fh)
    else:
        x, labels = load_triples(args.features), None
        if args.edges:
            graph = load_edge_list(args.edges, num_nodes=x.num_nodes)
            inputs.append(args.edges)
        else:
            graph = build_cosine_adjacency(x, task.tau_adjacency)
    save_dataset(dataset_path, x, graph, labels)
    write_manifest(args.out_dir, "ingest", values, inputs, [dataset_path], values.get("seed", 0))
    print(f"dataset: {x.num_nodes} nodes, vocab {x.vocab_size}, {graph.num_edges} edges"
          + (f", {labels.num_classes} classes" if labels else ""))
    print(f"wrote {dataset_path}")
    return 0


def cmd_train(args):
    import numpy as np

    from .checkpoint import save_checkpoint
    from .graph_data import load_dataset, split_edges, standard_label_split
    from .training import TrainingAborted, train_full_batch, train_scalable

    os.makedirs(args.out_dir, exist_ok=True)
    values = resolve_config(args)
    config, task = _split_config(values)
    args.data = resolve_data_path(args.data)
    x, graph, labels = load_dataset(args.data)

    extra = {"task": args.task}
    if args.task == "link-pred":
        split = split_edges(graph, task.val_frac, task.test_frac, task.split_seed)
        train_graph = split.train
        np.savez_compressed(
            os.path.join(args.out_dir, "split.npz"),
            train_edges=split.train.edges,
            train_values=split.train.values,
            **{f.name: getattr(split, f.name) for f in fields(split) if f.name != "train"},
            num_nodes=graph.num_nodes,
        )
        labels_for_training = None
    elif args.task == "classify":
        if labels is None:
            raise UsageError("classification needs a labeled dataset")
        train_idx, val_idx, test_idx = standard_label_split(
            labels, task.train_per_class, task.val_nodes, task.test_nodes
        )
        masked = np.full(len(labels.labels), -1, dtype=np.int64)
        masked[train_idx] = labels.labels[train_idx]
        from .graph_data import LabelVector

        labels_for_training = LabelVector(masked, labels.num_classes)
        extra["label_split"] = {
            "train": train_idx.tolist(),
            "val": val_idx.tolist(),
            "test": test_idx.tolist(),
        }
        train_graph = graph
    else:  # unsupervised: cluster or plain fit
        train_graph = graph
        labels_for_training = None

    ckpt_path = os.path.join(args.out_dir, "checkpoint.npz")
    log_path = os.path.join(args.out_dir, "training_log.jsonl")
    hook = None
    if task.checkpoint_every > 0:

        def hook(it, state, weights, elapsed):
            if it and it % task.checkpoint_every == 0:
                save_checkpoint(
                    os.path.join(args.out_dir, f"checkpoint_iter{it}.npz"),
                    state, weights, extra={"iteration": it}, seed=config.seed,
                )

    trainer = train_full_batch if config.trainer == "full_batch" else train_scalable
    try:
        result = trainer(x, train_graph, config, labels=labels_for_training, eval_hook=hook)
    except TrainingAborted as exc:  # keeps the state, weights and log as the failure left them
        result, extra = exc, {"aborted": True}

    save_checkpoint(ckpt_path, result.state, result.weights, extra=extra, seed=config.seed)
    _write_log(log_path, result.log)
    artifacts = [ckpt_path, log_path]
    write_manifest(args.out_dir, f"train[{args.task}]", values, [args.data], artifacts, config.seed)
    if isinstance(result, TrainingAborted):
        print(f"training aborted: {result}", file=sys.stderr)
        return 3
    print(f"trained {config.trainer}/{config.encoder} for {config.iterations} iterations "
          f"in {result.wall_time:.1f}s; checkpoint at {ckpt_path}")
    return 0


def _write_log(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _load_run(run_dir, data_path):
    from .checkpoint import load_checkpoint
    from .graph_data import load_dataset

    state, weights, extra = load_checkpoint(os.path.join(run_dir, "checkpoint.npz"))
    x, graph, labels = load_dataset(resolve_data_path(data_path))
    return state, weights, extra, x, graph, labels


def cmd_eval(args):
    import numpy as np

    from .evaluation import classify_nodes, cluster_nodes, link_prediction_eval
    from .graph_data import AdjacencyGraph, EdgeSplit
    from .training import encode_posterior_means

    state, weights, extra, x, graph, labels = _load_run(args.run_dir, args.data)
    if args.task == "link-pred":
        data = dict(np.load(os.path.join(args.run_dir, "split.npz")))
        data["seed"] = int(data["seed"])
        train = AdjacencyGraph(
            int(data.pop("num_nodes")), data.pop("train_edges"), data.pop("train_values")
        )
        split = EdgeSplit(train=train, **data)
        means = encode_posterior_means(weights, x, split.train, state)
        report = link_prediction_eval(weights.u_values(), means, split, which=args.which)
    elif args.task == "cluster":
        if labels is None:
            raise UsageError("clustering needs labels for scoring")
        means = encode_posterior_means(weights, x, graph, state)
        reps = np.concatenate(means, axis=1)
        report = cluster_nodes(reps, labels.num_classes, labels.labels, seed=args.seed or 0)
    elif args.task == "classify":
        if "label_split" not in extra:
            raise UsageError("checkpoint was not trained for classification")
        from .encoders import classifier_logits

        means = encode_posterior_means(weights, x, graph, state)
        logits = classifier_logits(means[0], weights)
        report = classify_nodes(logits, labels.labels, extra["label_split"][args.which_nodes])
    else:
        raise UsageError(f"unknown eval task {args.task!r}")

    print(report.table())
    out_path = os.path.join(args.run_dir, f"metrics_{args.task}.jsonl")
    with open(out_path, "a", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    return 0


def cmd_export(args):
    from .checkpoint import load_checkpoint
    from .export import export_subnetwork, export_topic_tree, write_export

    state, _, _ = load_checkpoint(os.path.join(args.run_dir, "checkpoint.npz"))
    vocab = None
    if args.vocabulary:
        with open(args.vocabulary, "r", encoding="utf-8") as fh:
            vocab = [line.strip() for line in fh if line.strip()]
    if vocab is None:
        vocab = [f"term_{v}" for v in range(state.vocab_size)]

    if args.kind == "topic-tree":
        layer, topic = (int(p) for p in args.root.split(","))
        tree = export_topic_tree(state, (layer, topic), args.tau, vocab)
        base = os.path.join(args.run_dir, f"topic_tree_L{layer}K{topic}")
        paths = write_export(tree, base)
    else:
        net = export_subnetwork(state, args.node, args.tau, vocab)
        base = os.path.join(args.run_dir, f"subnetwork_{args.node}")
        paths = write_export(net, base)
    print("wrote " + " and ".join(paths))
    return 0


def cmd_selftest(args):
    from .selftest import run_selftest

    ok = run_selftest(verbose=True, seed=args.seed or 0)
    return 0 if ok else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphtopics",
        description="Relational topic modeling of document networks",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="cap numpy thread pools for this run")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="corpus/edges -> internal dataset")
    p.add_argument("--format", choices=["tsv-triples", "cora-content"], required=True)
    p.add_argument("--features", required=True, help="triples file or content file")
    p.add_argument("--cites", help="cites file (cora-content)")
    p.add_argument("--edges", help="edge list file (tsv-triples)")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="run a training algorithm")
    p.add_argument("--data", required=True, help="dataset.npz from ingest")
    p.add_argument("--task", choices=["fit", "link-pred", "classify"], default="fit")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a trained run")
    p.add_argument("--data", required=True)
    p.add_argument("--run", dest="run_dir", required=True)
    p.add_argument("--task", choices=["link-pred", "cluster", "classify"], required=True)
    p.add_argument("--which", choices=["val", "test"], default="test")
    p.add_argument("--which-nodes", choices=["val", "test"], default="test")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="topic trees and subnetworks")
    p.add_argument("--run", dest="run_dir", required=True)
    p.add_argument("kind", choices=["topic-tree", "subnetwork"])
    p.add_argument("--root", help="layer,topic for topic-tree (e.g. 3,0)")
    p.add_argument("--node", type=int, help="source node for subnetwork")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--vocabulary", help="one term per line")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("selftest", help="sampler, gradient, and conjugacy checks")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
