"""Benchmark of graphtopics: three synthetic workloads shaped like the paper's
datasets, timed end to end, or per module with ``--trace 1``.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py                      # every workload, untraced then traced

A single workload prints a table and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced.  Without
``--workload`` each workload runs in its own process, untraced and then
traced, and the tracing overhead is printed.  Inputs are generated from the
seed on first use and cached under bench/cache; trace spans are written
under bench/out.
"""

import os

# One thread per math library, set before numpy is first imported. With the
# default pools the BLAS threads keep a second core busy (CPU time about 1.7x
# wall time on 2 cores) for no gain, and iteration tails spread further.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, "cache")
OUT = os.path.join(HERE, "out")


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def dataset_path(workload, seed):
    """Cached input for (workload, seed), generated in a child process so its
    memory never shows in the workload's peak RSS."""
    path = os.path.join(CACHE, f"{workload}-{seed}.npz")
    if not os.path.exists(path):
        os.makedirs(CACHE, exist_ok=True)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "inputs.py"), workload, str(seed), path], check=True
        )
    return path


# layers timed per call (set-up, checkpoint and evaluation); all others per iteration
_PER_CALL = {
    "graph_data.load_dataset", "graph_data.validate", "graph_data.split_edges",
    "graph_data.build_cosine_adjacency", "training.init", "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint", "training.encode_posterior_means",
    "evaluation.link_prediction_eval",
}


def per_layer_metrics(run, tracer, iter_ms_p50):
    """Per-layer figures from the spans: self time per measured iteration for
    the training loop, per call for set-up, checkpoint and evaluation; a
    layer that does not run on this workload reads 0."""
    measured = run.measured
    loop_ms, call_ms, calls = {}, {}, {}
    for name, it, ms in tracer.self_ms():
        if it is None:
            call_ms[name] = call_ms.get(name, 0.0) + ms
            calls[name] = calls.get(name, 0) + 1
        elif it in measured:
            loop_ms[name] = loop_ms.get(name, 0.0) + ms

    def counts(name, how):
        vals = [v for it, v in tracer.counts.get(name, []) if how == "max" or it in measured]
        if not vals:
            return 0.0
        if how == "per_iteration":
            return sum(vals) / len(measured)
        return max(vals) if how == "max" else sum(vals) / len(vals)

    out = {}
    for m in _benchmark_spec()["per_layer"]:
        name = m["name"]
        base = name[: -len("_ms")] if name.endswith("_ms") else name
        if name == "trace.iter_ms_p50":
            out[name] = iter_ms_p50
        elif name == "training.batches_with_edges_share":
            out[name] = run.info["batches_with_edges_share"]
        elif name in ("decoder.augment_edge_counts_latent_total", "stochastic.sample_crt_trips"):
            out[name] = counts(name, "per_iteration")
        elif name.endswith("_peak_mb") or name == "checkpoint.bytes":
            out[name] = counts(name, "max")
        elif not name.endswith("_ms"):
            out[name] = counts(name, "mean")
        elif base in _PER_CALL:
            out[name] = call_ms.get(base, 0.0) / max(calls.get(base, 0), 1)
        else:
            out[name] = loop_ms.get(base, 0.0) / len(measured)
    return out


def run_workload(args):
    """Run one workload in this process; returns the process exit code."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    spec = _benchmark_spec()
    planned = workloads.planned_operations(workloads.SPECS[args.workload], args.seconds)
    data = dataset_path(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()
    run = workloads.Run(args.workload, data, args.seed, args.seconds, OUT, tracer)
    try:
        e2e = run.run()
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": planned,
                          "failed": planned - run.done, "metrics": {}}))
        return 1
    finally:
        if tracer:
            tracer.uninstall()

    info = run.info
    print(f"workload {args.workload}  seed {args.seed}  {info['iterations_measured']} measured "
          f"iterations; tail = p{info['tail_percentile']}")
    print(f"  heldout AP {info['heldout_ap']:.6f}; degree-product AUC reference "
          f"val {info['degree_product_auc']['val']:.4f} test {info['degree_product_auc']['test']:.4f}")
    if tracer:
        metrics_spec = spec["per_layer"]
        values = per_layer_metrics(run, tracer, e2e["iter_ms_p50"])
        run.failures += tracer.violations
        trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "end_to_end": e2e,
                                  "per_layer": values, "info": info})
        print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics_spec, values = spec["end_to_end"], e2e
    metrics = {}
    for m in metrics_spec:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    for failure in run.failures:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps({"correct": not run.failures, "attempted": planned,
                      "failed": planned - run.done, "metrics": metrics}))
    return 0 if not run.failures else 1


def run_all(args):
    """Every workload in its own process, untraced then traced."""
    names = [w["name"] for w in _benchmark_spec()["workloads"]]
    summary, status = {}, 0
    for name in names:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            status |= proc.returncode
            lines = proc.stdout.strip().splitlines()
            results[trace] = json.loads(lines[-1]) if lines else None
        if results[0] and results[1] and results[0]["metrics"] and results[1]["metrics"]:
            plain = results[0]["metrics"]["iter_ms_p50"]["value"]
            traced = results[1]["metrics"]["trace.iter_ms_p50"]["value"]
            summary[name] = {"iter_ms_p50": plain, "traced_iter_ms_p50": traced,
                             "tracing_overhead": traced / plain - 1.0}
            print(f"  tracing overhead on {name}: {traced:.2f} ms against {plain:.2f} ms "
                  f"per iteration ({100 * (traced / plain - 1):+.1f}%)")
    print(json.dumps(summary))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in _benchmark_spec()["workloads"]],
                        help="one workload of BENCHMARK.json; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
