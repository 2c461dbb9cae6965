import glob
import hashlib
import json
import os
import platform
from dataclasses import asdict, fields

import numpy as np
import pytest
import scipy

import graphtopics.decoder as dec
from graphtopics.checkpoint import load_checkpoint, save_checkpoint
from graphtopics.cli import (
    TaskConfig,
    _split_config,
    build_parser,
    main,
    parse_config_file,
    resolve_config,
)
from graphtopics.graph_data import AdjacencyGraph, SparseCountMatrix, save_dataset
from graphtopics.stochastic import RngStream

from conftest import edge_set

RECIPES = os.path.join(os.path.dirname(__file__), "..", "recipes")


@pytest.fixture()
def tiny_dataset(tmp_path):
    rng = RngStream(9, (61,))
    state, x_dense, edges = dec.sample_generative([3], 15, 40, rng, u_scale=0.05, eta_gen=0.1)
    v_idx, j_idx = np.nonzero(x_dense)
    x = SparseCountMatrix(40, 15, v_idx, j_idx, x_dense[v_idx, j_idx])
    graph = AdjacencyGraph.from_pairs(40, edges)
    from graphtopics.graph_data import LabelVector

    labels = LabelVector(np.random.default_rng(0).integers(0, 3, size=40), 3)
    path = tmp_path / "dataset.npz"
    save_dataset(str(path), x, graph, labels)
    return str(path)


class TestConfigParsing:
    def test_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nwidths = 8,4\nbeta = 2.5\ntrainer = scalable\nkl_rate_fixed = none\n")
        values = parse_config_file(str(cfg))
        assert values == {
            "widths": (8, 4),
            "beta": 2.5,
            "trainer": "scalable",
            "kl_rate_fixed": None,
        }

    def test_unknown_key_is_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("betta = 1.0\n")
        from graphtopics.cli import UsageError

        with pytest.raises(UsageError, match="betta"):
            parse_config_file(str(cfg))

    def test_unknown_key_exit_code(self, tmp_path, tiny_dataset):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope = 3\n")
        code = main(["train", "--data", tiny_dataset, "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 1

    def test_invalid_config_value_exit_code(self, tmp_path, tiny_dataset, capsys):
        code = main(["train", "--data", tiny_dataset, "--set", "trainer=foo",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "usage error: unknown trainer 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key",
        ["eval_seeds", "tau_topic", "tau_link", "normalize_features", "log_every", "debias",
         "supervised"],
    )
    def test_removed_keys_are_usage_errors(self, tmp_path, tiny_dataset, key):
        # these keys were ignored or had one value in use; they are now unknown
        code = main(["train", "--data", tiny_dataset, "--set", f"{key}=10",
                     "--out", str(tmp_path / "run")])
        assert code == 1

    @pytest.mark.parametrize(
        "recipe", sorted(glob.glob(os.path.join(RECIPES, "*.cfg"))), ids=os.path.basename
    )
    def test_recipe_parses_and_validates(self, recipe):
        values = parse_config_file(recipe)
        config, task = _split_config(values)
        assert config.iterations > 0 and isinstance(task, TaskConfig)
        task_keys = {f.name for f in fields(TaskConfig)}
        for key, value in values.items():
            assert getattr(task if key in task_keys else config, key) == value

    def test_every_field_settable(self):
        # one raw value per config key; the keys are exactly the fields
        raw = {
            "widths": "8 4", "beta": "2.5", "learning_rate": "0.01", "iterations": "3",
            "trainer": "scalable", "minibatch_nodes": "10", "subsample_mix": "0.5",
            "importance_exponent": "1.5", "seed": "4", "encoder": "attention", "heads": "2",
            "k_att": "5", "eta": "0.05", "kl_rate_fixed": "decoder", "recon_weight": "0.5",
            "softmax_of_log": "yes", "val_frac": "0.1", "test_frac": "0.2", "split_seed": "1",
            "train_per_class": "5", "val_nodes": "7", "test_nodes": "9",
            "checkpoint_every": "2", "tau_adjacency": "0.7",
        }
        args = build_parser().parse_args(
            ["train", "--data", "d.npz", "--out", "o"]
            + [arg for key, value in raw.items() for arg in ("--set", f"{key}={value}")]
        )
        config, task = _split_config(resolve_config(args))
        resolved = {**asdict(config), **asdict(task)}
        assert set(resolved) == set(raw)
        assert resolved["widths"] == (8, 4)
        assert resolved["kl_rate_fixed"] is None
        assert resolved["softmax_of_log"] is True
        for f in fields(config) + fields(task):
            if resolved[f.name] is not None:
                assert type(resolved[f.name]) is (float if f.type == float | None else f.type)

    @pytest.mark.parametrize(
        "settings",
        [["widths="], ["trainer=scalable", "minibatch_nodes=0"], ["encoder=attention", "heads=0"],
         ["encoder=attention", "k_att=0"], ["eta=0"], ["learning_rate=-1"], ["iterations=-1"]],
        ids=lambda settings: settings[-1],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, tiny_dataset, capsys, settings):
        code = main(["train", "--data", tiny_dataset, "--set", "iterations=2",
                     "--out", str(tmp_path / "run")]
                    + [arg for setting in settings for arg in ("--set", setting)])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.npz"),
                     "--out", str(tmp_path / "run")])
        assert code == 2


def _crafted_edges(edges, values, case):
    if case == "reversed":
        edges = edges.copy()
        edges[0] = edges[0, ::-1]
    elif case == "duplicate":
        edges, values = np.vstack([edges, edges[:1]]), np.append(values, values[0])
    elif case == "endpoint_out_of_range":
        edges = edges.copy()
        edges[-1, 1] = 40
    elif case == "zero_value":
        values = values.copy()
        values[0] = 0
    else:  # one value short
        values = values[:-1]
    return edges, values


class TestMalformedGraph:
    @pytest.mark.parametrize(
        "case", ["reversed", "duplicate", "endpoint_out_of_range", "zero_value", "length_mismatch"]
    )
    @pytest.mark.parametrize("task,encoder", [("fit", "attention"), ("link-pred", "conv")])
    def test_train_rejects_with_data_error(self, tmp_path, tiny_dataset, capsys, case, task, encoder):
        arrays = dict(np.load(tiny_dataset))
        arrays["edges"], arrays["edge_values"] = _crafted_edges(
            arrays["edges"], arrays["edge_values"], case
        )
        crafted = str(tmp_path / "crafted.npz")
        np.savez(crafted, **arrays)
        code = main(["train", "--data", crafted, "--task", task, "--set", f"encoder={encoder}",
                     "--set", "widths=3", "--set", "iterations=2", "--out", str(tmp_path / "run")])
        assert code == 2
        assert "data error" in capsys.readouterr().err


class TestIngest:
    def test_triples_with_cosine_graph(self, tmp_path):
        feats = tmp_path / "corpus.txt"
        feats.write_text("0 0 3\n0 1 1\n1 0 3\n1 1 1\n2 2 5\n")
        out = tmp_path / "ingested"
        code = main([
            "ingest", "--format", "tsv-triples", "--features", str(feats),
            "--set", "tau_adjacency=0.9", "--out", str(out),
        ])
        assert code == 0
        from graphtopics.graph_data import load_dataset

        x, graph, labels = load_dataset(str(out / "dataset.npz"))
        assert x.num_nodes == 3 and edge_set(graph) == {(0, 1)}
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(feats) in manifest["inputs"]

    def test_content_cites(self, tmp_path):
        content = tmp_path / "c.content"
        content.write_text("a 1 0 x\nb 0 1 y\nc 1 1 x\n")
        cites = tmp_path / "c.cites"
        cites.write_text("a b\nb c\n")
        out = tmp_path / "ingested"
        code = main([
            "ingest", "--format", "cora-content", "--features", str(content),
            "--cites", str(cites), "--out", str(out),
        ])
        assert code == 0
        assert (out / "id_map.json").exists()


def tamper_meta(path, **changes):
    """Rewrite a checkpoint with ``changes`` applied to its meta entry."""
    with np.load(path) as data:
        arrays = dict(data)
    meta = dict(json.loads(bytes(arrays["meta"]).decode("utf-8")), **changes)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


class TestTrainEvalExport:
    def test_link_pred_round_trip(self, tmp_path, tiny_dataset):
        run = tmp_path / "run"
        code = main([
            "train", "--data", tiny_dataset, "--task", "link-pred",
            "--set", "widths=3", "--set", "iterations=15", "--set", "val_frac=0.1",
            "--set", "test_frac=0.2", "--seed", "3", "--out", str(run),
        ])
        assert code == 0
        assert (run / "checkpoint.npz").exists()
        assert (run / "split.npz").exists()
        assert (run / "training_log.jsonl").exists()
        records = [json.loads(l) for l in (run / "training_log.jsonl").read_text().splitlines()]
        assert {"iteration", "elbo", "node_ll", "edge_ll", "kl", "wall_time"} <= set(records[0])
        code = main(["eval", "--data", tiny_dataset, "--run", str(run), "--task", "link-pred"])
        assert code == 0
        metrics = (run / "metrics_link-pred.jsonl").read_text()
        assert "auc" in metrics

    def test_eval_with_tampered_meta_is_data_error(self, tmp_path, tiny_dataset, capsys):
        run = tmp_path / "run"
        main(["train", "--data", tiny_dataset, "--set", "widths=3", "--set", "iterations=2",
              "--out", str(run)])
        tamper_meta(str(run / "checkpoint.npz"), num_nodes=7)
        code = main(["eval", "--data", tiny_dataset, "--run", str(run), "--task", "cluster"])
        assert code == 2
        assert "meta gives" in capsys.readouterr().err

    def test_train_determinism_across_runs(self, tmp_path, tiny_dataset):
        runs = []
        for name in ("a", "b"):
            run = tmp_path / name
            main([
                "train", "--data", tiny_dataset, "--set", "widths=3",
                "--set", "iterations=10", "--seed", "7", "--out", str(run),
            ])
            state, weights, _ = load_checkpoint(str(run / "checkpoint.npz"))
            runs.append((state, weights))
        assert np.array_equal(runs[0][0].phis[0], runs[1][0].phis[0])
        for name in runs[0][1].params:
            assert np.array_equal(runs[0][1].params[name], runs[1][1].params[name])

    def test_classify_round_trip(self, tmp_path, tiny_dataset):
        run = tmp_path / "run"
        code = main([
            "train", "--data", tiny_dataset, "--task", "classify",
            "--set", "widths=3", "--set", "iterations=10",
            "--set", "train_per_class=3", "--set", "val_nodes=10", "--set", "test_nodes=10",
            "--out", str(run),
        ])
        assert code == 0
        code = main(["eval", "--data", tiny_dataset, "--run", str(run), "--task", "classify"])
        assert code == 0

    def test_cluster_eval(self, tmp_path, tiny_dataset):
        run = tmp_path / "run"
        main(["train", "--data", tiny_dataset, "--set", "widths=3",
              "--set", "iterations=10", "--out", str(run)])
        code = main(["eval", "--data", tiny_dataset, "--run", str(run), "--task", "cluster"])
        assert code == 0

    def test_export_commands(self, tmp_path, tiny_dataset):
        run = tmp_path / "run"
        main(["train", "--data", tiny_dataset, "--set", "widths=3",
              "--set", "iterations=5", "--out", str(run)])
        code = main(["export", "topic-tree", "--run", str(run), "--root", "1,0", "--tau", "0.5"])
        assert code == 0
        assert (run / "topic_tree_L1K0.json").exists()
        code = main(["export", "subnetwork", "--run", str(run), "--node", "0", "--tau", "0.01"])
        assert code == 0
        assert (run / "subnetwork_0.txt").exists()

    def test_manifest_reproducibility_fields(self, tmp_path, tiny_dataset, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run = tmp_path / "run"
        main(["train", "--data", tiny_dataset, "--set", "widths=3",
              "--set", "iterations=5", "--seed", "4", "--out", str(run)])
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["seed"] == 4
        assert manifest["config"]["widths"] == [3]
        assert tiny_dataset in manifest["inputs"]
        assert len(manifest["inputs"][tiny_dataset]) == 64  # sha256 hex
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        assert env["OPENBLAS_NUM_THREADS"] == "2" and env["OMP_NUM_THREADS"] == "1"
        assert env["MKL_NUM_THREADS"] is None


class TestAbortedRun:
    @pytest.mark.parametrize("trainer", ["full_batch", "scalable"])
    def test_decoder_failure_keeps_checkpoint_and_log(
        self, tmp_path, tiny_dataset, capsys, monkeypatch, trainer
    ):
        import graphtopics.training as tr

        calls = []
        augment_layers = tr.augment_layers

        def fail_third_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise FloatingPointError("zero split rate for a positive count")
            return augment_layers(*args, **kwargs)

        monkeypatch.setattr(tr, "augment_layers", fail_third_call)
        out = tmp_path / "run"
        code = main(["train", "--data", tiny_dataset, "--set", f"trainer={trainer}",
                     "--set", "minibatch_nodes=20", "--set", "widths=3",
                     "--set", "iterations=5", "--out", str(out)])
        assert code == 3
        assert "training aborted: iteration 2" in capsys.readouterr().err
        _, weights, extra = load_checkpoint(str(out / "checkpoint.npz"))
        assert extra == {"aborted": True} and weights is not None
        records = [json.loads(line) for line in (out / "training_log.jsonl").read_text().splitlines()]
        assert [record["iteration"] for record in records] == [0, 1]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {
            "trainer": trainer, "minibatch_nodes": 20, "widths": [3], "iterations": 5,
        }
        with open(tiny_dataset, "rb") as fh:
            assert manifest["inputs"] == {tiny_dataset: hashlib.sha256(fh.read()).hexdigest()}
        assert manifest["artifacts"] == [str(out / "checkpoint.npz"), str(out / "training_log.jsonl")]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        # every scalar field off its default, so a field the meta drops shows
        hyper = dec.DecoderHyper(eta=(0.02, 0.03), e0=1.5, f0=0.7, alpha0=2.0, beta0=0.5)
        state = dec.init_decoder_state([3, 2], 8, 10, hyper, rng=RngStream(1, (71,)))
        from graphtopics.encoders import EncoderWeights, init_encoder_weights

        weights = init_encoder_weights(
            "attention", 8, [3, 2], RngStream(2), heads=3, k_att=2.5, softmax_of_log=True
        )
        weights.leaky_slope = 0.1
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, state, weights, extra={"note": "test"})
        state2, weights2, extra = load_checkpoint(path)
        assert state2.widths == [3, 2]
        assert np.array_equal(state.phis[1], state2.phis[1])
        assert np.array_equal(state.c, state2.c)
        for f in fields(dec.DecoderHyper):
            assert getattr(hyper, f.name) != f.default, f.name
            assert getattr(state2.hyper, f.name) == getattr(hyper, f.name), f.name
        for f in fields(EncoderWeights):
            if f.name != "params":
                assert getattr(weights, f.name) != f.default, f.name
                assert getattr(weights2, f.name) == getattr(weights, f.name), f.name
        assert weights2.kind == "attention" and weights2.heads == 3
        for name in weights.params:
            assert np.array_equal(weights.params[name], weights2.params[name])
        assert extra == {"note": "test"}

    @staticmethod
    def _drawn_state():
        state, _, _ = dec.sample_generative([3, 2], 8, 10, RngStream(3, (72,)))
        state.iteration = 4
        return state

    def test_derived_p_not_stored_and_bit_equal_after_roundtrip(self, tmp_path):
        state = self._drawn_state()
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, state)
        with np.load(path) as data:
            assert "c" in data.files and "p" not in data.files and "gamma0" not in data.files
        loaded, _, _ = load_checkpoint(path)
        assert loaded.p.dtype == state.p.dtype and loaded.p.tobytes() == state.p.tobytes()

    def test_checkpoint_with_stored_p_and_gamma0_loads(self, tmp_path):
        # the earlier format also held the derived p and gamma0 arrays
        state = self._drawn_state()
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, state, extra={"note": "old"})
        with np.load(path) as data:
            arrays = dict(data)
        arrays.update(p=state.p, gamma0=state.gamma0)
        old_path = str(tmp_path / "old.npz")
        np.savez(old_path, **arrays)
        loaded, weights, extra = load_checkpoint(old_path)
        assert weights is None and extra == {"note": "old"}
        for name in ("phis", "thetas", "us"):
            assert all(np.array_equal(a, b) for a, b in zip(getattr(state, name), getattr(loaded, name)))
        for name in ("c", "p", "gamma0"):
            assert np.array_equal(getattr(state, name), getattr(loaded, name)), name
        assert loaded.hyper == state.hyper and loaded.iteration == 4
        assert (loaded.widths, loaded.vocab_size, loaded.num_nodes) == ([3, 2], 8, 10)

    @pytest.mark.parametrize("key, value", [
        ("widths", [3, 3]), ("widths", [3]), ("widths", [3, 2, 2]), ("vocab_size", 9),
        ("num_nodes", 11),
    ])
    def test_meta_disagreeing_with_arrays_rejected(self, tmp_path, key, value):
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, self._drawn_state())
        tamper_meta(path, **{key: value})
        with pytest.raises(ValueError, match="meta gives"):
            load_checkpoint(path)


class TestSelftestCommand:
    def test_passes(self):
        assert main(["selftest"]) == 0
