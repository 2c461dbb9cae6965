import glob
import json
import os

import numpy as np
import pytest

import graphtopics.decoder as dec
from graphtopics.checkpoint import load_checkpoint, save_checkpoint
from graphtopics.cli import _TASK_DEFAULTS, _split_config, main, parse_config_file
from graphtopics.graph_data import AdjacencyGraph, SparseCountMatrix, save_dataset
from graphtopics.stochastic import RngStream

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

    @pytest.mark.parametrize("key", ["eval_seeds", "tau_topic", "tau_link"])
    def test_removed_keys_are_usage_errors(self, tmp_path, tiny_dataset, key):
        # these keys were accepted and silently ignored; they are now unknown
        code = main(["train", "--data", tiny_dataset, "--set", f"{key}=10",
                     "--out", str(tmp_path / "run")])
        assert code == 1

    @pytest.mark.parametrize(
        "recipe", sorted(glob.glob(os.path.join(RECIPES, "*.cfg"))), ids=os.path.basename
    )
    def test_recipe_parses_and_validates(self, recipe):
        config, task = _split_config(parse_config_file(recipe))
        assert config.iterations > 0 and set(task) == set(_TASK_DEFAULTS)

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.npz"),
                     "--out", str(tmp_path / "run")])
        assert code == 2


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
        assert x.num_nodes == 3 and graph.edge_set() == {(0, 1)}
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

    def test_manifest_reproducibility_fields(self, tmp_path, tiny_dataset):
        run = tmp_path / "run"
        main(["train", "--data", tiny_dataset, "--set", "widths=3",
              "--set", "iterations=5", "--seed", "4", "--out", str(run)])
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["seed"] == 4
        assert manifest["config"]["widths"] == [3]
        assert tiny_dataset in manifest["inputs"]
        assert len(manifest["inputs"][tiny_dataset]) == 64  # sha256 hex


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        state = dec.init_decoder_state([3, 2], 8, 10, rng=RngStream(1, (71,)))
        from graphtopics.encoders import init_encoder_weights

        weights = init_encoder_weights("attention", 8, [3, 2], RngStream(2), heads=2)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, state, weights, extra={"note": "test"})
        state2, weights2, extra = load_checkpoint(path)
        assert state2.widths == [3, 2]
        assert np.array_equal(state.phis[1], state2.phis[1])
        assert np.array_equal(state.c, state2.c)
        assert weights2.kind == "attention" and weights2.heads == 2
        for name in weights.params:
            assert np.array_equal(weights.params[name], weights2.params[name])
        assert extra == {"note": "test"}


class TestSelftestCommand:
    def test_passes(self):
        assert main(["selftest"]) == 0
