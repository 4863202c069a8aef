"""End-to-end command-line checks, run in process through main()."""

import json
from pathlib import Path

import numpy as np
import pytest

from hydronets.cli import main
from hydronets.data import SynthConfig, load_series
from hydronets.model import init_hydronet, load_checkpoint, Dims
from hydronets.region import dump_region, parse_region


def write_exp_config(path, out_dir, **overrides):
    doc = {
        "dims": {"window": 4, "embedding": 2, "horizon": 1},
        "train": {"learning_rate": 0.02, "epochs": 2, "batch_size": 32},
        "seeds": [0],
        "metric": "r2_persist",
        "out_dir": str(out_dir),
        "synth": SynthConfig(branching=2, height=2, n_steps=160, noise_std=0.05, seed=3).to_dict(),
    }
    doc.update(overrides)
    Path(path).write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_valid_region(self, tmp_path, fork_graph, capsys):
        f = tmp_path / "region.json"
        f.write_text(dump_region(fork_graph))
        assert main(["validate", str(f)]) == 0
        assert capsys.readouterr().out.startswith("ok: 4 basins")

    def test_cycle_fails(self, tmp_path, capsys):
        doc = {
            "basins": [{"id": "a", "name": "a"}, {"id": "b", "name": "b"}],
            "edges": [["a", "b"], ["b", "a"]],
        }
        f = tmp_path / "region.json"
        f.write_text(json.dumps(doc))
        assert main(["validate", str(f)]) == 1
        assert "cycle-detected" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2


class TestGenSynth:
    def test_outputs_parse_and_agree(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-synth", "--out", str(out), "--seed", "7"]) == 0
        g = parse_region((out / "region.json").read_text())
        store = load_series((out / "series.csv").read_text(), g)
        assert store.n_steps == SynthConfig().n_steps
        assert json.loads((out / "synth.json").read_text())["seed"] == 7

    def test_deterministic(self, tmp_path):
        main(["gen-synth", "--out", str(tmp_path / "a"), "--seed", "7"])
        main(["gen-synth", "--out", str(tmp_path / "b"), "--seed", "7"])
        for name in ("region.json", "series.csv", "synth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_file(self, tmp_path):
        cfg = SynthConfig(branching=1, height=3, n_steps=50, burst_rate=0.0)
        f = tmp_path / "synth.json"
        f.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "data"
        assert main(["gen-synth", "--config", str(f), "--out", str(out)]) == 0
        g = parse_region((out / "region.json").read_text())
        assert len(g.basins) == 3
        store = load_series((out / "series.csv").read_text(), g)
        # no rain bursts means the river never rises
        for bid in g.basin_ids:
            assert np.all(store.values[bid][:, 1] == 0.0)


class TestTrainEvaluate:
    def test_zero_lr_checkpoint_equals_init(self, tmp_path):
        cfg_path = write_exp_config(
            tmp_path / "exp.json", tmp_path / "run",
            train={"learning_rate": 0.0, "epochs": 2, "batch_size": 32},
            seeds=[5],
        )
        assert main(["train", "--config", cfg_path]) == 0
        from hydronets.data import generate_synthetic
        g, _ = generate_synthetic(SynthConfig(branching=2, height=2, n_steps=160, noise_std=0.05, seed=3))
        got = load_checkpoint((tmp_path / "run" / "checkpoint.json").read_text(), g)
        want = init_hydronet(g, Dims(window=4, embedding=2, horizon=1), 5)
        np.testing.assert_array_equal(got.pack(), want.pack())

    def test_same_seed_same_checkpoint(self, tmp_path):
        a = write_exp_config(tmp_path / "a.json", tmp_path / "run_a")
        b = write_exp_config(tmp_path / "b.json", tmp_path / "run_b")
        main(["train", "--config", a])
        main(["train", "--config", b])
        assert (tmp_path / "run_a" / "checkpoint.json").read_bytes() == \
            (tmp_path / "run_b" / "checkpoint.json").read_bytes()

    def test_history_rows(self, tmp_path):
        cfg_path = write_exp_config(tmp_path / "exp.json", tmp_path / "run")
        main(["train", "--config", cfg_path])
        lines = (tmp_path / "run" / "history.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,loss"
        assert len(lines) == 3  # init loss plus one per epoch

    def test_linear_model(self, tmp_path, capsys):
        cfg_path = write_exp_config(tmp_path / "exp.json", tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--model", "linear"]) == 0
        doc = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        assert doc["kind"] == "linear"

    def test_unknown_target_fails(self, tmp_path, capsys):
        cfg_path = write_exp_config(tmp_path / "exp.json", tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--target", "nope"]) == 2
        assert "unknown-basin" in capsys.readouterr().err

    def test_evaluate_prints_scores(self, tmp_path, capsys):
        cfg_path = write_exp_config(tmp_path / "exp.json", tmp_path / "run")
        main(["train", "--config", cfg_path])
        capsys.readouterr()
        ckpt = str(tmp_path / "run" / "checkpoint.json")
        assert main([
            "evaluate", "--config", cfg_path, "--checkpoint", ckpt,
            "--out", str(tmp_path / "scores"),
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("basin,n,mse,r2,r2_persist\n")
        assert len(out.strip().split("\n")) == 4  # header + 3 basins
        assert (tmp_path / "scores" / "metrics.csv").read_text() == out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        f = tmp_path / "exp.json"
        f.write_text('{"bogus": 1}')
        string_epochs = write_exp_config(
            tmp_path / "typed.json", tmp_path / "run", train={"epochs": "3"}
        )
        for cfg_path in (str(f), string_epochs):
            assert main(["train", "--config", cfg_path]) == 2
            assert "invalid-config" in capsys.readouterr().err


class TestExperimentCommands:
    def test_exp_depth_smoke(self, tmp_path):
        cfg_path = write_exp_config(tmp_path / "exp.json", tmp_path / "run")
        assert main(["exp-depth", "--config", cfg_path]) == 0
        report = (tmp_path / "run" / "report.csv").read_text()
        assert report.startswith("key,basin,model,mean,std,n_seeds\n")
        assert "depth=2" in report

    def test_seed_and_out_overrides(self, tmp_path):
        cfg_path = write_exp_config(tmp_path / "exp.json", tmp_path / "ignored", seeds=[0, 1])
        out = tmp_path / "chosen"
        assert main(["exp-depth", "--config", cfg_path, "--seed", "9", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seeds"] == [9]

    def test_metric_override(self, tmp_path):
        cfg_path = write_exp_config(tmp_path / "exp.json", tmp_path / "run")
        assert main(["exp-depth", "--config", cfg_path, "--metric", "r2"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["metric"] == "r2"

    def test_exp_basins_smoke(self, tmp_path):
        cfg_path = write_exp_config(tmp_path / "exp.json", tmp_path / "run")
        assert main(["exp-basins", "--config", cfg_path, "--basins", "b0", "b1"]) == 0
        comparison = (tmp_path / "run" / "comparison.csv").read_text()
        assert len(comparison.strip().split("\n")) == 3

    def test_exp_scarcity_smoke(self, tmp_path):
        cfg_path = write_exp_config(tmp_path / "exp.json", tmp_path / "run")
        assert main([
            "exp-scarcity", "--config", cfg_path,
            "--sizes", "30", "60", "--basins", "b0",
        ]) == 0
        report = (tmp_path / "run" / "report.csv").read_text()
        assert "train=30" in report and "train=60" in report
