"""End-to-end command-line checks, run in process through main()."""

import contextlib
import copy
import io
import json
import math
import shutil
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hydronets.cli
from hydronets.cli import main
from hydronets.codec import from_doc
from hydronets.data import SynthConfig, generate_synthetic, load_series
from hydronets.errors import HydroNetsError
from hydronets.experiments import ExperimentConfig
from hydronets.model import init_flat, init_hydronet, load_checkpoint, save_checkpoint, Dims
from hydronets.presets import chain_fixture, tree_fixture
from hydronets.region import RegionGraph, drain_of, dump_region, parse_region

from conftest import make_series_text, run_python, tree_from_parents


def write_exp_config(path, out_dir, **overrides):
    doc = {
        "dims": {"window": 4, "embedding": 2, "horizon": 1},
        "train": {"learning_rate": 0.02, "epochs": 2, "batch_size": 32},
        "seeds": [0],
        "metric": "r2_persist",
        "out_dir": str(out_dir),
        "synth": asdict(SynthConfig(branching=2, height=2, n_steps=160, noise_std=0.05, seed=3)),
    }
    doc.update(overrides)
    Path(path).write_text(json.dumps(doc))
    return str(path)


DIMS = {"window": 4, "embedding": 2, "horizon": 1}
SYNTH = asdict(SynthConfig(branching=2, height=2, n_steps=160, noise_std=0.05, seed=3))

# Config overrides that must each exit 2 with invalid-config.
BAD_CONFIGS = [
    {"train": {"epochs": "3"}},
    {"seeds": ["a"]},
    {"seeds": 5},
    {"seeds": [0.7]},
    {"seeds": [-1]},
    {"seeds": [0, 0]},
    {"sizes": ["x"]},
    {"sizes": [30, 30]},
    {"sizes": [0]},
    {"basins": "b0"},
    {"basins": ["b0", "b0"]},
    {"basins": []},
    {"sizes": []},
    {"train_frac": "0.5"},
    {"workers": "2"},
    {"alpha": None},
    {"flat_depth": 1.5},
    {"dims": {**DIMS, "window": "x"}},
    {"dims": {**DIMS, "window": "24"}},
    {"dims": {**DIMS, "embedding": 2.9}},
    {"dims": {**DIMS, "horizon": True}},
    {"dims": {**DIMS, "window": 0}},
    {"dims": {"window": 4}},
    {"train": {"learning_rate": float("nan")}},
    {"train": {"seed": 99}},
    {"train": {"beta1": 1.0}},
    {"train": {"beta2": 1.0}},
    {"train": {"eps": 0.0}},
    {"synth": {**SYNTH, "noise_std": float("nan")}},
    {"synth": {**SYNTH, "delay": [1]}},
    # Every series has two channels.
    {"dims": {**DIMS, "channels": 1}},
    {"dims": {**DIMS, "channels": 3}},
    # Sizes beyond the largest numpy array fail before anything of that
    # size is allocated: the parameter vector (the second embedding's
    # shared map alone would fit), the series grid, a runoff kernel, and
    # a delay drawn as an int64.
    {"dims": {**DIMS, "channels": 10**30}},
    {"dims": {**DIMS, "embedding": 10**30}},
    {"dims": {**DIMS, "embedding": 800_000_000}},
    {"synth": {**SYNTH, "n_steps": 10**30}},
    {"synth": {**SYNTH, "height": 10**30}},
    {"synth": {**SYNTH, "branching": 1, "height": 10**30}},
    {"synth": {**SYNTH, "kernel_scale": [2.0, 1e300]}},
    {"synth": {**SYNTH, "delay": [1, 2**63]}},
]


class TestMain:
    def test_unexpected_error_is_internal_error(self, monkeypatch, capsys):
        def fail(args):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(hydronets.cli, "cmd_validate", fail)
        assert main(["validate", "region.json"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.rstrip().endswith("internal-error: ZeroDivisionError: boom")


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

    def test_missing_file(self, tmp_path, capsys):
        # A file that cannot be read fails validation, as a malformed one does.
        for path in (tmp_path / "nope.json", tmp_path):
            assert main(["validate", str(path)]) == 1
            out = capsys.readouterr().out
            assert out.startswith(f"syntax-error: cannot read {path}: "), out

    def test_malformed_region_fails_without_traceback(self, tmp_path, capsys):
        for i, data in enumerate([b"[" * 100000, b"1" * 5000, b'{"basins": "\xff"}']):
            f = tmp_path / f"region{i}.json"
            f.write_bytes(data)
            assert main(["validate", str(f)]) == 1
            out, err = capsys.readouterr()
            assert "syntax-error" in out and "Traceback" not in err


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

    def test_bad_config_exits_two(self, tmp_path, capsys):
        texts = ["{broken", "[1]", "1" * 5000] + [
            json.dumps({**asdict(SynthConfig(n_steps=50)), **edit})
            for edit in ({"branching": "2"}, {"delay": [1]}, {"noise_std": float("nan")}, {"bogus": 1},
                         {"n_steps": 10**30}, {"height": 10**30}, {"kernel_scale": [2.0, 1.7e308]})
        ]
        for i, text in enumerate(texts):
            f = tmp_path / f"synth{i}.json"
            f.write_text(text)
            assert main(["gen-synth", "--config", str(f), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert "invalid-config" in err and "Traceback" not in err
        assert main(["gen-synth", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert "invalid-config" in capsys.readouterr().err

    def test_written_config_reproduces_every_file(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["gen-synth", "--out", str(first), "--seed", "7"]) == 0
        assert main(["gen-synth", "--config", str(first / "synth.json"), "--out", str(second)]) == 0
        for name in ("region.json", "series.csv", "synth.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_config_file(self, tmp_path):
        cfg = SynthConfig(branching=1, height=3, n_steps=50, burst_rate=0.0)
        f = tmp_path / "synth.json"
        f.write_text(json.dumps(asdict(cfg)))
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
        assert len(lines) == 3  # header plus one row per epoch

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
        argvs = [["train", "--config", str(f)]] + [
            ["train", "--config", write_exp_config(tmp_path / f"bad{i}.json", tmp_path / "run", **edit)]
            for i, edit in enumerate(BAD_CONFIGS)
        ]
        good = write_exp_config(tmp_path / "good.json", tmp_path / "run")
        argvs += [
            ["train", "--config", good, "--seed", "-1"],
            ["exp-depth", "--config", good, "--workers", "0"],
            ["exp-basins", "--config", good, "--basins", "b0", "b0"],
            ["exp-scarcity", "--config", good, "--sizes", "30", "30"],
        ]
        # A command rejects the fields it never reads, before reading any input.
        no_checkpoint = ["--checkpoint", str(tmp_path / "missing.json")]
        argvs += [
            [command, "--config", write_exp_config(tmp_path / f"unread{i}.json", tmp_path / "run", **edit), *extra]
            for i, (command, edit, extra) in enumerate([
                ("exp-depth", {"basins": ["nope"]}, []),
                ("exp-depth", {"sizes": [5]}, []),
                ("exp-basins", {"sizes": [5]}, []),
                ("train", {"basins": ["nope"]}, []),
                ("train", {"sizes": [5]}, []),
                ("evaluate", {"basins": ["nope"]}, no_checkpoint),
                ("evaluate", {"sizes": [5]}, no_checkpoint),
            ])
        ]
        for argv in argvs:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "invalid-config" in err and "Traceback" not in err, (argv, err)


    @pytest.mark.parametrize("level", [
        lambda t, lv: lv * 1e200,                          # the std overflows
        lambda t, lv: 1.6e308 - 1e306 * (t % 7),           # so does the mean
    ], ids=["times-1e200", "near-max"])
    def test_finite_levels_whose_stats_overflow_exit_two(self, tmp_path, capsys, fork_graph, level):
        # Every reading is finite, so the series loads; normalization names
        # the basin and the channel. train and evaluate once exited 0 and
        # printed nan on the first, and both reported empty-train on the
        # second.
        def readings(bid, t):
            lv = math.sin(0.1 * t) + 0.01 * t
            return (t % 5) * 0.5, level(t, lv) if bid == "b3" else lv

        region, series = tmp_path / "region.json", tmp_path / "series.csv"
        region.write_text(dump_region(fork_graph))
        series.write_text(make_series_text(fork_graph, 60, value_fn=readings))
        cfg_path = write_exp_config(
            tmp_path / "exp.json", tmp_path / "run", synth=None, region=str(region), series=str(series)
        )
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(save_checkpoint(init_hydronet(fork_graph, Dims(window=4, embedding=2, horizon=1), 0)))
        for argv in (["train"], ["evaluate", "--checkpoint", str(ckpt)]):
            assert main([*argv, "--config", cfg_path]) == 2, argv
            assert capsys.readouterr().err.startswith("non-finite: basin 'b3' channel level overflows"), argv

    def test_scores_that_overflow_in_label_units_exit_two(self, tmp_path, capsys, fork_graph):
        # Levels near 1e150 normalize cleanly, but a checkpoint whose
        # forecasts are far off puts b3's squared errors, in label units,
        # past the float range. evaluate once wrote inf into metrics.csv.
        def readings(bid, t):
            lv = math.sin(0.1 * t) + 0.01 * t
            return (t % 5) * 0.5, lv * 1e150 if bid == "b3" else lv

        region, series = tmp_path / "region.json", tmp_path / "series.csv"
        region.write_text(dump_region(fork_graph))
        series.write_text(make_series_text(fork_graph, 60, value_fn=readings))
        cfg_path = write_exp_config(
            tmp_path / "exp.json", tmp_path / "run", synth=None, region=str(region), series=str(series)
        )
        p = init_flat(fork_graph, "b3", 1, Dims(window=4, embedding=2, horizon=1), 0)
        p.weights[...] = 1e10
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(save_checkpoint(p))
        argv = ["evaluate", "--config", cfg_path, "--checkpoint", str(ckpt), "--out", str(tmp_path / "scores")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("non-finite: basin 'b3' mse is inf")
        assert not (tmp_path / "scores").exists()

    def test_undecodable_inputs_exit_two(self, tmp_path, capsys, fork_graph):
        undecodable = tmp_path / "latin1.txt"
        undecodable.write_bytes(b"caf\xe9")
        region = tmp_path / "region.json"
        region.write_text(dump_region(fork_graph))
        good = write_exp_config(tmp_path / "good.json", tmp_path / "run")
        from_files = {"synth": None, "region": str(region), "series": str(undecodable)}
        cases = [
            (["train", "--config", str(undecodable)], "invalid-config"),
            (["gen-synth", "--config", str(undecodable), "--out", str(tmp_path / "out")], "invalid-config"),
            (["evaluate", "--config", good, "--checkpoint", str(undecodable)], "bad-checkpoint"),
            (["train", "--config", write_exp_config(
                tmp_path / "series.json", tmp_path / "run", **from_files)], "syntax-error"),
            (["train", "--config", write_exp_config(
                tmp_path / "region.json", tmp_path / "run", **{**from_files, "region": str(undecodable)},
            )], "syntax-error"),
        ]
        for argv, code in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert code in err and "Traceback" not in err, (argv, err)

    def test_unreadable_inputs_exit_two(self, tmp_path, capsys, fork_graph):
        missing = tmp_path / "missing.json"
        region = tmp_path / "region.json"
        region.write_text(dump_region(fork_graph))
        good = write_exp_config(tmp_path / "good.json", tmp_path / "run")
        from_files = {"synth": None, "region": str(region), "series": str(missing)}
        cases = [
            (["train", "--config", str(missing)], "invalid-config"),
            (["gen-synth", "--config", str(tmp_path), "--out", str(tmp_path / "out")], "invalid-config"),
            (["evaluate", "--config", good, "--checkpoint", str(missing)], "bad-checkpoint"),
            (["train", "--config", write_exp_config(
                tmp_path / "no-series.json", tmp_path / "run", **from_files)], "syntax-error"),
            (["train", "--config", write_exp_config(
                tmp_path / "no-region.json", tmp_path / "run", **{**from_files, "region": str(missing)},
            )], "syntax-error"),
        ]
        for argv, code in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"{code}: cannot read ") and "Traceback" not in err, (argv, err)

    def test_unwritable_output_is_an_output_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["gen-synth", "--out", str(blocker / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output-error: ") and str(blocker) in err, err

    def test_inputs_may_start_with_a_byte_order_mark(self, tmp_path, fork_graph):
        # Spreadsheet tools write one. The manifest hashes the text after it.
        runs = []
        for name, mark in [("plain", ""), ("marked", "\ufeff")]:
            d = tmp_path / name
            d.mkdir()
            (d / "region.json").write_text(mark + dump_region(fork_graph), encoding="utf-8")
            (d / "series.csv").write_text(mark + make_series_text(fork_graph, 60), encoding="utf-8")
            cfg = Path(write_exp_config(
                d / "exp.json", d / "run", synth=None, region=str(d / "region.json"), series=str(d / "series.csv"),
            ))
            cfg.write_text(mark + cfg.read_text(), encoding="utf-8")
            assert main(["exp-depth", "--config", str(cfg)]) == 0
            assert main(["validate", str(d / "region.json")]) == 0
            manifest = json.loads((d / "run" / "manifest.json").read_text())
            runs.append((manifest["inputs"], (d / "run" / "report.csv").read_bytes()))
        assert runs[0] == runs[1]

    def test_bad_checkpoint_fails_before_the_series_is_read(self, tmp_path, capsys, monkeypatch, fork_graph):
        region, series = tmp_path / "region.json", tmp_path / "series.csv"
        region.write_text(dump_region(fork_graph))
        series.write_text(make_series_text(fork_graph, 60))
        cfg_path = write_exp_config(
            tmp_path / "exp.json", tmp_path / "run", synth=None, region=str(region), series=str(series)
        )
        assert main(["train", "--config", cfg_path]) == 0
        good, bad = tmp_path / "run" / "checkpoint.json", tmp_path / "bad.json"
        bad.write_text('{"kind": "hydronets"}')
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg_path, "--checkpoint", str(good)]) == 0
        # With both inputs bad, the checkpoint's error is the one reported.
        series.write_text("not,a,series,file\n")
        reads = []
        monkeypatch.setattr(hydronets.cli, "load_series", lambda *args: reads.append(args))
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg_path, "--checkpoint", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("bad-checkpoint") and reads == []
        monkeypatch.undo()
        assert main(["evaluate", "--config", cfg_path, "--checkpoint", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("bad-checkpoint")
        assert main(["evaluate", "--config", cfg_path, "--checkpoint", str(good)]) == 2
        assert capsys.readouterr().err.startswith("bad-header")

    @pytest.mark.parametrize("model", ["hydronets", "linear"])
    def test_checkpoint_dims_must_match_the_config(self, tmp_path, capsys, model):
        cfg_path = write_exp_config(tmp_path / "exp.json", tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--model", model]) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.json")
        for edit in ({"horizon": 2}, {"embedding": 3}, {"window": 5}):
            other = write_exp_config(tmp_path / "other.json", tmp_path / "run", dims={**DIMS, **edit})
            capsys.readouterr()
            assert main(["evaluate", "--config", other, "--checkpoint", ckpt]) == 2
            err = capsys.readouterr().err
            assert err.startswith("shape-mismatch") and "Traceback" not in err, err
            assert str(Dims(**DIMS)) in err and str(Dims(**{**DIMS, **edit})) in err, err

    def test_linear_checkpoint_outside_the_region_exits_two(self, tmp_path, capsys):
        cfg_path = write_exp_config(tmp_path / "exp.json", tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--model", "linear"]) == 0
        ckpt = tmp_path / "run" / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        cases = [
            ({**doc, "target": "zz", "included": [*doc["included"][:-1], "zz"]}, "graph-mismatch"),
            ({**doc, "included": [doc["included"][0]] * len(doc["included"])}, "bad-checkpoint"),
        ]
        for edited, code in cases:
            ckpt.write_text(json.dumps(edited))
            capsys.readouterr()
            assert main(["evaluate", "--config", cfg_path, "--checkpoint", str(ckpt)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(code) and "Traceback" not in err, err


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

    def test_exp_depth_on_a_cycle_exits_two(self, tmp_path, cycle_into_outlet):
        region, series = tmp_path / "region.json", tmp_path / "series.csv"
        region.write_text(dump_region(cycle_into_outlet))
        series.write_text(make_series_text(cycle_into_outlet, 160))
        cfg_path = write_exp_config(
            tmp_path / "exp.json", tmp_path / "run", synth=None, region=str(region), series=str(series)
        )
        done = run_python(["-m", "hydronets", "exp-depth", "--config", cfg_path])
        assert done.returncode == 2
        assert done.stderr.startswith("invalid-graph: ") and "Traceback" not in done.stderr

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


# Error codes a checkpoint that does not fit the config may fail with.
CHECKPOINT_CODES = ("bad-checkpoint", "graph-mismatch", "shape-mismatch")
ODD_VALUES = [float("nan"), float("inf"), -float("inf"), int("9" * 400), 0, 1, 1.5, True, "1", None, []]


def _paths(doc, path=()):
    """Path of every value inside ``doc``, containers included, root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_checkpoints(draw, docs, basin_ids):
    """Checkpoint text: one of ``docs`` with one to three edits."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    repeat = None
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        lists = [p for p in paths if isinstance(_at(doc, p), list)]
        numbers = [p for p in paths if type(_at(doc, p)) in (int, float)]
        names = [("included", i) for i in range(len(doc.get("included", [])))] + [
            (field, bid) for field in ("combiners", "heads") for bid in doc.get(field, {})
        ]
        edit = draw(st.sampled_from(["drop", "kind", "fingerprint", "cut", "reshape", "rename", "repeat", "value"]))
        if edit == "drop" and paths:
            path = draw(st.sampled_from(paths))
            del _at(doc, path[:-1])[path[-1]]
        elif edit == "kind":
            doc["kind"] = draw(st.sampled_from(["linear", "hydronets", "cnn", 1]))
        elif edit == "fingerprint":
            fp = str(doc.get("graph_fingerprint", ""))
            doc["graph_fingerprint"] = draw(st.sampled_from([fp[:-1], fp[::-1], "0" * 64]))
        elif edit == "cut" and lists:
            path = draw(st.sampled_from(lists))
            block = _at(doc, path)
            del block[draw(st.integers(0, len(block))):]
        elif edit == "reshape" and lists:
            path = draw(st.sampled_from(lists))
            block = _at(doc, path)
            nested = block and all(isinstance(x, list) for x in block)
            _at(doc, path[:-1])[path[-1]] = [x for row in block for x in row] if nested else [block]
        elif edit in ("rename", "repeat") and names:
            field, key = draw(st.sampled_from(names))
            new = draw(st.sampled_from([*basin_ids, "zz", ""]))
            if field == "included" and edit == "rename":
                doc["included"][key] = new
                if "target" in doc:
                    doc["target"] = draw(st.sampled_from([doc["target"], new]))
            elif field == "included":
                doc["included"].insert(draw(st.integers(0, len(doc["included"]))), doc["included"][key])
            elif edit == "rename":
                doc[field][new] = doc[field].pop(key)
            else:
                repeat = field, key, doc[field][draw(st.sampled_from(sorted(doc[field])))]
        elif edit == "value" and numbers:
            path = draw(st.sampled_from(numbers))
            _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(ODD_VALUES))
    text = json.dumps(doc)
    if repeat and f'"{repeat[0]}": {{' in text:  # JSON objects may repeat a key; the last one wins
        field, key, value = repeat
        text = text.replace(f'"{field}": {{', f'"{field}": {{"{key}": {json.dumps(value)}, ', 1)
    return text


class TestCheckpointFuzz:
    """Every mutated checkpoint either fails ``evaluate`` with a checkpoint
    error code and no traceback, or loads to parameters that save and load
    back unchanged."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        cfg_path = write_exp_config(root / "exp.json", root / "run")
        g, _ = generate_synthetic(SynthConfig(branching=2, height=2, n_steps=160, noise_std=0.05, seed=3))
        dims = Dims(window=4, embedding=2, horizon=1)
        docs = [
            json.loads(save_checkpoint(init_hydronet(g, dims, 0))),
            json.loads(save_checkpoint(init_flat(g, drain_of(g), 2, dims, 0))),
        ]
        return cfg_path, root / "checkpoint.json", g, docs

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoints(self, inputs, data):
        cfg_path, ckpt, g, docs = inputs
        text = data.draw(mutated_checkpoints(docs, g.basin_ids))
        ckpt.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--config", cfg_path, "--checkpoint", str(ckpt)])
        err = err.getvalue()
        if code == 0:
            p = load_checkpoint(text, g)
            assert save_checkpoint(load_checkpoint(save_checkpoint(p), g)) == save_checkpoint(p)
        else:
            assert code == 2 and "Traceback" not in err, err
            assert err.split(":")[0] in CHECKPOINT_CODES, err


# Codes ``hydronets validate`` reports for a region file (README, File formats).
REGION_CODES = (
    "syntax-error", "unknown-field", "empty-region", "duplicate-id", "unknown-edge-endpoint",
    "multiple-out-edges", "no-drain", "multiple-drains", "cycle-detected", "not-connected",
)
ODD_IDS = ["b0 ", " b0", "\tb0", "", "zz", "\ud800", "b0,x", 0, None, True, ["b0"], {"id": "b0"}]
DEEP = "<deep>"


@st.composite
def mutated_regions(draw, doc):
    """Region file text: ``doc`` with one to three edits."""
    doc = copy.deepcopy(doc)
    deep = None
    for _ in range(draw(st.integers(1, 3))):
        basins = doc.get("basins") if isinstance(doc.get("basins"), list) else []
        edges = doc.get("edges") if isinstance(doc.get("edges"), list) else []
        entries = [b for b in basins if isinstance(b, dict)]
        ids = [b.get("id") for b in entries]
        paths = list(_paths(doc))
        edit = draw(st.sampled_from([
            "drop", "drop-item", "duplicate", "id", "field", "type", "edge", "repeat-edge", "reverse-edge",
            "static", "deep",
        ]))
        if edit == "drop" and paths:
            path = draw(st.sampled_from(paths))
            del _at(doc, path[:-1])[path[-1]]
        elif edit == "drop-item" and basins + edges:  # a whole basin or edge
            items = draw(st.sampled_from([x for x in (basins, edges) if x]))
            del items[draw(st.integers(0, len(items) - 1))]
        elif edit == "duplicate" and basins:
            entry = draw(st.sampled_from(basins))
            basins.insert(draw(st.integers(0, len(basins))), copy.deepcopy(entry))
        elif edit == "id" and entries:
            draw(st.sampled_from(entries))["id"] = draw(st.sampled_from(ODD_IDS + ids))
        elif edit == "field":
            draw(st.sampled_from([doc, *entries]))[draw(st.sampled_from(["color", "Id", "static"]))] = 1
        elif edit == "type" and paths:
            path = draw(st.sampled_from(paths))
            _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(ODD_VALUES + ["x", {}, [1, 2]]))
        elif edit == "edge" and isinstance(doc.get("edges"), list):
            src = draw(st.sampled_from(ids + ODD_IDS))
            dst = draw(st.sampled_from([src] + ids + ODD_IDS))  # a self edge first
            edges.append([src, dst])
        elif edit == "repeat-edge" and edges:
            edges.append(copy.deepcopy(draw(st.sampled_from(edges))))
        elif edit == "reverse-edge" and edges:  # a cycle, or a second way out
            edge = draw(st.sampled_from(edges))
            edges.append(edge[::-1] if isinstance(edge, list) else edge)
        elif edit == "static" and entries:
            entry = draw(st.sampled_from(entries))
            entry["static"] = draw(st.lists(st.sampled_from(ODD_VALUES + [1e308, -2.5]), max_size=3))
        elif edit == "deep" and paths:
            path = draw(st.sampled_from(paths))
            _at(doc, path[:-1])[path[-1]] = DEEP
            deep = draw(st.sampled_from([3, 100, 100_000]))
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
    if deep:
        text = text.replace(json.dumps(DEEP), "[" * deep + "]" * deep)
    return text


class TestRegionFuzz:
    """Every mutated region file either fails ``validate`` with a region
    code and no traceback, or parses to a graph that writes back to the
    same text; a region that parses but is not a tree still writes back."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        g, _ = generate_synthetic(SynthConfig(branching=2, height=3, n_steps=10, seed=3))
        g = RegionGraph(basins=(*g.basins[:-1], replace(g.basins[-1], static=(0.5, 2.0))), edges=g.edges)
        return tmp_path_factory.mktemp("fuzz") / "region.json", json.loads(dump_region(g))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_regions(self, inputs, data):
        path, doc = inputs
        text = data.draw(mutated_regions(doc))
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in err, err
        if code == 0:
            assert out.startswith("ok: ")
        else:
            assert code in (1, 2), (code, out, err)
            lines = (out if code == 1 else err).splitlines()
            assert lines and all(line.split(":")[0] in REGION_CODES for line in lines), (out, err)
        try:
            g = parse_region(text)
        except HydroNetsError:
            assert code != 0
            return
        written = dump_region(g)
        assert dump_region(parse_region(written)) == written


# JSON literals for a value where each input kind holds a number.
NUMBER_LITERALS = {
    "true": "true", "string": '"1.0"', "nan": "NaN", "infinity": "Infinity", "1e400": "1e400",
    "400-digits": "9" * 400,
}
MARK = "<number>"


def _field(path):
    """``path`` as error messages name it: ``heads.b0.b``, ``basins[0].static[0]``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


class TestJsonKinds:
    """The same bad values in a config, a region and both checkpoint kinds
    fail with the kind's code, naming the field, and no traceback."""

    @pytest.fixture(scope="class")
    def kinds(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("kinds")
        cfg_path = write_exp_config(root / "exp.json", root / "run")
        config = json.loads(Path(cfg_path).read_text())
        g, _ = generate_synthetic(SynthConfig(**config["synth"]))
        region = json.loads(dump_region(g))
        region["basins"][0]["static"] = [0.5, 2.0]
        dims = Dims(**DIMS)
        tree = json.loads(save_checkpoint(init_hydronet(g, dims, 0)))
        flat = json.loads(save_checkpoint(init_flat(g, drain_of(g), 2, dims, 0)))
        evaluate = ["evaluate", "--config", cfg_path, "--checkpoint"]
        checkpoint = 2, ("bad-checkpoint", "bad-checkpoint")
        # kind: document, a number's path, a required field's path, the
        # command before the file, its exit code and the kind's codes
        # (a bad value, an unknown field).
        return root, {
            "config": (config, ("train", "learning_rate"), ("dims", "window"), ["train", "--config"],
                       2, ("invalid-config", "invalid-config")),
            "region": (region, ("basins", 0, "static", 1), ("basins", 0, "name"), ["validate"],
                       1, ("syntax-error", "unknown-field")),
            "tree": (tree, ("heads", drain_of(g), "b"), ("graph_fingerprint",), evaluate, *checkpoint),
            "linear": (flat, ("bias",), ("target",), evaluate, *checkpoint),
        }

    @pytest.mark.parametrize("edit", [*NUMBER_LITERALS, "null", "unknown", "missing"])
    @pytest.mark.parametrize("kind", ["config", "region", "tree", "linear"])
    def test_bad_value_fails_with_the_kinds_code(self, kinds, kind, edit, capsys):
        root, table = kinds
        doc, number, required, argv, exit_code, codes = table[kind]
        doc = copy.deepcopy(doc)
        if edit in NUMBER_LITERALS:
            _at(doc, number[:-1])[number[-1]] = MARK
            code, named = codes[0], f"{_field(number)} must be a finite number, got "
        elif edit == "null":
            _at(doc, required[:-1])[required[-1]] = None
            code, named = codes[0], f"{_field(required)} must be "
        elif edit == "missing":
            del _at(doc, required[:-1])[required[-1]]
            code, named = codes[0], f"missing field {_field(required)}"
        else:
            doc["bogus"] = 1
            code, named = codes[1], "unknown field bogus"
        path = root / f"{kind}-{edit}.json"
        path.write_text(json.dumps(doc).replace(json.dumps(MARK), NUMBER_LITERALS.get(edit, "")))
        assert main([*argv, str(path)]) == exit_code
        out, err = capsys.readouterr()
        message = out if exit_code == 1 else err
        assert message.startswith(f"{code}: ") and named in message and "Traceback" not in err, (out, err)


README = (Path(__file__).parents[1] / "README.md").read_text()


class TestScaledReadings:
    """Every command on a series with one basin's channel scaled by 10^k
    exits 0 with every metric it writes finite, or exits 2 with an error
    code the README documents."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("scaled")

    @settings(max_examples=25, deadline=None)
    @given(basin=st.sampled_from(["b0", "b1", "b2"]), channel=st.sampled_from([0, 1]), k=st.integers(-300, 300))
    @example(basin="b0", channel=1, k=-161)      # level changes square to 0
    @example(basin="b1", channel=0, k=153)       # the largest precip scale the stats accept
    @example(basin="b2", channel=1, k=154)       # level deviations square past the float range
    def test_finite_metrics_or_a_documented_code(self, root, basin, channel, k):
        g = tree_from_parents([0, 0])

        def readings(bid, t):
            m = g.basin_ids.index(bid)
            values = [(t % 5) * 0.5 + 1.0, math.sin(0.1 * t + m) + 0.01 * t]
            if bid == basin:
                values[channel] *= 10.0 ** k
            return values

        (root / "region.json").write_text(dump_region(g))
        (root / "series.csv").write_text(make_series_text(g, 60, value_fn=readings))
        cfg_path = write_exp_config(
            root / "exp.json", root / "unused", synth=None, train={"epochs": 1, "batch_size": 16},
            region=str(root / "region.json"), series=str(root / "series.csv"),
        )
        init = root / "init.json"
        init.write_text(save_checkpoint(init_hydronet(g, Dims(window=4, embedding=2, horizon=1), 0)))
        for command in ("train", "evaluate", "exp-depth"):
            out = root / command
            shutil.rmtree(out, ignore_errors=True)
            argv = [command, "--config", cfg_path, "--out", str(out)]
            if command == "evaluate":
                trained = root / "train" / "checkpoint.json"
                argv += ["--checkpoint", str(trained if trained.exists() else init)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            err = err.getvalue()
            if code == 0:
                for path in out.glob("*.csv"):
                    for field in path.read_text().replace("\n", ",").split(","):
                        with contextlib.suppress(ValueError):
                            assert math.isfinite(float(field)), (command, path.name, field)
            else:
                assert code == 2 and "Traceback" not in err, (command, err)
                assert f"`{err.split(':')[0]}`" in README, (command, err)


CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
COMMANDS = {"depth": "exp-depth", "all_basins": "exp-basins", "scarcity": "exp-scarcity"}


@pytest.fixture(scope="module")
def fixtures():
    return (tree_fixture(), chain_fixture())


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_committed_config(path, fixtures, tmp_path):
    """Each config file loads, holds a calibrated fixture exactly, and, if
    it is an experiment config, runs through its command at one epoch and
    one seed."""
    doc = json.loads(path.read_text())
    if path.stem not in COMMANDS:
        assert from_doc(SynthConfig, doc) in fixtures
        return
    cfg = ExperimentConfig.from_json(path.read_text())
    assert cfg.synth in fixtures
    out = tmp_path / "run"
    doc.update(seeds=doc["seeds"][:1], out_dir=str(out))
    doc["train"]["epochs"] = 1
    copy_path = tmp_path / path.name
    copy_path.write_text(json.dumps(doc))
    assert main([COMMANDS[path.stem], "--config", str(copy_path)]) == 0
    assert (out / "report.csv").exists()
