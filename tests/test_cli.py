"""End-to-end command-line checks, run in process through main()."""

import contextlib
import copy
import io
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hydronets.cli
from hydronets.cli import main
from hydronets.codec import from_doc
from hydronets.data import SynthConfig, generate_synthetic, load_series
from hydronets.experiments import ExperimentConfig
from hydronets.model import init_flat, init_hydronet, load_checkpoint, save_checkpoint, Dims
from hydronets.presets import chain_fixture, tree_fixture
from hydronets.region import drain_of, dump_region, parse_region


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

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

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
            for edit in ({"branching": "2"}, {"delay": [1]}, {"noise_std": float("nan")}, {"bogus": 1})
        ]
        for i, text in enumerate(texts):
            f = tmp_path / f"synth{i}.json"
            f.write_text(text)
            assert main(["gen-synth", "--config", str(f), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert "invalid-config" in err and "Traceback" not in err
        assert main(["gen-synth", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert "invalid-config" in capsys.readouterr().err

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
        for argv in argvs:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "invalid-config" in err and "Traceback" not in err, (argv, err)


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
