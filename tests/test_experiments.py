"""Experiment runners, report emission, and reproducibility."""

import hashlib
import json
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from hydronets import experiments
from hydronets.data import SynthConfig
from hydronets.errors import HydroNetsError
from hydronets.experiments import (
    ComparisonRow,
    ExperimentConfig,
    ReportRow,
    ReportTable,
    SeedRow,
    emit_comparison,
    emit_diff_summary,
    emit_report,
    emit_seed_rows,
    load_inputs,
    run_all_basins,
    run_depth_experiment,
    run_scarcity,
)
from hydronets.model import Dims
from hydronets.training import TrainConfig


def tiny_config(tmp_path, **overrides):
    """Small-but-real experiment setup that runs in well under a second."""
    base = dict(
        dims=Dims(window=4, embedding=2, horizon=1),
        train=TrainConfig(learning_rate=0.02, epochs=3, batch_size=32),
        seeds=(0, 1),
        metric="r2_persist",
        out_dir=str(tmp_path / "run"),
        synth=SynthConfig(branching=2, height=2, n_steps=160, noise_std=0.05, seed=3),
        flat_depth=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_same_at_any_workers(runner, cfg):
    """Every file ``runner`` writes is the same at 1, 2 and 4 workers:
    which models stack together depends on the config alone."""
    outputs = []
    for workers in (1, 2, 4):
        out = replace(cfg, workers=workers, out_dir=f"{cfg.out_dir}-{workers}")
        runner(out)
        outputs.append({f.name: f.read_bytes() for f in Path(out.out_dir).iterdir()})
    assert outputs[0] == outputs[1] == outputs[2]
    assert {"report.csv", "seeds.csv", "manifest.json"} <= set(outputs[0])


class TestEmit:
    def test_csv_fixed_width_numbers(self):
        table = ReportTable(rows=(
            ReportRow("depth=1", "b0", "linear", 0.008919174, 0.0, 3),
        ))
        text = emit_report(table)
        assert text == "key,basin,model,mean,std,n_seeds\ndepth=1,b0,linear,0.008919,0.000000,3\n"

    def test_empty_table_header_only(self):
        assert emit_report(ReportTable(rows=())) == "key,basin,model,mean,std,n_seeds\n"

    def test_diff_uses_full_precision(self):
        # rounding the operands first would print 0.008920
        row = ComparisonRow(basin="x", linear=0.5568443865666352, hydronets=0.5657635612645384)
        text = emit_comparison((row,))
        assert "0.556844,0.565764,0.008919" in text

    def test_diff_summary_is_histogram(self):
        text = emit_diff_summary([0.0, 0.01, 0.02, 0.10], bins=5)
        lines = text.strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 6
        assert sum(int(l.split(",")[2]) for l in lines[1:]) == 4

    def test_seed_rows_full_precision(self):
        table = ReportTable(
            rows=(),
            seed_rows=(SeedRow("depth=1", "b0", "linear", 7, 0.123456789012345),),
        )
        assert "0.123456789012345" in emit_seed_rows(table)


class TestConfig:
    def test_from_json_round_trip(self, tmp_path):
        doc = {
            "dims": {"window": 4, "embedding": 2, "horizon": 1},
            "train": {"learning_rate": 0.02, "epochs": 3, "batch_size": 32},
            "seeds": [0, 1],
            "metric": "r2",
            "out_dir": str(tmp_path),
            "synth": asdict(SynthConfig(branching=2, height=2, n_steps=160)),
            "sizes": [50, 100],
        }
        cfg = ExperimentConfig.from_json(json.dumps(doc))
        assert cfg.dims.window == 4
        assert cfg.metric == "r2"
        assert cfg.sizes == (50, 100)

    def test_from_json_file_paths(self):
        doc = {
            "dims": {"window": 4, "embedding": 2, "horizon": 1},
            "region": "data/region.json",
            "series": "data/series.csv",
        }
        cfg = ExperimentConfig.from_json(json.dumps(doc))
        assert cfg.region == "data/region.json"
        assert cfg.series == "data/series.csv"
        assert cfg.synth is None

    def test_unknown_field_rejected(self):
        with pytest.raises(HydroNetsError, match="invalid-config"):
            ExperimentConfig.from_json('{"dims": {"window": 1, "embedding": 1, "horizon": 1}, "bogus": 1}')

    def test_needs_exactly_one_source(self, tmp_path):
        cfg = tiny_config(tmp_path, synth=None)
        with pytest.raises(HydroNetsError, match="invalid-config"):
            cfg.check()
        both = tiny_config(tmp_path, region="r.json", series="s.csv")
        with pytest.raises(HydroNetsError, match="invalid-config"):
            both.check()

    def test_needs_a_seed(self, tmp_path):
        with pytest.raises(HydroNetsError, match="invalid-config"):
            tiny_config(tmp_path, seeds=()).check()

    def test_bad_metric(self, tmp_path):
        with pytest.raises(HydroNetsError, match="invalid-config"):
            tiny_config(tmp_path, metric="rmse").check()

    def test_load_inputs_from_files(self, tmp_path, fork_graph):
        from hydronets.region import dump_region
        from conftest import make_series_text
        (tmp_path / "region.json").write_text(dump_region(fork_graph))
        (tmp_path / "series.csv").write_text(make_series_text(fork_graph, 30))
        cfg = tiny_config(
            tmp_path, synth=None,
            region=str(tmp_path / "region.json"),
            series=str(tmp_path / "series.csv"),
        )
        g, store, hashes = load_inputs(cfg)
        assert g == fork_graph
        assert store.n_steps == 30
        assert set(hashes) == {"region", "series"}

    @staticmethod
    def hashes_of(texts, tmp_path, monkeypatch):
        """load_inputs' hashes of the texts ``texts["r"]`` and ``texts["s"]``,
        and the peak of the memory it allocated, with no file read and no
        parse."""
        monkeypatch.setattr(experiments, "read_input", lambda path, code: texts[path])
        monkeypatch.setattr(experiments, "parse_region", lambda text: None)
        monkeypatch.setattr(experiments, "load_series", lambda text, g: None)
        tracemalloc.start()
        try:
            _, _, hashes = load_inputs(tiny_config(tmp_path, synth=None, region="r", series="s"))
            return hashes, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_input_hashes_are_those_of_the_text(self, tmp_path, monkeypatch):
        # Characters of 1 to 4 bytes fall on every side of the pieces' boundaries.
        texts = {"r": "région", "s": "aé€😀" * 1000}
        monkeypatch.setattr(experiments, "_HASH_PIECE", 7)
        hashes, _ = self.hashes_of(texts, tmp_path, monkeypatch)
        assert hashes == {"region": hashlib.sha256(texts["r"].encode()).hexdigest(),
                          "series": hashlib.sha256(texts["s"].encode()).hexdigest()}

    def test_input_hashes_take_no_copy_of_the_text(self, tmp_path, monkeypatch):
        texts = {"r": "region", "s": "0,b1,1.0,2.0\n" * 300_000}        # 3.9 MB
        hashes, peak = self.hashes_of(texts, tmp_path, monkeypatch)
        assert hashes["series"] == hashlib.sha256(texts["s"].encode()).hexdigest()
        assert peak < 0.25 * len(texts["s"])    # measured 0.13 texts; 1.0 when encoded whole


class TestDepthRunner:
    def test_rows_and_files(self, tmp_path):
        cfg = tiny_config(tmp_path)
        table = run_depth_experiment(cfg)
        # two model kinds per depth, height 2 -> 4 rows
        assert len(table.rows) == 4
        assert [r.key for r in table.rows] == ["depth=1", "depth=1", "depth=2", "depth=2"]
        assert all(r.n_seeds == 2 for r in table.rows)
        out = Path(cfg.out_dir)
        assert (out / "report.csv").exists()
        assert (out / "seeds.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["experiment"] == "depth"

    def test_depth_one_emits_both_kinds(self, tmp_path):
        table = run_depth_experiment(tiny_config(tmp_path))
        kinds = {r.model for r in table.rows if r.key == "depth=1"}
        assert kinds == {"linear", "hydronets"}

    def test_single_seed_zero_std(self, tmp_path):
        table = run_depth_experiment(tiny_config(tmp_path, seeds=(4,)))
        assert all(r.std == 0.0 for r in table.rows)
        assert all(r.n_seeds == 1 for r in table.rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(tmp_path, out_dir=str(tmp_path / "b"))
        run_depth_experiment(cfg_a)
        run_depth_experiment(cfg_b)
        for name in ("report.csv", "seeds.csv", "manifest.json"):
            assert (Path(cfg_a.out_dir) / name).read_bytes() == (Path(cfg_b.out_dir) / name).read_bytes()

    def test_parallel_equals_serial(self, tmp_path):
        assert_same_at_any_workers(run_depth_experiment, tiny_config(tmp_path))

    def test_manifest_has_input_hashes(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_depth_experiment(cfg)
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert len(manifest["inputs"]["region"]) == 64
        assert len(manifest["inputs"]["series"]) == 64
        assert manifest["config"]["seeds"] == [0, 1]


class TestAllBasinsRunner:
    def test_comparison_columns(self, tmp_path):
        cfg = tiny_config(tmp_path)
        table, comparison = run_all_basins(replace(cfg, basins=("b0", "b1")))
        assert len(table.rows) == 4
        assert len(comparison) == 2
        text = (Path(cfg.out_dir) / "comparison.csv").read_text()
        assert text.startswith("basin,linear,hydronets,diff\n")
        assert (Path(cfg.out_dir) / "diff_summary.csv").exists()

    def test_diff_is_hydronets_minus_linear(self, tmp_path):
        cfg = tiny_config(tmp_path)
        _, comparison = run_all_basins(replace(cfg, basins=("b0",)))
        row = comparison[0]
        assert row.diff == pytest.approx(row.hydronets - row.linear, rel=1e-15)

    def test_unknown_target(self, tmp_path):
        with pytest.raises(HydroNetsError, match="unknown-basin"):
            run_all_basins(tiny_config(tmp_path, basins=("nope",)))

    def test_parallel_equals_serial(self, tmp_path):
        assert_same_at_any_workers(run_all_basins, tiny_config(tmp_path))

    def test_defaults_to_all_basins(self, tmp_path):
        cfg = tiny_config(tmp_path)
        table, comparison = run_all_basins(cfg)
        assert len(comparison) == 3  # branching 2, height 2
        assert {r.basin for r in table.rows} == {"b0", "b1", "b2"}


class TestScarcityRunner:
    def test_row_structure(self, tmp_path):
        cfg = tiny_config(tmp_path)
        table = run_scarcity(replace(cfg, sizes=(30, 60), basins=("b0",)))
        # |counts| * |basins| * 2 kinds
        assert len(table.rows) == 4
        assert {r.key for r in table.rows} == {"train=30", "train=60"}

    def test_largest_count_matches_full_train(self, tmp_path):
        from hydronets.data import prepare_datasets
        from hydronets.metrics import evaluate
        from hydronets.model import init_hydronet
        from hydronets.training import train

        cfg = tiny_config(tmp_path, seeds=(5,))
        g, store, _ = load_inputs(cfg)
        train_full, test_set, stats = prepare_datasets(
            store, g, cfg.dims.window, cfg.dims.horizon, cfg.train_frac
        )
        n = len(train_full)
        table = run_scarcity(replace(cfg, sizes=(n,), basins=("b0",)))

        p = init_hydronet(g, cfg.dims, 5)
        res = train(p, train_full, replace(cfg.train, seed=5))
        direct = evaluate(res.params, test_set, stats).by_basin()["b0"].r2_persist
        row = [r for r in table.seed_rows if r.model == "hydronets"][0]
        assert row.value == pytest.approx(direct, rel=1e-12)

    def test_count_beyond_available_rejected(self, tmp_path):
        with pytest.raises(HydroNetsError, match="invalid-config"):
            run_scarcity(tiny_config(tmp_path, sizes=(10_000,), basins=("b0",)))

    def test_needs_sizes(self, tmp_path):
        with pytest.raises(HydroNetsError, match="invalid-config"):
            run_scarcity(tiny_config(tmp_path))

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = tiny_config(tmp_path, out_dir=str(tmp_path / "a"), sizes=(30, 60), basins=("b0",))
        cfg_b = tiny_config(tmp_path, out_dir=str(tmp_path / "b"), sizes=(30, 60), basins=("b0",))
        run_scarcity(cfg_a)
        run_scarcity(cfg_b)
        for name in ("report.csv", "seeds.csv", "manifest.json"):
            assert (Path(cfg_a.out_dir) / name).read_bytes() == (Path(cfg_b.out_dir) / name).read_bytes()

    def test_parallel_equals_serial(self, tmp_path):
        assert_same_at_any_workers(run_scarcity, tiny_config(tmp_path, sizes=(30, 60), basins=("b0", "b1")))
