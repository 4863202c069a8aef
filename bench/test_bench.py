"""Self-test of the benchmark, on the smoke scale (tiny tree, one epoch).

    python3 -m pytest bench/test_bench.py -q

Checks that every workload and the traced suite complete with correct
outputs and the metric names BENCHMARK.json declares, that the tracer
restores every wrapped attribute and that untraced runs install none,
that spans nest inside their parents with non-negative self time, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import job
import run
import tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_workload(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= run.MIN_JOBS
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] != 0
    # Set-up runs before every job, at least SETUP_REPEATS times in all.
    record = json.loads((run.WORK / "result.json").read_text())
    assert len(record["detail"]["setup_s"]) >= max(run.SETUP_REPEATS, out["attempted"])


def test_smoke_traced_suite():
    out = result(bench("--workload", "grid-depth", "--seed", "4", "--seconds", "0", "--trace", "1", "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 2 * len(run.WORKLOADS)
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_reference_check():
    ref = {"w": {"seeds": {"1": {"x": 1.0}}, "skill_range": [0.5, 0.6]}}
    assert run.reference_errors(ref, "w", 1, {"x": 1.0 + 1e-12}, 0.55) == []
    assert run.reference_errors(ref, "w", 1, {"x": 1.001}, 0.55)
    assert run.reference_errors(ref, "w", 1, {"y": 1.0}, 0.55)
    # A seed with no entry is held to the skill range the entries span,
    # widened by its width (0.1 here).
    assert run.reference_errors(ref, "w", 2, {"x": 5.0}, 0.45) == []
    assert run.reference_errors(ref, "w", 2, {"x": 5.0}, 0.69) == []
    assert run.reference_errors(ref, "w", 2, {"x": 5.0}, 0.39)
    assert run.reference_errors(ref, "w", 2, {"x": 5.0}, 0.75)
    assert run.reference_errors(ref, "v", 1, {"x": 1.0}, 0.55)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "train-tree7", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def smoke_inputs(tmp_path_factory):
    run.pin_threads()
    run.import_hydronets()
    return run.make_inputs("train-tree7", 0, run.SMOKE, tmp_path_factory.mktemp("inputs"))


def _train_argv(inputs, out: Path) -> list[str]:
    return run.commands("train-tree7", inputs, out)[0]


def test_tracer_restores_every_attribute(smoke_inputs, tmp_path):
    import hydronets
    import hydronets.metrics
    import hydronets.model
    import hydronets.training

    originals = {
        (mod, name): value
        for mod in (hydronets, hydronets.cli, hydronets.training, hydronets.metrics, hydronets.model)
        for name, value in vars(mod).items()
    }
    forward = hydronets.model.forward_batch
    with tracer.Tracer() as t:
        wrapped = hydronets.training.forward_batch
        assert wrapped is not forward and wrapped.__wrapped__ is forward
        assert hydronets.metrics.forward_batch is wrapped and hydronets.model.forward_batch is wrapped
        assert len(tracer.installed_wrappers()) > len(tracer.FUNCTIONS)
        assert hydronets.cli.main(_train_argv(smoke_inputs, tmp_path)) == 0
    assert tracer.installed_wrappers() == []
    assert hydronets.training.forward_batch is hydronets.model.forward_batch
    assert hydronets.metrics.forward_batch is hydronets.model.forward_batch
    for (mod, name), value in originals.items():
        assert vars(mod)[name] is value, f"{mod.__name__}.{name} not restored"
    names = {s["name"] for s in t.spans}
    assert {"cli.main", "training.train", "training.backward_hydronet", "model.forward_batch"} <= names
    assert tracer.check_nesting(t.spans) == []


def test_untraced_job_installs_no_wrapper(smoke_inputs, tmp_path, monkeypatch):
    import hydronets.cli

    seen = []
    original = hydronets.cli.cmd_train

    def probe(args):
        seen.append(tracer.installed_wrappers())
        return original(args)

    monkeypatch.setattr(hydronets.cli, "cmd_train", probe)
    assert job.run(_train_argv(smoke_inputs, tmp_path / "plain"), None) == 0
    spans_file = tmp_path / "spans.json"
    assert job.run(_train_argv(smoke_inputs, tmp_path / "traced"), str(spans_file)) == 0
    assert seen[0] == [] and seen[1] != []
    spans = json.loads(spans_file.read_text())
    assert tracer.check_nesting(spans) == []
    assert all(t >= 0 for t in tracer.self_times(spans))


def test_worker_thread_spans_nest_under_runner(smoke_inputs, tmp_path):
    inputs = run.make_inputs("grid-depth", 0, run.SMOKE, tmp_path / "inputs")
    import hydronets.cli

    argv = run.commands("grid-depth", inputs, tmp_path / "out")[0] + ["--workers", "2"]
    with tracer.Tracer() as t:
        assert hydronets.cli.main(argv) == 0
    assert tracer.check_nesting(t.spans) == []
    runner = next(i for i, s in enumerate(t.spans) if s["name"] == "experiments.run_depth_experiment")
    workers = [s for s in t.spans if s["thread"] != t.spans[runner]["thread"]]
    assert workers
    roots = [s for s in workers if t.spans[s["parent"]]["thread"] != s["thread"]]
    assert roots and all(s["parent"] == runner for s in roots)


def test_covered_and_self_time():
    assert tracer.covered_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert tracer.covered_ns([(0, 10), (2, 3)]) == 10
    spans = [
        {"name": "a", "start": 0, "end": 100, "parent": None},
        {"name": "b", "start": 10, "end": 60, "parent": 0},
        {"name": "c", "start": 40, "end": 90, "parent": 0},
    ]
    assert tracer.self_times(spans) == [20, 50, 50]
    assert tracer.check_nesting(spans) == []
    spans[2]["end"] = 120
    assert tracer.check_nesting(spans)
