#!/usr/bin/env python3
"""hydronets benchmark: three CLI workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root (any working directory works). Inputs are
made from ``--seed`` in set-up and written under ``bench/_work/``; each job
then runs the ``hydronets`` CLI in fresh processes that see only those
files. Jobs run one at a time (a closed loop with one client) until they
have taken ``--seconds``, and at least twice so that every run can check
that a repeat is byte-identical. Set-up is repeated between jobs.

``--trace 0`` prints the end-to-end metrics of the named workload.
``--trace 1`` runs the traced layer suite instead, whatever ``--workload``
names: one untraced and one traced job of every workload, each per-layer
metric taken from the workload whose ``wall_s`` that layer should move
(see README.md).
``--smoke`` shrinks every workload to a tiny tree and one epoch.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of
the run, with the environment block and every job's figures, goes to
``bench/_work/result.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("train-tree7", "ingest-eval-tree63", "grid-depth")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Set-up runs before every job, again and again until a round has taken
# SETUP_ROUND_SECONDS, so that its samples are spread over the whole run
# rather than caught in one slow or fast stretch of the host. A set-up
# longer than a round runs only before the first SETUP_REPEATS jobs.
SETUP_REPEATS = 3
SETUP_ROUND_SECONDS = 1.0
MIN_JOBS = 2
# grid-depth runs its jobs on one worker: with two threads on a two-CPU
# machine shared with other tenants, its wall time spread 20% between runs.
GRID_WORKERS = 1
# Numbers must match the committed reference this closely; a change of
# summation order moves them by about 1e-12.
REL_TOL = 1e-6
ABS_TOL = 1e-9
# A seed with no committed reference is checked for gross errors only: the
# skill must lie within the range the referenced seeds span, widened on
# each side by that range's width or by this margin, whichever is larger.
SKILL_MARGIN = 0.05


def pin_threads() -> None:
    """One BLAS/OpenMP thread in this process and every job process, so
    timings do not depend on how many threads the BLAS build would start.
    Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_hydronets() -> None:
    """Import the package from this checkout's ``src/`` only."""
    sys.path.insert(0, str(BENCH))
    from job import import_cli

    import_cli()


# --- workloads ------------------------------------------------------------------

@dataclass(frozen=True)
class Scale:
    """Sizes of the three workloads. The full scale matches the README
    config and the acceptance-test fixtures; smoke is a tiny tree."""

    tree: dict = field(default_factory=lambda: {"branching": 2, "height": 3, "n_steps": 4000})
    big_tree: dict = field(default_factory=lambda: {"branching": 2, "height": 6, "n_steps": 8000})
    epochs: int = 40
    grid_epochs: int = 20
    batch_size: int = 256


FULL = Scale()
SMOKE = Scale(
    tree={"branching": 2, "height": 2, "n_steps": 300},
    big_tree={"branching": 2, "height": 3, "n_steps": 400},
    epochs=1,
    grid_epochs=1,
    batch_size=64,
)
DATA_SEED = 11          # tree_fixture()'s region; --seed drives model seeds
DIMS = {"window": 24, "embedding": 4, "horizon": 2}
# The ingest-eval-tree63 checkpoint: 400 Adam steps on the full-scale tree,
# the fewest that keep drain skill within 9% of its median across seeds.
CKPT_EPOCHS = 1
CKPT_BATCH = 16
CKPT_LEARNING_RATE = 0.01


@dataclass
class Inputs:
    dir: Path
    config: Path
    drain: str
    depth: int
    checkpoint: Path | None = None


def _synth(shape: dict):
    from hydronets.data import SynthConfig
    from hydronets.presets import calibrate_noise

    return calibrate_noise(SynthConfig(seed=DATA_SEED, **shape))


def make_inputs(workload: str, seed: int, scale: Scale, out: Path) -> Inputs:
    """Write the workload's region, series and config (and, for
    ingest-eval-tree63, a checkpoint trained for ``CKPT_EPOCHS``)."""
    from hydronets.data import dump_series, generate_synthetic, prepare_datasets
    from hydronets.model import Dims, init_hydronet, save_checkpoint
    from hydronets.region import drain_of, dump_region, height
    from hydronets.training import TrainConfig, train

    big = workload == "ingest-eval-tree63"
    g, store = generate_synthetic(_synth(scale.big_tree if big else scale.tree))
    out.mkdir(parents=True, exist_ok=True)
    (out / "region.json").write_text(dump_region(g))
    (out / "series.csv").write_text(dump_series(store))
    grid = workload == "grid-depth"
    config = {
        "dims": DIMS,
        "train": {
            "learning_rate": 0.01,
            "epochs": scale.grid_epochs if grid else scale.epochs,
            "batch_size": scale.batch_size,
        },
        "seeds": [seed, seed + 1] if grid else [seed],
        "region": str(out / "region.json"),
        "series": str(out / "series.csv"),
    }
    (out / "exp.json").write_text(json.dumps(config, indent=2) + "\n")
    inputs = Inputs(dir=out, config=out / "exp.json", drain=drain_of(g), depth=height(g))
    if big:
        train_set, _, _ = prepare_datasets(store, g, DIMS["window"], DIMS["horizon"], 0.8)
        tc = TrainConfig(
            learning_rate=CKPT_LEARNING_RATE, epochs=CKPT_EPOCHS,
            batch_size=CKPT_BATCH, seed=seed,
        )
        params = train(init_hydronet(g, Dims(**DIMS), seed), train_set, tc).params
        inputs.checkpoint = out / "checkpoint.json"
        inputs.checkpoint.write_text(save_checkpoint(params))
    return inputs


def commands(workload: str, inputs: Inputs, out: Path) -> list[list[str]]:
    cfg = ["--config", str(inputs.config), "--out", str(out)]
    if workload == "train-tree7":
        return [
            ["train", *cfg, "--model", "hydronets"],
            ["evaluate", *cfg, "--checkpoint", str(out / "checkpoint.json")],
        ]
    if workload == "ingest-eval-tree63":
        return [["evaluate", *cfg, "--checkpoint", str(inputs.checkpoint)]]
    return [["exp-depth", *cfg, "--workers", str(GRID_WORKERS)]]


OUTPUT_FILES = {
    "train-tree7": ("checkpoint.json", "history.csv", "metrics.csv"),
    "ingest-eval-tree63": ("metrics.csv",),
    "grid-depth": ("report.csv", "seeds.csv", "manifest.json"),
}


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.iterdir() if p.is_file()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


# --- jobs -----------------------------------------------------------------------

@dataclass
class Job:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    errors: list[str] = field(default_factory=list)
    spans: list[list[dict]] = field(default_factory=list)


def run_job(workload: str, inputs: Inputs, out: Path, trace: bool) -> Job:
    """Run the job's CLI commands, each in its own process, and measure
    wall time, user+sys CPU (from ``wait4``) and peak RSS of those
    processes only."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    job = Job()
    for i, argv in enumerate(commands(workload, inputs, out)):
        spans, rss = out / f"spans{i}.json", out / f"rss{i}.txt"
        cmd = [sys.executable, str(BENCH / "job.py"), "--peak-rss", str(rss)]
        cmd += (["--spans", str(spans)] if trace else []) + ["--", *argv]
        with open(out / f"cmd{i}.out", "wb") as stdout, open(out / f"cmd{i}.err", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            job.wall_s += time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        job.cpu_s += usage.ru_utime + usage.ru_stime
        if proc.returncode != 0:
            tail = (out / f"cmd{i}.err").read_text(errors="replace")[-400:]
            job.errors.append(f"{argv[0]} exited {proc.returncode}: {tail}")
            break
        job.peak_rss_mb = max(job.peak_rss_mb, int(rss.read_text()) / 1024.0)
        if trace:
            job.spans.append(json.loads(spans.read_text()))
    return job


def check_values(workload: str, out: Path) -> dict[str, float]:
    """The numbers the job wrote, by name: every metrics.csv score (plus
    the final training loss) or every seeds.csv value."""
    values: dict[str, float] = {}
    if workload == "grid-depth":
        with open(out / "seeds.csv", newline="") as f:
            for r in csv.DictReader(f):
                values[f"{r['key']}/{r['model']}/{r['seed']}"] = float(r["value"])
        return values
    with open(out / "metrics.csv", newline="") as f:
        for r in csv.DictReader(f):
            for col in ("mse", "r2", "r2_persist"):
                values[f"{r['basin']}/{col}"] = float(r[col])
    if workload == "train-tree7":
        last = (out / "history.csv").read_text().strip().splitlines()[-1]
        values["final_loss"] = float(last.split(",")[1])
    return values


def skill(workload: str, inputs: Inputs, values: dict[str, float]) -> float:
    if workload == "grid-depth":
        prefix = f"depth={inputs.depth}/hydronets/"
        return statistics.fmean(v for k, v in values.items() if k.startswith(prefix))
    return values[f"{inputs.drain}/r2_persist"]


def reference_errors(ref: dict, workload: str, seed: int, values: dict[str, float], sk: float) -> list[str]:
    """Compare with the committed reference: every number for a seed it
    holds, else the skill against the range its seeds span."""
    entry = ref.get(workload)
    if entry is None:
        return [f"no reference for {workload}"]
    expected = entry["seeds"].get(str(seed))
    if expected is None:
        lo, hi = entry["skill_range"]
        margin = max(SKILL_MARGIN, hi - lo)
        if not (lo - margin <= sk <= hi + margin):
            return [f"skill {sk!r} outside reference range [{lo}, {hi}] +- {margin}"]
        return []
    if set(expected) != set(values):
        return [f"output names differ from reference: {sorted(set(expected) ^ set(values))[:5]}"]
    return [
        f"{k}: {values[k]!r} != reference {v!r}"
        for k, v in expected.items()
        if abs(values[k] - v) > ABS_TOL + REL_TOL * abs(v)
    ]


@dataclass
class Outcome:
    jobs: list[Job]
    values: dict[str, float] | None
    skill: float | None


def run_jobs(workload: str, inputs: Inputs, seed: int, ref: dict, traces: list[bool],
             seconds: float = 0.0, before_job=None) -> Outcome:
    """Run jobs (``traces`` gives the first ones, then untraced until the
    jobs have taken ``seconds``), calling ``before_job`` ahead of each, and
    check each one's outputs: the job must succeed, its files must equal
    the first job's byte for byte, and its numbers must match the
    reference."""
    base = inputs.dir.parent
    jobs: list[Job] = []
    first_digest = None
    values = sk = None
    while len(jobs) < len(traces) or sum(j.wall_s for j in jobs) < seconds:
        if before_job is not None:
            before_job()
        out = base / f"job{len(jobs)}"
        job = run_job(workload, inputs, out, traces[len(jobs)] if len(jobs) < len(traces) else False)
        jobs.append(job)
        if job.errors:
            continue
        missing = [f for f in OUTPUT_FILES[workload] if not (out / f).is_file()]
        if missing:
            job.errors.append(f"missing outputs {missing}")
            continue
        digest = hashlib.sha256(b"".join((out / f).read_bytes() for f in OUTPUT_FILES[workload])).hexdigest()
        if first_digest is None:
            first_digest = digest
            try:
                values = check_values(workload, out)
                sk = skill(workload, inputs, values)
            except (OSError, ValueError, KeyError, statistics.StatisticsError) as e:
                job.errors.append(f"unreadable outputs: {e!r}")
                continue
            job.errors += reference_errors(ref, workload, seed, values, sk)
        elif digest != first_digest:
            job.errors.append("outputs differ from the first job's")
    return Outcome(jobs=jobs, values=values, skill=sk)


# --- per-layer metrics ----------------------------------------------------------

T7, ING, GRID = WORKLOADS


def layer_metrics(spans: dict[str, list[list[dict]]], walls: dict[str, tuple[float, float]]) -> dict:
    """Per-layer figures from the traced suite. ``spans[w]`` holds one span
    list per traced process of workload ``w``; ``walls[w]`` is (untraced,
    traced) job wall time. Each metric reads the workloads it is mapped to."""
    from tracer import covered_ns, self_times

    rows: dict[str, list[dict]] = {w: [] for w in spans}
    for w, procs in spans.items():
        for proc in procs:
            selfs = self_times(proc)
            for i, s in enumerate(proc):
                p = s["parent"]
                rows[w].append(dict(
                    s, dur=s["end"] - s["start"], self=selfs[i],
                    parent_name=proc[p]["name"] if p is not None else None,
                    children=[c for c in proc if c["parent"] == i] if s["name"].startswith("experiments.run_") else None,
                ))

    def pick(ws, pred):
        return [r for w in ws for r in rows[w] if pred(r)]

    def named(ws, *names, parent=None):
        return pick(ws, lambda r: r["name"] in names and (parent is None or r["parent_name"] == parent))

    def secs(rs, key="dur"):
        return sum(r[key] for r in rs) / 1e9

    fwd = "model.forward_batch"
    packs = ("model.HydroNetParams.pack", "model.FlatLinearParams.pack")
    unpacks = ("model.HydroNetParams.unpack", "model.FlatLinearParams.unpack")
    load = named((ING,), "data.load_series")
    backward = named((T7,), "training.backward_hydronet")
    bw_ms = sorted(r["dur"] / 1e6 for r in backward)
    trains = named((T7,), "training.train")

    runners = pick((GRID,), lambda r: r["children"] is not None)
    serial = busy = 0.0
    for r in runners:
        work = [c for c in r["children"]
                if c["name"] in ("training.train", "training.train_flat", "metrics.evaluate")]
        serial += (r["dur"] - covered_ns([(c["start"], c["end"]) for c in work])) / 1e9
        threads = len({c["thread"] for c in work}) or 1
        busy += sum(c["end"] - c["start"] for c in work) / (threads * r["dur"])
    untraced = sum(u for u, _ in walls.values())
    traced = sum(t for _, t in walls.values())

    return {
        "data.load_series.s": (secs(load), "s"),
        "data.load_series.rows_per_s": (sum(r["rows"] for r in load) / secs(load), "1/s"),
        "data.prepare_datasets.s": (secs(named((ING,), "data.prepare_datasets")), "s"),
        "data.window_examples.s": (secs(named((ING,), "data.window_examples")), "s"),
        "data.window_examples.feature_mb": (
            sum(r["bytes"] for r in named((ING,), "data.window_examples")) / 1e6, "MB"),
        "model.forward_batch.calls": (len(named((T7, GRID), fwd)), "count"),
        "model.forward_batch.rows": (sum(r["rows"] for r in named((T7, GRID), fwd)), "count"),
        "model.forward_batch.history_s": (secs(named((T7, GRID), fwd, parent="training.train")), "s"),
        "model.forward_batch.backward_s": (
            secs(named((T7, GRID), fwd, parent="training.backward_hydronet")), "s"),
        "model.forward_batch.evaluate_s": (secs(named((ING,), fwd, parent="metrics.evaluate")), "s"),
        "model.params.unpack_s": (secs(named((T7,), *unpacks)), "s"),
        "model.params.pack_s": (secs(named((T7,), *packs)), "s"),
        "model.params.copy_mb": (sum(r["bytes"] for r in named((T7,), *packs, *unpacks)) / 1e6, "MB"),
        "training.train.self_s": (secs(trains, "self"), "s"),
        "training.backward_hydronet.self_s": (secs(backward, "self"), "s"),
        "training.backward_hydronet.calls": (len(backward), "count"),
        "training.backward_hydronet.ms_p50": (statistics.median(bw_ms), "ms"),
        "training.backward_hydronet.ms_p95": (statistics.quantiles(bw_ms, n=20)[-1], "ms"),
        "training.history_frac": (
            secs(named((T7,), fwd, parent="training.train")) / secs(trains), "ratio"),
        "training.train_flat.s": (secs(named((GRID,), "training.train_flat")), "s"),
        "metrics.evaluate.self_s": (secs(named((ING,), "metrics.evaluate"), "self"), "s"),
        "experiments.load_inputs.s": (secs(named((GRID,), "experiments.load_inputs")), "s"),
        "experiments.serial_s": (serial, "s"),
        "experiments.worker_busy_frac": (busy / max(len(runners), 1), "ratio"),
        "cli.main.self_s": (secs(named(WORKLOADS, "cli.main"), "self"), "s"),
        "model.checkpoint_s": (
            secs(named(WORKLOADS, "model.save_checkpoint", "model.load_checkpoint")), "s"),
        "trace.overhead_frac": (traced / untraced - 1.0, "ratio"),
    }


# --- environment ----------------------------------------------------------------

def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:   # numpy < 1.25 prints its config and has no dict mode
        blas = {}
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for f in sorted((SRC / "hydronets").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


# --- runs -----------------------------------------------------------------------

class SetUp:
    """Makes a workload's inputs under ``bench/_work/<workload>/inputs``,
    timing every set-up and keeping the digest of the files it wrote."""

    def __init__(self, workload: str, seed: int, scale: Scale):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.base = WORK / workload
        if self.base.exists():
            shutil.rmtree(self.base)
        self.times: list[float] = []
        self.digests: set[str] = set()

    def __call__(self) -> Inputs:
        start = time.perf_counter()
        inputs = make_inputs(self.workload, self.seed, self.scale, self.base / "inputs")
        self.times.append(time.perf_counter() - start)
        self.digests.add(digest_dir(inputs.dir))
        return inputs

    def round(self) -> None:
        """Set up once, and again until this round has taken
        ``SETUP_ROUND_SECONDS``; once ``SETUP_REPEATS`` set-ups are done,
        only if one takes less than a round."""
        if len(self.times) >= SETUP_REPEATS and statistics.median(self.times) > SETUP_ROUND_SECONDS:
            return
        start = time.perf_counter()
        self()
        while time.perf_counter() - start < SETUP_ROUND_SECONDS:
            self()

    def errors(self) -> list[str]:
        return [] if len(self.digests) == 1 else ["set-up is not deterministic"]


def end_to_end(workload: str, seed: int, seconds: float, scale: Scale, ref: dict) -> dict:
    setups = SetUp(workload, seed, scale)
    inputs = setups()
    # Compile and page in the package before the first timed job.
    subprocess.run([sys.executable, "-c", "import hydronets.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    outcome = run_jobs(workload, inputs, seed, ref, [False] * MIN_JOBS, seconds, setups.round)
    ok = [j for j in outcome.jobs if not j.errors] or outcome.jobs

    def med(attr):
        return statistics.median(getattr(j, attr) for j in ok)

    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "skill_r2_persist": (outcome.skill if outcome.skill is not None else float("nan"), "r2"),
        "setup_s": (statistics.median(setups.times), "s"),
    }
    return {
        "errors": setups.errors(),
        "jobs": outcome.jobs,
        "metrics": metrics,
        "detail": {"setup_s": setups.times, "check_values": outcome.values},
    }


def traced_suite(seed: int, scale: Scale, ref: dict) -> dict:
    spans: dict[str, list[list[dict]]] = {}
    walls: dict[str, tuple[float, float]] = {}
    jobs: list[Job] = []
    errors: list[str] = []
    from tracer import check_nesting

    for workload in WORKLOADS:
        setups = SetUp(workload, seed, scale)
        inputs = setups()
        errors += setups.errors()
        outcome = run_jobs(workload, inputs, seed, ref, [False, True])
        untraced, traced = outcome.jobs
        for i, proc in enumerate(traced.spans):
            traced.errors += [f"{workload} process {i}: {p}" for p in check_nesting(proc)[:5]]
        jobs += outcome.jobs
        spans[workload] = traced.spans
        walls[workload] = (untraced.wall_s, traced.wall_s)
    metrics = layer_metrics(spans, walls) if not any(j.errors for j in jobs) else {}
    return {"errors": errors, "jobs": jobs, "metrics": metrics, "detail": {"walls": walls}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="hydronets benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny tree, one epoch")
    args = ap.parse_args(argv)

    pin_threads()
    if not (SRC / "hydronets" / "cli.py").is_file():
        print(f"error: no hydronets sources under {SRC}", file=sys.stderr)
        return 2
    import_hydronets()
    scale = SMOKE if args.smoke else FULL
    ref = json.loads(REFERENCE.read_text()).get("smoke" if args.smoke else "full", {})

    if args.trace:
        run = traced_suite(args.seed, scale, ref)
    else:
        run = end_to_end(args.workload, args.seed, args.seconds, scale, ref)
    jobs: list[Job] = run["jobs"]
    failed = sum(1 for j in jobs if j.errors)
    correct = failed == 0 and not run["errors"] and bool(run["metrics"])
    for i, j in enumerate(jobs):
        print(f"job {i}: wall {j.wall_s:.3f} s, cpu {j.cpu_s:.3f} s, rss {j.peak_rss_mb:.1f} MB"
              + (f", FAILED: {'; '.join(j.errors)}" if j.errors else ""))
    for e in run["errors"]:
        print(f"error: {e}")
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env,
        "jobs": [{"wall_s": j.wall_s, "cpu_s": j.cpu_s, "peak_rss_mb": j.peak_rss_mb,
                  "errors": j.errors} for j in jobs],
        "detail": run["detail"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
