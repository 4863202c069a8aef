"""Experiment harness: seed-replicated training runs reduced to small
machine-readable report tables.

Three runners cover the questions the model family is built for: how much
upstream graph depth helps prediction at the drain, how the tree model
compares with the flat baseline across all basins of a region, and how
that comparison shifts when training data is scarce. Each runner lists
its grid as jobs, one per cell and seed, and each job returns its own
per-seed rows; one helper runs the jobs, serially or on a thread pool,
and reduces the rows in job order. Each run writes its aggregated table,
the per-seed values behind it, and a manifest pinning the config and
input hashes, so a re-run reproduces every artifact byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .codec import from_doc, parse_json, read_input
from .data import (
    ExampleSet,
    NormStats,
    SeriesStore,
    SynthConfig,
    dump_series,
    generate_synthetic,
    load_series,
    prepare_datasets,
)
from .errors import HydroNetsError
from .metrics import evaluate
from .model import Dims, init_flat, init_hydronet
from .region import RegionGraph, drain_of, dump_region, height, parse_region, prune_to_depth
from .training import LossWeights, TrainConfig, train, train_flat

MODEL_KINDS = ("linear", "hydronets")
METRICS = ("r2", "r2_persist")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run needs. Field names are the JSON keys
    of a config file; ``basins`` and ``sizes`` are the runners' target
    basins (all when unset) and training-set sizes."""

    dims: Dims
    train: TrainConfig = TrainConfig()
    seeds: tuple[int, ...] = tuple(range(10))
    metric: str = "r2_persist"
    out_dir: str = "runs"
    region: str | None = None
    series: str | None = None
    synth: SynthConfig | None = None
    train_frac: float = 0.8
    alpha: float = 0.9
    flat_depth: int = 2
    workers: int = 1
    basins: tuple[str, ...] | None = None
    sizes: tuple[int, ...] | None = None

    def check(self) -> None:
        self.dims.check()
        self.train.check()
        if not self.seeds or min(self.seeds) < 0:
            raise HydroNetsError("invalid-config", "need at least one seed, all >= 0")
        for name in ("seeds", "basins", "sizes"):
            values = getattr(self, name) or ()
            if len(set(values)) != len(values):
                raise HydroNetsError("invalid-config", f"{name} lists a value twice: {list(values)}")
        for name in ("basins", "sizes"):
            if getattr(self, name) == ():
                raise HydroNetsError("invalid-config", f"{name} is empty; null leaves it unset")
        if self.sizes and min(self.sizes) < 1:
            raise HydroNetsError("invalid-config", "sizes must be >= 1")
        if self.metric not in METRICS:
            raise HydroNetsError("invalid-config", f"metric must be one of {METRICS}")
        from_files = self.region is not None and self.series is not None
        if from_files == (self.synth is not None):
            raise HydroNetsError(
                "invalid-config", "give either region+series paths or a synth config, not both"
            )
        if self.synth is not None:
            self.synth.check()
        if not (0.0 < self.train_frac < 1.0):
            raise HydroNetsError("invalid-config", "train_frac must lie in (0, 1)")
        if not (0.0 < self.alpha <= 1.0):
            raise HydroNetsError("invalid-config", "alpha must lie in (0, 1]")
        if self.flat_depth < 1 or self.workers < 1:
            raise HydroNetsError("invalid-config", "flat_depth and workers must be >= 1")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = parse_json(text, "invalid-config")
        if isinstance(doc, dict) and isinstance(doc.get("train"), dict) and "seed" in doc["train"]:
            raise HydroNetsError("invalid-config", "train.seed is not read: runs take their seeds from seeds")
        cfg = from_doc(cls, doc)
        cfg.check()
        return cfg

    def echo(self) -> dict:
        """Config as a manifest-ready dict: exactly the fields that determine
        the run's numbers (so no out_dir, no worker count and no train.seed,
        which ``seeds`` overrides). The runners record the basins and sizes
        they used next to it."""
        doc = asdict(self)
        for name in ("out_dir", "workers", "basins", "sizes"):
            del doc[name]
        del doc["train"]["seed"]
        return {name: value for name, value in doc.items() if value is not None}


# --- report tables --------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    key: str
    basin: str
    model: str
    mean: float
    std: float
    n_seeds: int


@dataclass(frozen=True)
class SeedRow:
    key: str
    basin: str
    model: str
    seed: int
    value: float


@dataclass(frozen=True)
class ReportTable:
    rows: tuple[ReportRow, ...]
    seed_rows: tuple[SeedRow, ...] = ()

    def seed_values(self, key: str, basin: str, model: str) -> list[float]:
        return [
            r.value for r in self.seed_rows
            if r.key == key and r.basin == basin and r.model == model
        ]


def emit_report(table: ReportTable) -> str:
    """Render the aggregated table as CSV with a fixed header, numbers at
    6 decimal places."""
    lines = ["key,basin,model,mean,std,n_seeds"]
    for r in table.rows:
        lines.append(f"{r.key},{r.basin},{r.model},{r.mean:.6f},{r.std:.6f},{r.n_seeds}")
    return "\n".join(lines) + "\n"


def emit_seed_rows(table: ReportTable) -> str:
    """Full-precision per-seed values backing the aggregated table."""
    lines = ["key,basin,model,seed,value"]
    for r in table.seed_rows:
        lines.append(f"{r.key},{r.basin},{r.model},{r.seed},{r.value!r}")
    return "\n".join(lines) + "\n"


def _aggregate(seed_rows: list[SeedRow]) -> ReportTable:
    """Reduce per-seed rows to (mean, std) rows in one pass: (key, basin)
    pairs in order of first appearance, model kinds in ``MODEL_KINDS``
    order within each. Population std, full precision."""
    groups: dict[tuple[str, str], dict[str, list[float]]] = {}
    for r in seed_rows:
        groups.setdefault((r.key, r.basin), {}).setdefault(r.model, []).append(r.value)
    rows = tuple(
        ReportRow(
            key=key, basin=basin, model=model,
            mean=float(np.mean(values)), std=float(np.std(values)), n_seeds=len(values),
        )
        for (key, basin), by_model in groups.items()
        for model in MODEL_KINDS
        if (values := by_model.get(model))
    )
    return ReportTable(rows=rows, seed_rows=tuple(seed_rows))


# --- shared plumbing ------------------------------------------------------------

def load_inputs(cfg: ExperimentConfig) -> tuple[RegionGraph, SeriesStore, dict[str, str]]:
    """Region graph, series, and sha256 hashes of their canonical text."""
    if cfg.synth is not None:
        g, store = generate_synthetic(cfg.synth)
        region_text, series_text = dump_region(g), dump_series(store)
    else:
        region_text = read_input(cfg.region, "syntax-error")
        series_text = read_input(cfg.series, "syntax-error")
        g = parse_region(region_text)
        store = load_series(series_text, g)
    hashes = {
        "region": hashlib.sha256(region_text.encode()).hexdigest(),
        "series": hashlib.sha256(series_text.encode()).hexdigest(),
    }
    return g, store, hashes


def _basins(cfg: ExperimentConfig, g: RegionGraph) -> tuple[str, ...]:
    """The basins a runner reports on: ``cfg.basins``, all of ``g`` when unset."""
    basins = cfg.basins or g.basin_ids
    for bid in basins:
        if bid not in g:
            raise HydroNetsError("unknown-basin", f"basin {bid!r} not in region")
    return tuple(basins)


Data = tuple[ExampleSet, ExampleSet, NormStats]    # train set, test set, norm stats


def _run_grid(jobs: list[Callable[[], list[SeedRow]]], workers: int) -> ReportTable:
    """Run the jobs, on a thread pool when ``workers`` > 1, and aggregate
    their seed rows. Rows come back in job order either way, so the
    reduction cannot depend on scheduling."""
    if workers <= 1:
        results = [job() for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda job: job(), jobs))
    return _aggregate([row for rows in results for row in rows])


def _flat_rows(
    cfg: ExperimentConfig, g: RegionGraph, target: str, depth: int, key: str, data: Data, seed: int
) -> list[SeedRow]:
    """Flat baseline on ``target``'s depth-limited subtree, scored there."""
    train_set, test_set, stats = data
    fp = init_flat(g, target, depth, cfg.dims, seed)
    fp = train_flat(fp, train_set, replace(cfg.train, seed=seed)).params
    score = evaluate(fp, test_set, stats).by_basin()[target]
    return [SeedRow(key, target, "linear", seed, getattr(score, cfg.metric))]


def _tree_rows(
    cfg: ExperimentConfig, g: RegionGraph, w: LossWeights | None, basins: tuple[str, ...],
    key: str, data: Data, seed: int,
) -> list[SeedRow]:
    """Tree model on all of ``g`` under loss weights ``w``, scored at each
    of ``basins``."""
    train_set, test_set, stats = data
    hp = init_hydronet(g, cfg.dims, seed)
    hp = train(hp, train_set, replace(cfg.train, seed=seed), w).params
    scores = evaluate(hp, test_set, stats).by_basin()
    return [SeedRow(key, bid, "hydronets", seed, getattr(scores[bid], cfg.metric)) for bid in basins]


def _pair_rows(
    cfg: ExperimentConfig, g: RegionGraph, target: str, flat_depth: int, key: str, data: Data, seed: int
) -> list[SeedRow]:
    """Both model kinds at ``target``: the flat baseline, then the tree
    model with its loss focused there."""
    w = LossWeights.focused(g.basin_ids, target, cfg.alpha)
    return (
        _flat_rows(cfg, g, target, flat_depth, key, data, seed)
        + _tree_rows(cfg, g, w, (target,), key, data, seed)
    )


def _write_run(
    out_dir: str,
    name: str,
    cfg: ExperimentConfig,
    table: ReportTable,
    hashes: dict[str, str],
    extra_echo: dict | None = None,
    extra_files: dict[str, str] | None = None,
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"experiment": name, "config": cfg.echo(), "inputs": hashes}
    if extra_echo:
        manifest.update(extra_echo)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (out / "report.csv").write_text(emit_report(table))
    (out / "seeds.csv").write_text(emit_seed_rows(table))
    for fname, text in (extra_files or {}).items():
        (out / fname).write_text(text)


# --- runners --------------------------------------------------------------------

def run_depth_experiment(cfg: ExperimentConfig) -> ReportTable:
    """Prediction at the drain as a function of upstream depth.

    For each depth d = 1..height, the region is pruned to the basins within
    d hops of the drain and both model kinds are trained from scratch on
    that subtree, so at every depth they see the same features.
    """
    cfg.check()
    g, store, hashes = load_inputs(cfg)
    drain = drain_of(g)
    depths = range(1, height(g) + 1)

    jobs = []
    for d in depths:
        sub = prune_to_depth(g, drain, d)
        data = prepare_datasets(store, sub, cfg.dims.window, cfg.dims.horizon, cfg.train_frac)
        jobs += [partial(_pair_rows, cfg, sub, drain, d, f"depth={d}", data, seed) for seed in cfg.seeds]
    table = _run_grid(jobs, cfg.workers)
    _write_run(cfg.out_dir, "depth", cfg, table, hashes)
    return table


@dataclass(frozen=True)
class ComparisonRow:
    basin: str
    linear: float
    hydronets: float

    @property
    def diff(self) -> float:
        # Subtract at full precision; rounding the operands first can be
        # off by one in the last printed digit.
        return self.hydronets - self.linear


def emit_comparison(rows: tuple[ComparisonRow, ...]) -> str:
    lines = ["basin,linear,hydronets,diff"]
    for r in rows:
        lines.append(f"{r.basin},{r.linear:.6f},{r.hydronets:.6f},{r.diff:.6f}")
    return "\n".join(lines) + "\n"


def emit_diff_summary(diffs: list[float], bins: int = 10) -> str:
    """Histogram of the per-basin diff column."""
    counts, edges = np.histogram(diffs, bins=bins)
    lines = ["bin_lo,bin_hi,count"]
    for i, c in enumerate(counts):
        lines.append(f"{edges[i]:.6f},{edges[i + 1]:.6f},{int(c)}")
    return "\n".join(lines) + "\n"


def run_all_basins(cfg: ExperimentConfig) -> tuple[ReportTable, tuple[ComparisonRow, ...]]:
    """Tree model vs flat baseline at each of ``cfg.basins`` (all when unset).

    The tree model trains on the full region with the loss focused on the
    target (weight alpha there, the rest spread evenly); the flat baseline
    trains on the target's depth-limited subtree.
    """
    cfg.check()
    g, store, hashes = load_inputs(cfg)
    targets = _basins(cfg, g)

    data = prepare_datasets(store, g, cfg.dims.window, cfg.dims.horizon, cfg.train_frac)
    table = _run_grid(
        [partial(_pair_rows, cfg, g, t, cfg.flat_depth, "all-basins", data, seed)
         for t in targets for seed in cfg.seeds],
        cfg.workers,
    )

    by_key = {(r.basin, r.model): r.mean for r in table.rows}
    comparison = tuple(
        ComparisonRow(basin=t, linear=by_key[(t, "linear")], hydronets=by_key[(t, "hydronets")])
        for t in targets
    )
    _write_run(
        cfg.out_dir, "all-basins", cfg, table, hashes,
        extra_echo={"targets": list(targets)},
        extra_files={
            "comparison.csv": emit_comparison(comparison),
            "diff_summary.csv": emit_diff_summary([r.diff for r in comparison]),
        },
    )
    return table, comparison


def run_scarcity(cfg: ExperimentConfig) -> ReportTable:
    """Both model kinds at each of ``cfg.basins`` (all when unset) as the
    training set shrinks through ``cfg.sizes``.

    For each count c the training set is cut to its most recent c examples;
    the test tail never changes. The tree model trains once per (c, seed)
    with uniform weights and is read out at every requested basin; the flat
    baseline trains per basin on its depth-limited subtree.
    """
    cfg.check()
    counts = cfg.sizes
    if counts is None:
        raise HydroNetsError("invalid-config", "scarcity run needs training sizes")
    g, store, hashes = load_inputs(cfg)
    basins = _basins(cfg, g)

    train_full, test_set, stats = prepare_datasets(
        store, g, cfg.dims.window, cfg.dims.horizon, cfg.train_frac
    )
    n = len(train_full)
    if max(counts) > n:
        raise HydroNetsError(
            "invalid-config", f"largest training size {max(counts)} exceeds the {n} available"
        )
    data = {c: (train_full.subset(np.arange(n - c, n)), test_set, stats) for c in counts}
    jobs = [
        partial(_tree_rows, cfg, g, None, basins, f"train={c}", data[c], seed)
        for c in counts for seed in cfg.seeds
    ]
    jobs += [
        partial(_flat_rows, cfg, g, bid, cfg.flat_depth, f"train={c}", data[c], seed)
        for c in counts for bid in basins for seed in cfg.seeds
    ]
    table = _run_grid(jobs, cfg.workers)
    _write_run(
        cfg.out_dir, "scarcity", cfg, table, hashes,
        extra_echo={"sizes": list(counts), "basins": list(basins)},
    )
    return table
