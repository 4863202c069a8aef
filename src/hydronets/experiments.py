"""Experiment harness: seed-replicated training runs reduced to small
machine-readable report tables.

Three runners cover the questions the model family is built for: how much
upstream graph depth helps prediction at the drain, how the tree model
compares with the flat baseline across all basins of a region, and how
that comparison shifts when training data is scarce. Each runner lists
its grid as cells, one model at one seed, each with the example set it
trains on and the basins it is scored at. One helper trains every
set's cells as one stack (:func:`~hydronets.training.train_stack`),
stacks serially or on a thread pool, and reduces the rows in cell order.
Each run writes its aggregated table, the per-seed values behind it, and
a manifest pinning the config and input hashes, so a re-run reproduces
every artifact byte-for-byte.

The config, :class:`~hydronets.config.ExperimentConfig`, is re-exported
from :mod:`~hydronets.config`. The inputs are hashed with
:data:`~hydronets.codec.sha256`, CPython's own SHA-256, and the thread
pool is imported only by a run on more than one worker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import read_input, sha256
from .config import ExperimentConfig, _reject_unread
from .data import (
    ExampleSet,
    NormStats,
    SeriesStore,
    dump_series,
    generate_synthetic,
    load_series,
    prepare_datasets,
)
from .errors import HydroNetsError
from .metrics import evaluate
from .model import init_flat, init_hydronet
from .region import RegionGraph, drain_of, dump_region, height, parse_region, prune_to_depth
from .training import LossWeights, Member, TrainResult, train_stack

MODEL_KINDS = ("linear", "hydronets")


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
    return g, store, {"region": _sha256(region_text), "series": _sha256(series_text)}


_HASH_PIECE = 1 << 18           # characters


def _sha256(text: str) -> str:
    """Hex sha256 of ``text`` as UTF-8, encoded a piece at a time: encoded
    whole, the text's bytes and the text live at once."""
    digest = sha256()
    for start in range(0, len(text), _HASH_PIECE):
        digest.update(text[start : start + _HASH_PIECE].encode())
    return digest.hexdigest()


def _basins(cfg: ExperimentConfig, g: RegionGraph) -> tuple[str, ...]:
    """The basins a runner reports on: ``cfg.basins``, all of ``g`` when unset."""
    basins = cfg.basins or g.basin_ids
    for bid in basins:
        if bid not in g:
            raise HydroNetsError("unknown-basin", f"basin {bid!r} not in region")
    return tuple(basins)


Data = tuple[ExampleSet, ExampleSet, NormStats]    # train set, test set, norm stats


@dataclass(frozen=True)
class _Cell:
    """One model of a grid at one seed: trained in the stack of the
    example set its report ``key`` names, and scored at ``basins``."""

    key: str
    basins: tuple[str, ...]
    member: Member


def _flat(cfg: ExperimentConfig, g: RegionGraph, target: str, depth: int, key: str, seed: int) -> _Cell:
    """Flat baseline on ``target``'s depth-limited subtree, scored there."""
    return _Cell(key, (target,), Member(init_flat(g, target, depth, cfg.dims, seed), seed))


def _tree(
    cfg: ExperimentConfig, g: RegionGraph, w: LossWeights | None, basins: tuple[str, ...], key: str, seed: int
) -> _Cell:
    """Tree model on all of ``g`` under loss weights ``w``, scored at each
    of ``basins``."""
    return _Cell(key, basins, Member(init_hydronet(g, cfg.dims, seed), seed, w))


def _pair(cfg: ExperimentConfig, g: RegionGraph, target: str, flat_depth: int, key: str, seed: int) -> list[_Cell]:
    """Both model kinds at ``target``: the flat baseline, then the tree
    model with its loss focused there."""
    w = LossWeights.focused(g.basin_ids, target, cfg.alpha)
    return [_flat(cfg, g, target, flat_depth, key, seed), _tree(cfg, g, w, (target,), key, seed)]


def _run_grid(cfg: ExperimentConfig, cells: list[_Cell], data: dict[str, Data]) -> ReportTable:
    """Train the cells, one stack per example set, and aggregate their seed
    rows. Stacks run on a thread pool when ``cfg.workers`` > 1; which cells
    stack together depends on the config alone. Rows, and the error of a
    model that diverged or scored outside the float range, come back in
    cell order either way, so the reduction cannot depend on scheduling."""
    stacks: dict[str, list[int]] = {}
    for i, cell in enumerate(cells):
        stacks.setdefault(cell.key, []).append(i)

    def run(key: str) -> list[tuple[int, list[SeedRow] | HydroNetsError]]:
        train_set, test_set, stats = data[key]
        index = stacks[key]
        results = train_stack([cells[i].member for i in index], train_set, cfg.train)
        return [(i, _rows(cfg, cells[i], result, test_set, stats)) for i, result in zip(index, results)]

    if cfg.workers <= 1:
        done = [run(key) for key in stacks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            done = list(pool.map(run, stacks))
    by_cell = dict(pair for part in done for pair in part)
    seed_rows = []
    for i in range(len(cells)):
        if isinstance(by_cell[i], HydroNetsError):
            raise by_cell[i]
        seed_rows += by_cell[i]
    return _aggregate(seed_rows)


def _rows(
    cfg: ExperimentConfig, cell: _Cell, result: TrainResult | HydroNetsError, test_set: ExampleSet, stats: NormStats
) -> list[SeedRow] | HydroNetsError:
    """The cell's seed rows, from its trained model's scores at its basins,
    or the error that training or scoring ended in."""
    if isinstance(result, HydroNetsError):
        return result
    try:
        scores = evaluate(result.params, test_set, stats).by_basin()
    except HydroNetsError as e:
        return e
    return [SeedRow(cell.key, bid, result.params.kind, cell.member.seed, getattr(scores[bid], cfg.metric))
            for bid in cell.basins]


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
    _reject_unread(cfg, "exp-depth", "basins", "sizes")
    g, store, hashes = load_inputs(cfg)
    drain = drain_of(g)
    depths = range(1, height(g) + 1)

    cells, data = [], {}
    for d in depths:
        sub, key = prune_to_depth(g, drain, d), f"depth={d}"
        data[key] = prepare_datasets(store, sub, cfg.dims.window, cfg.dims.horizon, cfg.train_frac)
        cells += [cell for seed in cfg.seeds for cell in _pair(cfg, sub, drain, d, key, seed)]
    table = _run_grid(cfg, cells, data)
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
    _reject_unread(cfg, "exp-basins", "sizes")
    g, store, hashes = load_inputs(cfg)
    targets = _basins(cfg, g)

    data = {"all-basins": prepare_datasets(store, g, cfg.dims.window, cfg.dims.horizon, cfg.train_frac)}
    cells = [cell for t in targets for seed in cfg.seeds
             for cell in _pair(cfg, g, t, cfg.flat_depth, "all-basins", seed)]
    table = _run_grid(cfg, cells, data)

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
    data = {f"train={c}": (train_full.subset(np.arange(n - c, n)), test_set, stats) for c in counts}
    cells = [_tree(cfg, g, None, basins, f"train={c}", seed) for c in counts for seed in cfg.seeds]
    cells += [
        _flat(cfg, g, bid, cfg.flat_depth, f"train={c}", seed)
        for c in counts for bid in basins for seed in cfg.seeds
    ]
    table = _run_grid(cfg, cells, data)
    _write_run(
        cfg.out_dir, "scarcity", cfg, table, hashes,
        extra_echo={"sizes": list(counts), "basins": list(basins)},
    )
    return table
