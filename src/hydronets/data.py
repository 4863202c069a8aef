"""Per-basin time series: ingestion, normalization, windowing, synthesis.

Feature layout is fixed at two channels per basin and step: column 0 is
precipitation (mm/step), column 1 is water level (m). Missing values are
NaN throughout; windowing drops whole examples rather than imputing.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

import numpy as np

from .errors import HydroNetsError
from .region import RegionGraph, topological_order

PRECIP = 0
LEVEL = 1
CHANNELS = ("precip", "level")
D_X = len(CHANNELS)

SERIES_HEADER = ("timestamp", "basin_id", "precip", "level")


@dataclass(frozen=True)
class SeriesStore:
    """Aligned per-basin series on a uniform timestamp grid.

    ``values[basin]`` has shape (n_steps, 2) with NaN marking missing
    readings. Immutable by convention; transformations return new stores.
    """

    timestamps: np.ndarray                 # (n,) int64 seconds, uniform step
    values: dict[str, np.ndarray]          # basin id -> (n, 2) float64

    @property
    def basin_ids(self) -> tuple[str, ...]:
        return tuple(self.values.keys())

    @property
    def n_steps(self) -> int:
        return len(self.timestamps)

    @property
    def step_seconds(self) -> int:
        return int(self.timestamps[1] - self.timestamps[0]) if self.n_steps > 1 else 0


@dataclass(frozen=True)
class NormStats:
    """Per-basin per-channel z-score statistics over a stated index range."""

    mean: dict[str, np.ndarray]            # basin id -> (2,)
    std: dict[str, np.ndarray]             # basin id -> (2,), all > 0
    interval: tuple[int, int]              # [start, stop) the stats were fitted on

    def denorm_level(self, basin_id: str, values: np.ndarray) -> np.ndarray:
        """Map normalized level-channel values back to meters."""
        if basin_id not in self.mean:
            raise HydroNetsError("missing-stats", f"no stats for basin {basin_id!r}")
        return values * self.std[basin_id][LEVEL] + self.mean[basin_id][LEVEL]


@dataclass(frozen=True)
class Example:
    """One supervised example: feature windows ending at the anchor step,
    labels and persistence readings per basin."""

    anchor: int
    features: dict[str, np.ndarray]        # basin id -> (T, d_x)
    labels: dict[str, float]               # level at anchor + h
    persist: dict[str, float]              # level at anchor


@dataclass(frozen=True)
class ExampleSet:
    """Windowed examples stored column-wise for vectorised evaluation.

    ``features[basin]`` is (N, T, d_x); ``labels`` and ``persist`` are (N,).
    Anchors are strictly increasing.
    """

    graph: RegionGraph
    window: int
    horizon: int
    d_x: int
    anchors: np.ndarray                    # (N,) int
    features: dict[str, np.ndarray]
    labels: dict[str, np.ndarray]
    persist: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.anchors)

    def __getitem__(self, i: int) -> Example:
        return Example(
            anchor=int(self.anchors[i]),
            features={b: f[i] for b, f in self.features.items()},
            labels={b: float(v[i]) for b, v in self.labels.items()},
            persist={b: float(v[i]) for b, v in self.persist.items()},
        )

    def __iter__(self) -> Iterator[Example]:
        return (self[i] for i in range(len(self)))

    def subset(self, index: np.ndarray) -> "ExampleSet":
        """New set holding the selected rows; ``index`` must preserve
        ascending anchor order."""
        return replace(
            self,
            anchors=self.anchors[index],
            features={b: f[index] for b, f in self.features.items()},
            labels={b: v[index] for b, v in self.labels.items()},
            persist={b: v[index] for b, v in self.persist.items()},
        )


def load_series(text: str, g: RegionGraph) -> SeriesStore:
    """Parse a series file (CSV ``timestamp,basin_id,precip,level``).

    Rows may arrive in any order; the timestamp grid is the sorted set of
    timestamps seen and must be uniformly spaced. An empty reading marks a
    missing value; ``nan``, ``inf`` and other non-finite literals are
    rejected. Missing readings and basins of ``g`` missing from the file
    (entirely or at single steps) come back as NaN.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise HydroNetsError("no-rows", "series file is empty") from None
    if tuple(h.strip() for h in header) != SERIES_HEADER:
        raise HydroNetsError("bad-header", f"expected header {','.join(SERIES_HEADER)}")

    rows: list[tuple[int, str, float, float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise HydroNetsError("syntax-error", f"line {lineno}: expected 4 fields, got {len(row)}")
        ts_text, bid, precip_text, level_text = (f.strip() for f in row)
        try:
            ts = int(ts_text)
        except ValueError:
            raise HydroNetsError("syntax-error", f"line {lineno}: bad timestamp {ts_text!r}") from None
        if bid not in g:
            raise HydroNetsError("unknown-basin", f"line {lineno}: basin {bid!r} not in region")
        try:
            precip = float(precip_text) if precip_text else math.nan
            level = float(level_text) if level_text else math.nan
        except ValueError:
            raise HydroNetsError("syntax-error", f"line {lineno}: bad numeric field") from None
        if (precip_text and not math.isfinite(precip)) or (level_text and not math.isfinite(level)):
            raise HydroNetsError(
                "non-finite", f"line {lineno}: non-finite reading; leave the field empty when missing"
            )
        rows.append((ts, bid, precip, level))

    if not rows:
        raise HydroNetsError("no-rows", "series file has no data rows")

    grid = np.array(sorted({ts for ts, *_ in rows}), dtype=np.int64)
    if len(grid) > 1:
        steps = np.diff(grid)
        if steps[0] <= 0 or not (steps == steps[0]).all():
            raise HydroNetsError("non-uniform-grid", "timestamps are not uniformly spaced")
    index = {int(ts): i for i, ts in enumerate(grid)}

    values = {bid: np.full((len(grid), D_X), np.nan) for bid in g.basin_ids}
    filled: set[tuple[int, str]] = set()
    for ts, bid, precip, level in rows:
        if (ts, bid) in filled:
            raise HydroNetsError("duplicate-row", f"basin {bid!r} appears twice at timestamp {ts}")
        filled.add((ts, bid))
        values[bid][index[ts]] = (precip, level)

    return SeriesStore(timestamps=grid, values=values)


def dump_series(store: SeriesStore) -> str:
    """Serialize a store to the series file format (sorted by timestamp
    then basin id; floats via repr so the file round-trips bit-exactly)."""
    out = [",".join(SERIES_HEADER)]
    for i, ts in enumerate(store.timestamps):
        for bid in sorted(store.basin_ids):
            precip, level = store.values[bid][i]
            p = "" if math.isnan(precip) else repr(float(precip))
            lv = "" if math.isnan(level) else repr(float(level))
            out.append(f"{int(ts)},{bid},{p},{lv}")
    return "\n".join(out) + "\n"


def fit_norm_stats(store: SeriesStore, interval: tuple[int, int]) -> NormStats:
    """Per-basin per-channel mean/std over ``[start, stop)``.

    Population convention (divide by N). Constant channels are rejected:
    the linear models need every channel to carry signal after scaling.
    """
    start, stop = interval
    if not (0 <= start < stop <= store.n_steps):
        raise HydroNetsError("empty-range", f"bad fit interval [{start}, {stop}) for {store.n_steps} steps")
    mean: dict[str, np.ndarray] = {}
    std: dict[str, np.ndarray] = {}
    for bid, vals in store.values.items():
        window = vals[start:stop]
        m = np.empty(D_X)
        s = np.empty(D_X)
        for c in range(D_X):
            col = window[:, c]
            col = col[~np.isnan(col)]
            if col.size == 0:
                raise HydroNetsError("empty-range", f"basin {bid!r} channel {CHANNELS[c]} all-missing in range")
            m[c] = col.mean()
            s[c] = col.std()
            if s[c] == 0.0:
                raise HydroNetsError("constant-channel", f"basin {bid!r} channel {CHANNELS[c]} is constant")
        mean[bid] = m
        std[bid] = s
    return NormStats(mean=mean, std=std, interval=(start, stop))


def apply_norm(store: SeriesStore, stats: NormStats, invert: bool = False) -> SeriesStore:
    """Z-score every channel (or undo it with ``invert=True``); NaN stays NaN."""
    values: dict[str, np.ndarray] = {}
    for bid, vals in store.values.items():
        if bid not in stats.mean:
            raise HydroNetsError("missing-stats", f"no stats for basin {bid!r}")
        if invert:
            values[bid] = vals * stats.std[bid] + stats.mean[bid]
        else:
            values[bid] = (vals - stats.mean[bid]) / stats.std[bid]
    return SeriesStore(timestamps=store.timestamps, values=values)


def window_examples(store: SeriesStore, g: RegionGraph, window: int, horizon: int) -> ExampleSet:
    """Build supervised examples: one candidate per anchor ``t`` in
    ``[window-1, n-1-horizon]``; any NaN in any basin's window, label, or
    persistence reading drops the whole candidate."""
    if window < 1 or horizon < 1:
        raise HydroNetsError("bad-window", f"window and horizon must be >= 1, got {window}, {horizon}")
    n = store.n_steps
    if n < window + horizon:
        raise HydroNetsError("series-too-short", f"need at least {window + horizon} steps, have {n}")
    for bid in g.basin_ids:
        if bid not in store.values:
            raise HydroNetsError("unknown-basin", f"store has no series for basin {bid!r}")

    anchors = np.arange(window - 1, n - horizon)
    ok = np.ones(len(anchors), dtype=bool)
    for bid in g.basin_ids:
        vals = store.values[bid]
        step_bad = np.isnan(vals).any(axis=1)
        win_bad = np.lib.stride_tricks.sliding_window_view(step_bad, window).any(axis=1)
        ok &= ~win_bad[anchors - (window - 1)]
        ok &= ~np.isnan(vals[anchors + horizon, LEVEL])
        ok &= ~np.isnan(vals[anchors, LEVEL])
    anchors = anchors[ok]

    features: dict[str, np.ndarray] = {}
    labels: dict[str, np.ndarray] = {}
    persist: dict[str, np.ndarray] = {}
    for bid in g.basin_ids:
        vals = store.values[bid]
        windows = np.lib.stride_tricks.sliding_window_view(vals, window, axis=0)
        features[bid] = np.ascontiguousarray(np.moveaxis(windows, 2, 1)[anchors - (window - 1)])
        labels[bid] = vals[anchors + horizon, LEVEL].copy()
        persist[bid] = vals[anchors, LEVEL].copy()

    return ExampleSet(
        graph=g,
        window=window,
        horizon=horizon,
        d_x=D_X,
        anchors=anchors,
        features=features,
        labels=labels,
        persist=persist,
    )


def split_chronological(examples: ExampleSet, boundary: int) -> tuple[ExampleSet, ExampleSet]:
    """Partition by anchor time: train anchors < boundary <= test anchors."""
    mask = examples.anchors < boundary
    if not mask.any():
        raise HydroNetsError("empty-train", f"no anchors before boundary {boundary}")
    if mask.all():
        raise HydroNetsError("empty-test", f"no anchors at or after boundary {boundary}")
    return examples.subset(mask), examples.subset(~mask)


def prepare_datasets(
    store: SeriesStore,
    g: RegionGraph,
    window: int,
    horizon: int,
    train_frac: float,
) -> tuple[ExampleSet, ExampleSet, NormStats]:
    """Standard pipeline: fit z-score stats on the leading ``train_frac`` of
    the series, normalize, window, and split at the same boundary."""
    boundary = int(round(train_frac * store.n_steps))
    stats = fit_norm_stats(store, (0, boundary))
    normed = apply_norm(store, stats)
    examples = window_examples(normed, g, window, horizon)
    train, test = split_chronological(examples, boundary)
    return train, test, stats


# --- synthetic basin networks -------------------------------------------------

STEP_SECONDS = 3600


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic basin-network generator.

    Scalar ranges are (lo, hi) pairs sampled per basin or per edge; set
    lo == hi to pin a value. ``noise_std`` is in level units (meters).
    """

    branching: int = 2
    height: int = 3
    n_steps: int = 4000
    kernel_scale: tuple[float, float] = (2.0, 4.0)
    delay: tuple[int, int] = (1, 2)
    attenuation: tuple[float, float] = (0.5, 0.9)
    burst_rate: float = 0.08
    burst_scale: float = 5.0
    noise_std: float = 0.0
    seed: int = 0

    @property
    def n_basins(self) -> int:
        return sum(self.branching**k for k in range(self.height))

    def check(self) -> None:
        problems = []
        if self.branching < 1 or self.height < 1:
            problems.append("branching and height must be >= 1")
        if self.n_steps < 1:
            problems.append("n_steps must be >= 1")
        if not (0.0 < self.kernel_scale[0] <= self.kernel_scale[1]):
            problems.append("kernel_scale must satisfy 0 < lo <= hi")
        if not (1 <= self.delay[0] <= self.delay[1]):
            problems.append("delay must satisfy 1 <= lo <= hi")
        if not (0.0 < self.attenuation[0] <= self.attenuation[1] <= 1.0):
            problems.append("attenuation must lie in (0, 1]")
        if not (0.0 <= self.burst_rate <= 1.0):
            problems.append("burst_rate must lie in [0, 1]")
        if self.burst_scale <= 0:
            problems.append("burst_scale must be > 0")
        if self.noise_std < 0:
            problems.append("noise_std must be >= 0")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if problems:
            raise HydroNetsError("invalid-config", "; ".join(problems))


def runoff_kernel(scale: float) -> np.ndarray:
    """Exponential rainfall-to-runoff kernel k(tau) = exp(-tau/s)/s,
    truncated at tau = 4*s."""
    tau = np.arange(int(4 * scale) + 1, dtype=float)
    return np.exp(-tau / scale) / scale


def route_levels(
    g: RegionGraph,
    precip: Mapping[str, np.ndarray],
    scales: Mapping[str, float],
    delays: Mapping[tuple[str, str], int],
    attens: Mapping[tuple[str, str], float],
    noise: Mapping[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Water levels from precipitation: local runoff (causal convolution
    with each basin's kernel) plus attenuated, delayed upstream levels.
    Upstream terms reaching before t=0 contribute zero."""
    levels: dict[str, np.ndarray] = {}
    for bid in topological_order(g):
        p = np.asarray(precip[bid], dtype=float)
        n = len(p)
        y = np.convolve(p, runoff_kernel(scales[bid]))[:n]
        for src in g.upstream[bid]:
            delta = delays[(src, bid)]
            shifted = np.zeros(n)
            if delta < n:
                shifted[delta:] = levels[src][: n - delta]
            y = y + attens[(src, bid)] * shifted
        if noise is not None:
            y = y + noise[bid]
        levels[bid] = y
    return levels


def _balanced_tree(branching: int, height: int) -> RegionGraph:
    """Heap-indexed balanced inverted tree; index 0 is the drain and ids
    zero-padded so lexicographic order equals index order."""
    from .region import Basin

    n = sum(branching**k for k in range(height))
    width = len(str(n - 1)) if n > 1 else 1
    ids = [f"b{str(i).zfill(width)}" for i in range(n)]
    basins = tuple(Basin(id=bid, name=f"basin {i}") for i, bid in enumerate(ids))
    edges = tuple((ids[i], ids[(i - 1) // branching]) for i in range(1, n))
    return RegionGraph(basins=basins, edges=edges)


def generate_synthetic(cfg: SynthConfig) -> tuple[RegionGraph, SeriesStore]:
    """Deterministic synthetic region and series for a given seed.

    Separate RNG streams for parameters, precipitation, and noise, so e.g.
    changing ``noise_std`` never perturbs the rain draws.
    """
    cfg.check()
    g = _balanced_tree(cfg.branching, cfg.height)
    seq = np.random.SeedSequence(cfg.seed)
    param_rng, precip_rng, noise_rng = (np.random.default_rng(s) for s in seq.spawn(3))

    ids = list(g.basin_ids)
    scales = {bid: float(param_rng.uniform(*cfg.kernel_scale)) for bid in ids}
    delays: dict[tuple[str, str], int] = {}
    attens: dict[tuple[str, str], float] = {}
    for edge in g.edges:
        delays[edge] = int(param_rng.integers(cfg.delay[0], cfg.delay[1] + 1))
        attens[edge] = float(param_rng.uniform(*cfg.attenuation))

    n = cfg.n_steps
    precip: dict[str, np.ndarray] = {}
    for bid in ids:
        burst = precip_rng.random(n) < cfg.burst_rate
        magnitude = precip_rng.exponential(cfg.burst_scale, n)
        precip[bid] = np.where(burst, magnitude, 0.0)
    noise = {bid: noise_rng.normal(0.0, cfg.noise_std, n) for bid in ids}

    levels = route_levels(g, precip, scales, delays, attens, noise)
    timestamps = np.arange(n, dtype=np.int64) * STEP_SECONDS
    values = {bid: np.stack([precip[bid], levels[bid]], axis=1) for bid in ids}
    return g, SeriesStore(timestamps=timestamps, values=values)
