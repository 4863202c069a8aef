"""Per-basin time series: ingestion, normalization, windowing, synthesis.

Feature layout is fixed at two channels per basin and step: column 0 is
precipitation (mm/step), column 1 is water level (m). Missing values are
NaN throughout; windowing drops whole examples rather than imputing.

:func:`load_series` reads a series file column by column, in pieces of
about ``_PIECE`` characters, and numpy writes every reading into one
``(n_steps, n_basins, 2)`` grid. A piece with no ``"`` or NUL, no ``\\r``
outside ``\\r\\n``, three commas on every line and no line over
``csv.field_size_limit()`` is split with ``str.split`` and its fields
converted unstripped, which is exact: ``int()`` and ``float()`` skip the
whitespace ``str.strip`` removes, a blank reading fails, and an id
matches only ids equal to their stripped form. From the first other
piece, or the first holding a faulty record, the CSV reader reads the
rest, so every error is its own. No buffer holds the whole text, and
:func:`load_series` lets go of the text once it is parsed: a text passed
as a temporary is freed before the grid is built.

A :class:`SeriesStore`, its normalized copy and an :class:`ExampleSet`
share that layout. An example set holds the normalized grid once, the
store's own when it holds the region's basins in the region's order,
plus the anchors whose windows are complete. No window is stored: a minibatch is gathered from the grid with one
index, and full-set passes read the grid one lag at a time. The
chronological split shares the grid and slices the rest.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import types
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import HydroNetsError
from .region import RegionGraph

PRECIP = 0
LEVEL = 1
CHANNELS = ("precip", "level")
D_X = len(CHANNELS)
# The most float64 values a numpy array holds; checks count sizes against it.
MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize

SERIES_HEADER = ("timestamp", "basin_id", "precip", "level")


@dataclass(frozen=True)
class SeriesStore:
    """Aligned series of several basins on a uniform timestamp grid.

    ``grid[step, m]`` holds basin ``basin_ids[m]``'s readings at
    ``timestamps[step]``, NaN where missing, in :class:`ExampleSet`'s
    layout. Immutable by convention; transformations return new stores.
    """

    timestamps: np.ndarray                 # (n_steps,) int64 seconds, uniform step
    basin_ids: tuple[str, ...]
    grid: np.ndarray                       # (n_steps, n_basins, 2) float64

    @property
    def n_steps(self) -> int:
        return len(self.timestamps)

    @property
    def values(self) -> Mapping[str, np.ndarray]:
        """Read-only mapping of basin id to its (n_steps, 2) view of the
        grid."""
        return types.MappingProxyType({bid: self.grid[:, m] for m, bid in enumerate(self.basin_ids)})


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
    """Supervised examples over one normalized series grid.

    ``grid`` is (n_steps, n, d_x), basins in ``graph.basin_ids`` order;
    example ``i``'s window is ``grid[anchors[i] - window + 1 : anchors[i] +
    1]``, and ``labels`` and ``persist`` are (N,) per basin. Anchors are
    strictly increasing. No array here has a window axis, and subsets
    share the grid.
    """

    graph: RegionGraph
    window: int
    horizon: int
    d_x: int
    anchors: np.ndarray                    # (N,) int
    grid: np.ndarray                       # (n_steps, n, d_x)
    labels: dict[str, np.ndarray]          # level at anchor + horizon
    persist: dict[str, np.ndarray]         # level at anchor

    def __len__(self) -> int:
        return len(self.anchors)

    def __getitem__(self, i: int) -> Example:
        anchor = int(self.anchors[i])
        x = self.grid[anchor - self.window + 1 : anchor + 1]
        return Example(
            anchor=anchor,
            features={b: x[:, m] for m, b in enumerate(self.graph.basin_ids)},
            labels={b: float(v[i]) for b, v in self.labels.items()},
            persist={b: float(v[i]) for b, v in self.persist.items()},
        )

    @functools.cached_property
    def features(self) -> Mapping[str, np.ndarray]:
        """Every basin's (N, T, d_x) windows, read-only, built on first
        use. They take ``window`` times the grid's memory; training and
        evaluation gather from the grid instead."""
        windows = {}
        for m, bid in enumerate(self.graph.basin_ids):
            windows[bid] = self.windows(slice(None), np.array([m]))[:, :, 0]
            windows[bid].flags.writeable = False
        return types.MappingProxyType(windows)

    def subset(self, index: np.ndarray | slice) -> "ExampleSet":
        """New set holding the selected rows; ``index`` must preserve
        ascending anchor order. It shares the grid; a slice gives views of
        the other arrays, an index array copies them."""
        return replace(
            self,
            anchors=self.anchors[index],
            labels={b: v[index] for b, v in self.labels.items()},
            persist={b: v[index] for b, v in self.persist.items()},
        )

    def columns(self, basin_ids: Sequence[str], window: int, d_x: int) -> slice | np.ndarray:
        """Grid columns of ``basin_ids``, for a model that reads (window,
        d_x) windows: a full slice when they are the grid's own basins in
        order. Anything else the set cannot supply is ``shape-mismatch``."""
        if (window, d_x) != (self.window, self.d_x):
            raise HydroNetsError(
                "shape-mismatch", f"examples have ({self.window}, {self.d_x}) windows, want ({window}, {d_x})"
            )
        if tuple(basin_ids) == self.graph.basin_ids:
            return slice(None)
        index = {bid: m for m, bid in enumerate(self.graph.basin_ids)}
        for bid in basin_ids:
            if bid not in index:
                raise HydroNetsError("shape-mismatch", f"no features for basin {bid!r}")
        return np.array([index[bid] for bid in basin_ids], dtype=np.intp)

    @functools.cached_property
    def _window_view(self) -> np.ndarray:
        """Read-only (n_steps - T + 1, T, n, d_x) view of the grid: item i
        is the window that ends at step i + T - 1, one contiguous block."""
        steps, n, d_x = self.grid.shape
        return np.lib.stride_tricks.as_strided(
            self.grid, (max(steps - self.window + 1, 0), self.window, n, d_x),
            (self.grid.strides[0], *self.grid.strides), writeable=False,
        )

    def windows(self, idx: np.ndarray | slice, cols: slice | np.ndarray) -> np.ndarray:
        """(B, T, n_cols, d_x) windows of the examples at ``idx``. Over all
        the grid's columns, each window is a block of :attr:`_window_view`,
        copied whole: 2.4 times faster than ``np.take`` of its rows. Over
        some, one ``np.take`` along one axis of the grid: measured several
        times faster than indexing it with a pair of index arrays."""
        if isinstance(cols, slice):
            return self._window_view[self.anchors[idx] - (self.window - 1)]
        lags = np.arange(1 - self.window, 1)
        n, d_x = self.grid.shape[1:]
        cells = (self.anchors[idx] * n)[:, None] + (lags[:, None] * n + cols).ravel()
        return np.take(self.grid.reshape(-1, d_x), cells, axis=0).reshape(len(cells), self.window, len(cols), d_x)

    def lagged_dot(self, cols: slice | np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(N, k): every example's flattened (T, n_cols, d_x) window times
        ``weights`` (T * n_cols * d_x, k), summed one lag at a time.

        Each lag is one matmul over the grid rows from the first anchor to
        the last, shifted by the lag, so neither windows nor gathered
        inputs are built; the columns of anchors not in the set are
        computed and dropped.
        """
        if not len(self):
            return np.zeros((0, weights.shape[-1]))
        first, last = int(self.anchors[0]), int(self.anchors[-1])
        span = last - first + 1
        rows = self.grid[first - self.window + 1 : last + 1][:, cols]
        rows = rows.reshape(len(rows), -1)
        out = np.zeros((weights.shape[-1], span))
        for t, w in enumerate(weights.reshape(self.window, -1, weights.shape[-1])):
            out += w.T @ rows[t : t + span].T
        return out.T[self.anchors - first]


def load_series(text: str, g: RegionGraph) -> SeriesStore:
    """Parse a series file (CSV ``timestamp,basin_id,precip,level``).

    Rows may arrive in any order; the timestamp grid is the sorted set of
    timestamps seen and must be uniformly spaced. Fields are stripped of
    surrounding whitespace, and blank lines are skipped. An empty reading
    marks a missing value; ``nan``, ``inf`` and other non-finite literals
    are rejected. Missing readings and basins of ``g`` missing from the
    file (entirely or at single steps) come back as NaN.

    The text is read in the pieces of :func:`_pieces`. A piece with no
    ``"`` or NUL, no ``\\r`` outside ``\\r\\n``, exactly three commas on
    every line and no line over ``csv.field_size_limit()`` is split with
    ``str.split`` into the fields the CSV reader would read from it. They
    are converted unstripped, which is exact: ``int()`` and ``float()``
    skip the whitespace ``str.strip`` removes, a blank reading fails to
    convert, and ids are looked up only among those equal to their
    stripped form. From the first other piece, or the first holding a
    faulty record, one CSV reader reads on from that piece's physical
    line, each piece through its own ``io.StringIO``, in batches of
    ``_BATCH`` records whose fields it strips; so lines, line numbers and
    errors are those of one reader over the whole text. Both paths split
    lines at line feeds only, where ``str.splitlines`` would also split at
    ``\\v``, ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028`` and
    ``\\u2029``. Each column is converted in one C-level pass. Then the
    function drops its references to ``text``: from CPython 3.11 a call's
    temporary argument is held by the callee alone, so
    ``load_series(read_input(path), g)`` frees the text before the grid is
    built. numpy builds the grid, marks the (basin, step) cell of every
    record and writes every reading with one assignment. Only when fewer
    cells are marked than records read does a stable sort of the records
    find the first repeated one.

    The first faulty record in file order raises, with the error its first
    failing check gives: field count, timestamp (a 64-bit integer), basin,
    number syntax, finiteness. Grid and duplicate checks follow, over the
    whole file. Text the CSV reader itself rejects raises ``syntax-error``
    with its physical line number as soon as it is read.
    """
    if not text:
        raise HydroNetsError("no-rows", "series file is empty")
    index = {bid: i for i, bid in enumerate(g.basin_ids)}
    # Every record takes a line or more, so the columns can fill in place.
    # They live beside the text, so basin indices take 4 bytes, not 8.
    bound = text.count("\n") + 1
    ts, basin, readings = np.empty(bound, np.int64), np.empty(bound, np.int32), np.empty((bound, D_X))
    rows = 0
    for columns in _records(text, index):
        end = rows + len(columns[0])
        ts[rows:end], basin[rows:end], readings[rows:end] = columns
        rows = end
    if not rows:
        raise HydroNetsError("no-rows", "series file has no data rows")
    # The columns hold all the grid needs, and ``text`` is often the
    # caller's temporary: free it now.
    del text
    ts, basin, readings = ts[:rows], basin[:rows], readings[:rows]

    # Not np.unique: on numpy 2 it hashes, which took 3 times as long as
    # this, and its first call imports numpy.ma.
    grid = np.sort(ts)
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    if len(grid) > 1:
        steps = np.diff(grid)
        if steps[0] <= 0 or not (steps == steps[0]).all():        # <= 0: int64 wrap-around
            raise HydroNetsError("non-uniform-grid", "timestamps are not uniformly spaced")
    # A search, not ``(ts - grid[0]) // step``: exact even where that
    # difference overflows int64.
    step = np.searchsorted(grid, ts)
    del ts

    # A repeated record marks no new cell.
    filled = np.zeros((len(index), len(grid)), dtype=bool)
    filled[basin, step] = True
    if np.count_nonzero(filled) != rows:
        # A stable sort keeps equal cells in file order, so the first repeat
        # in file order is the earliest non-first member of any run.
        cell = step * len(index) + basin
        order = np.argsort(cell, kind="stable")
        row = order[1:][cell[order[1:]] == cell[order[:-1]]].min()
        raise HydroNetsError(
            "duplicate-row", f"basin {g.basin_ids[basin[row]]!r} appears twice at timestamp {grid[step[row]]}"
        )

    values = np.full((len(grid), len(index), D_X), np.nan)
    values[step, basin] = readings
    return SeriesStore(timestamps=grid, basin_ids=g.basin_ids, grid=values)


# Characters of text per piece. A split piece takes a string per field,
# and an io.StringIO holds its piece at up to four bytes per character.
# On a 19 MB series, an evaluate's parse peaked 2.9 MB below its file
# read at 1 << 16, and above it at 1 << 18 (by 1.6 MB) and, through the
# CSV reader alone, at 1 << 20 (by about 2 MB).
_PIECE = 1 << 16


def _pieces(text: str) -> Iterator[str]:
    """``text`` in consecutive pieces of at least ``_PIECE`` characters,
    each but the last ending just after a line feed."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _PIECE - 1) + 1 or len(text)
        yield text[start:end]
        start = end


Columns = tuple[np.ndarray, np.ndarray, np.ndarray]   # timestamps, basin indices, (n, 2) readings


def _records(text: str, index: dict[str, int]) -> Iterator[Columns]:
    """The converted data records of ``text``, a batch at a time: each
    plain piece split by :func:`_split`, and from the first piece that is
    not plain or holds a faulty record on, :func:`_read_csv`."""
    # Split fields keep their surrounding whitespace: an id that differs
    # from its stripped form would match there and not in the CSV reader.
    plain = {bid: i for bid, i in index.items() if bid == bid.strip()}
    line = 1                                # physical line the next piece starts on
    pieces = _pieces(text)
    for piece in pieces:
        fields = _split(piece)
        if fields is None:
            break
        head = 4 if line == 1 else 0
        if head:
            _check_header(fields[:4])
        columns = _columns(*(fields[head + k :: 4] for k in range(4)), plain)
        if columns is None:
            break
        yield columns
        line += len(fields) // 4
    else:
        return
    yield from _read_csv(itertools.chain([piece], pieces), line, index)


def _split(piece: str) -> list[str] | None:
    """The fields of ``piece``, four to a line, when the CSV reader would
    read the same fields from it; None when it might not."""
    # NUL: the CSV reader rejects it before Python 3.11.
    if '"' in piece or "\0" in piece:
        return None
    if "\r" in piece:
        piece = piece.replace("\r\n", "\n")
        if "\r" in piece:
            return None
    if not piece.endswith("\n"):
        piece += "\n"
    if not _four_fields_a_line(piece.encode("utf-8", "surrogatepass")):
        return None
    fields = piece.replace("\n", ",").split(",")
    fields.pop()
    return fields


def _four_fields_a_line(text: bytes) -> bool:
    """Whether every line of ``text``, which ends in a line feed, holds
    exactly three commas and is no longer than ``csv.field_size_limit()``."""
    codes = np.frombuffer(text, np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))
    commas = np.flatnonzero(codes == ord(","))
    if len(commas) != 3 * len(ends):
        return False
    # A total is not enough: a line of five fields and one of three would
    # split as two of four. Lengths are in bytes, never fewer than
    # characters.
    starts = np.concatenate(([-1], ends[:-1]))
    commas = commas.reshape(-1, 3)
    return bool((commas[:, 0] > starts).all() and (commas[:, 2] < ends).all()
                and (ends - starts).max() <= csv.field_size_limit() + 1)


# Records read per batch by the CSV reader. A batch's row lists stay alive
# until it is converted; much larger batches measured slower (the cyclic
# garbage collector rescans the live row lists) and take more memory.
_BATCH = 4096


def _read_csv(pieces: Iterator[str], line: int, index: dict[str, int]) -> Iterator[Columns]:
    """The converted data records of ``pieces``, read with the CSV reader,
    whose first line is physical line ``line`` of the text: the header
    when ``line`` is 1. The first faulty record raises
    :func:`_first_fault`'s error."""
    reader = csv.reader(itertools.chain.from_iterable(map(io.StringIO, pieces)))
    try:
        if line == 1:
            _check_header(next(reader, []))
        first_line = max(line, 2)
        # A batch is read whole before its records are checked, so batches
        # start at lines 2 + k * _BATCH wherever the reader starts: which of
        # a faulty record and text the reader rejects raises stays the same.
        size = _BATCH - (first_line - 2) % _BATCH
        while batch := list(itertools.islice(reader, size)):
            if records := list(filter(None, batch)):                # blank lines give []
                columns = None
                if set(map(len, records)) == {4}:
                    columns = _columns(*(list(map(str.strip, col)) for col in zip(*records)), index)
                if columns is None:
                    raise _first_fault(records, batch, first_line, index)
                yield columns
            first_line += len(batch)
            size = _BATCH
    except csv.Error as e:  # e.g. a field over the csv module's size limit
        raise HydroNetsError("syntax-error", f"line {line - 1 + reader.line_num}: {e}") from None


def _check_header(header: list[str]) -> None:
    if tuple(h.strip() for h in header) != SERIES_HEADER:
        raise HydroNetsError("bad-header", f"expected header {','.join(SERIES_HEADER)}")


def _columns(
    ts: list[str], bids: list[str], precip: list[str], level: list[str], index: dict[str, int]
) -> Columns | None:
    """The converted columns of a batch of records, or None when a field
    fails a check. Only an empty reading is NaN."""
    empty = precip.count("") + level.count("")
    convert = _reading if empty else float      # float alone took 60% of the time
    n = len(ts)
    try:
        readings = np.stack([np.fromiter(map(convert, col), float, n) for col in (precip, level)], axis=1)
        columns = (
            np.fromiter(map(int, ts), np.int64, n),
            np.fromiter(map(index.__getitem__, bids), np.int32, n),
            readings,
        )
    except (ValueError, KeyError, OverflowError):
        return None
    # An empty field is the only way a reading may be NaN.
    if np.isinf(readings).any() or np.isnan(readings).sum() != empty:
        return None
    return columns


def _reading(field: str) -> float:
    return float(field) if field else math.nan


def _first_fault(
    records: list[list[str]], batch: list[list[str]], first_line: int, index: dict[str, int]
) -> HydroNetsError:
    """The error for the first faulty record of ``records``: the first of
    its checks to fail, in :func:`load_series`' order."""
    lines = (first_line + k for k, r in enumerate(batch) if r)
    for line, record in zip(lines, records):
        if len(record) != 4:
            return HydroNetsError("syntax-error", f"line {line}: expected 4 fields, got {len(record)}")
        ts, bid, *fields = (f.strip() for f in record)
        readings = [x for x in fields if x]
        if not _parses(_int64, ts):
            return HydroNetsError("syntax-error", f"line {line}: bad timestamp {ts!r}")
        if bid not in index:
            return HydroNetsError("unknown-basin", f"line {line}: basin {bid!r} not in region")
        if not all(_parses(float, x) for x in readings):
            return HydroNetsError("syntax-error", f"line {line}: bad numeric field")
        if not all(math.isfinite(float(x)) for x in readings):
            return HydroNetsError("non-finite", f"line {line}: non-finite reading; leave the field empty when missing")


def _parses(convert, text: str) -> bool:
    try:
        convert(text)
    except (ValueError, OverflowError):
        return False
    return True


def _int64(text: str) -> np.int64:
    return np.int64(int(text))


def dump_series(store: SeriesStore) -> str:
    """Serialize a store to the series file format (sorted by timestamp
    then basin id; floats via repr so the file round-trips bit-exactly)."""
    out = [",".join(SERIES_HEADER)]
    fields = sorted((bid, m, _csv_field(bid)) for m, bid in enumerate(store.basin_ids))
    # Step by step: the whole grid as floats took 28 MB more at 63 basins.
    for ts, step in zip(store.timestamps.tolist(), store.grid):
        row = step.tolist()
        for _, m, field in fields:
            precip, level = row[m]
            p = "" if math.isnan(precip) else repr(precip)
            lv = "" if math.isnan(level) else repr(level)
            out.append(f"{ts},{field},{p},{lv}")
    return "\n".join(out) + "\n"


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only when it holds a comma, a
    quote or a line break."""
    out = io.StringIO()
    csv.writer(out).writerow([text])
    return out.getvalue().removesuffix("\r\n")


def fit_norm_stats(store: SeriesStore, interval: tuple[int, int]) -> NormStats:
    """Per-basin per-channel mean/std over ``[start, stop)``.

    Population convention (divide by N). Constant channels are rejected:
    the linear models need every channel to carry signal after scaling.
    So are finite readings whose mean or std overflows, or whose std
    underflows to zero, as ``non-finite``: their z-scores would not be.
    """
    start, stop = interval
    if not (0 <= start < stop <= store.n_steps):
        raise HydroNetsError("empty-range", f"bad fit interval [{start}, {stop}) for {store.n_steps} steps")
    mean: dict[str, np.ndarray] = {}
    std: dict[str, np.ndarray] = {}
    window = store.grid[start:stop]
    for j, bid in enumerate(store.basin_ids):
        m = np.empty(D_X)
        s = np.empty(D_X)
        for c in range(D_X):
            col = window[:, j, c]
            col = col[~np.isnan(col)]
            name = f"basin {bid!r} channel {CHANNELS[c]}"
            if col.size == 0:
                raise HydroNetsError("empty-range", f"{name} all-missing in range")
            with np.errstate(over="ignore", invalid="ignore"):
                m[c] = col.mean()
                s[c] = col.std()
            if not (np.isfinite(m[c]) and np.isfinite(s[c])):
                raise HydroNetsError("non-finite", f"{name} overflows: mean {m[c]}, std {s[c]}")
            if s[c] == 0.0 and col.min() != col.max():
                raise HydroNetsError("non-finite", f"{name} varies, but its std underflows to 0")
            elif s[c] == 0.0:
                raise HydroNetsError("constant-channel", f"{name} is constant")
        mean[bid] = m
        std[bid] = s
    return NormStats(mean=mean, std=std, interval=(start, stop))


def apply_norm(store: SeriesStore, stats: NormStats) -> SeriesStore:
    """Z-score every channel into a new grid; NaN stays NaN."""
    for bid in store.basin_ids:
        if bid not in stats.mean:
            raise HydroNetsError("missing-stats", f"no stats for basin {bid!r}")
    grid = store.grid - np.array([stats.mean[bid] for bid in store.basin_ids])
    grid /= np.array([stats.std[bid] for bid in store.basin_ids])
    return replace(store, grid=grid)


def window_examples(store: SeriesStore, g: RegionGraph, window: int, horizon: int) -> ExampleSet:
    """Build supervised examples: one candidate per anchor ``t`` in
    ``[window-1, n-1-horizon]``; any NaN in any basin's window, label, or
    persistence reading drops the whole candidate. The set's read-only
    grid is a view of ``store.grid`` when ``store`` holds ``g``'s basins
    in ``g``'s order, and otherwise one take of ``g``'s columns."""
    if window < 1 or horizon < 1:
        raise HydroNetsError("bad-window", f"window and horizon must be >= 1, got {window}, {horizon}")
    n = store.n_steps
    if n < window + horizon:
        raise HydroNetsError("series-too-short", f"need at least {window + horizon} steps, have {n}")
    if g.basin_ids == store.basin_ids:
        grid = store.grid.view()
    else:
        index = {bid: m for m, bid in enumerate(store.basin_ids)}
        for bid in g.basin_ids:
            if bid not in index:
                raise HydroNetsError("unknown-basin", f"store has no series for basin {bid!r}")
        grid = np.take(store.grid, [index[bid] for bid in g.basin_ids], axis=1)
    grid.flags.writeable = False
    anchors = np.arange(window - 1, n - horizon)
    step_bad = np.isnan(grid).any(axis=(1, 2))
    ok = ~np.lib.stride_tricks.sliding_window_view(step_bad, window).any(axis=1)[: len(anchors)]
    ok &= ~np.isnan(grid[anchors + horizon, :, LEVEL]).any(axis=1)    # the persistence reading is in the window
    anchors = anchors[ok]

    levels = grid[:, :, LEVEL].T                                          # (n, n_steps) view
    return ExampleSet(
        graph=g,
        window=window,
        horizon=horizon,
        d_x=D_X,
        anchors=anchors,
        grid=grid,
        labels=dict(zip(g.basin_ids, levels[:, anchors + horizon])),
        persist=dict(zip(g.basin_ids, levels[:, anchors])),
    )


def split_chronological(examples: ExampleSet, boundary: int) -> tuple[ExampleSet, ExampleSet]:
    """Partition by anchor time: train anchors < boundary <= test anchors.

    Anchors increase, so the train set is a prefix: both halves share
    ``examples``' grid, and their other arrays are slice views of its.
    """
    cut = int(np.searchsorted(examples.anchors, boundary))
    if cut == 0:
        raise HydroNetsError("empty-train", f"no anchors before boundary {boundary}")
    if cut == len(examples):
        raise HydroNetsError("empty-test", f"no anchors at or after boundary {boundary}")
    return examples.subset(slice(0, cut)), examples.subset(slice(cut, None))


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

    def check(self) -> None:
        problems = []
        if self.branching < 1 or self.height < 1:
            problems.append("branching and height must be >= 1")
        elif self.n_steps * _basin_count(self.branching, self.height) * D_X > MAX_FLOATS:
            problems.append("the series, n_steps steps of every basin, holds more values than a numpy array can")
        if self.n_steps < 1:
            problems.append("n_steps must be >= 1")
        if not (0.0 < self.kernel_scale[0] <= self.kernel_scale[1]):
            problems.append("kernel_scale must satisfy 0 < lo <= hi")
        elif 4 * self.kernel_scale[1] >= MAX_FLOATS:
            problems.append("kernel_scale is so large that its kernel holds more values than a numpy array can")
        if not (1 <= self.delay[0] <= self.delay[1] <= np.iinfo(np.int64).max):
            problems.append("delay must satisfy 1 <= lo <= hi < 2**63")
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
    for bid in g.topo_order:
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


def _basin_count(branching: int, height: int) -> int:
    """Basins of a balanced tree; past 64 levels, which already hold more
    basins than any array, a branching tree counts as 64 levels high."""
    if branching == 1:
        return height
    return (branching ** min(height, 64) - 1) // (branching - 1)


def _balanced_tree(branching: int, height: int) -> RegionGraph:
    """Heap-indexed balanced inverted tree; index 0 is the drain and ids
    zero-padded so lexicographic order equals index order."""
    from .region import Basin

    n = _basin_count(branching, height)
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
    grid = np.stack([np.column_stack([x[bid] for bid in ids]) for x in (precip, levels)], axis=2)
    return g, SeriesStore(timestamps=timestamps, basin_ids=g.basin_ids, grid=grid)
