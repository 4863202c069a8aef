"""Series ingestion, normalization, windowing, and the synthetic generator."""

import csv
import io
import json
import math
import re
import sys
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydronets import data
from hydronets.codec import from_doc
from hydronets.data import (
    D_X,
    LEVEL,
    PRECIP,
    SERIES_HEADER,
    SeriesStore,
    SynthConfig,
    apply_norm,
    dump_series,
    fit_norm_stats,
    generate_synthetic,
    load_series,
    prepare_datasets,
    route_levels,
    runoff_kernel,
    split_chronological,
    window_examples,
)
from hydronets.errors import HydroNetsError
from hydronets.metrics import evaluate
from hydronets.model import Dims, init_flat, init_hydronet
from hydronets.presets import chain_fixture, tree_fixture
from hydronets.region import Basin, RegionGraph, drain_of, prune_to_depth, validate
from hydronets.training import LossWeights, Member, TrainConfig, train, train_flat, train_stack

from conftest import make_series_text, tree_from_parents


def reference_load_series(text, g):
    """Record-at-a-time series parser, the oracle for :func:`load_series`:
    every record is checked in file order (field count, timestamp, basin,
    number syntax, finiteness) before the grid and duplicate checks. It
    raises uncoded errors on timestamps beyond int64 and on text the csv
    module rejects, so the fuzz below generates neither; tests of their
    own cover both."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise HydroNetsError("no-rows", "series file is empty") from None
    if tuple(h.strip() for h in header) != SERIES_HEADER:
        raise HydroNetsError("bad-header", f"expected header {','.join(SERIES_HEADER)}")

    rows = []
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
    filled = set()
    for ts, bid, precip, level in rows:
        if (ts, bid) in filled:
            raise HydroNetsError("duplicate-row", f"basin {bid!r} appears twice at timestamp {ts}")
        filled.add((ts, bid))
        values[bid][index[ts]] = (precip, level)

    return SeriesStore(timestamps=grid, basin_ids=g.basin_ids, grid=np.stack([values[bid] for bid in g.basin_ids], axis=1))


def reference_window_examples(store, g, window, horizon):
    """Per-basin windowing, the oracle for :func:`window_examples`: the
    valid anchors, and each basin's (N, T, d_x) windows, labels and
    persistence readings as separate arrays. Bad window and horizon values
    and short series are left to :func:`window_examples`' own tests."""
    n = store.n_steps
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
    features, labels, persist = {}, {}, {}
    for bid in g.basin_ids:
        vals = store.values[bid]
        windows = np.lib.stride_tricks.sliding_window_view(vals, window, axis=0)
        features[bid] = np.ascontiguousarray(np.moveaxis(windows, 2, 1)[anchors - (window - 1)])
        labels[bid] = vals[anchors + horizon, LEVEL].copy()
        persist[bid] = vals[anchors, LEVEL].copy()
    return {"anchors": anchors, "features": features, "labels": labels, "persist": persist}


def outcome(parse, text, g):
    """What ``parse`` makes of ``text``: the store's exact bytes (NaN
    included), or the error code and message."""
    try:
        store = parse(text, g)
    except HydroNetsError as e:
        return "error", e.code, str(e)
    return "store", store.timestamps.tobytes(), [(b, v.tobytes()) for b, v in store.values.items()]


FUZZ_GRAPH = tree_from_parents([0, 0])
NUMBERS = ["x", "1.2.3", "--1", " 1.5 ", "\t2\t", "nan", "NaN", "inf", "-Infinity", "1e999", "-1e999",
           "", "  ", "1_0", "+3", "0x10", "1e-400", "1,5"]
TIMESTAMPS = ["x", "1.5", " 7200 ", "", "-3600", "1800", "90000", "00", "1_800", "٣"]
BASINS = ["zz", " b1 ", "B1", "", "b0 ", "b 1"]


@st.composite
def mutated_series(draw):
    """A valid series text for ``FUZZ_GRAPH`` with one to four mutations."""
    n = draw(st.integers(1, 5))
    header, *lines = make_series_text(FUZZ_GRAPH, n).splitlines()
    rows = [line.split(",") for line in lines]
    newline = "\n"
    focus = draw(st.integers(0, len(rows) - 1))  # mutations often share a row, to order checks within it
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from([
            "drop-field", "extra-field", "number", "timestamp", "basin", "quote", "blank",
            "spaces", "duplicate", "shuffle", "drop-row", "crlf",
        ]))
        if not rows:
            break
        r = min(focus, len(rows) - 1) if draw(st.booleans()) else draw(st.integers(0, len(rows) - 1))
        row = rows[r]
        if kind == "drop-field" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif kind == "extra-field":
            row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(["1.0", "", "b1"])))
        elif kind == "number" and len(row) == 4:
            row[draw(st.integers(2, 3))] = draw(st.sampled_from(NUMBERS))
        elif kind == "timestamp" and row:
            row[0] = draw(st.sampled_from(TIMESTAMPS + [str(3600 * (n + 2))]))
        elif kind == "basin" and len(row) > 1:
            row[1] = draw(st.sampled_from(BASINS))
        elif kind == "quote" and row:
            f = draw(st.integers(0, len(row) - 1))
            row[f] = '"' + row[f].replace('"', '""') + '"'
        elif kind == "blank":
            rows.insert(r, [])
        elif kind == "spaces":
            rows.insert(r, [" \t"])
        elif kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        elif kind == "shuffle":
            rows = draw(st.permutations(rows))
        elif kind == "drop-row":
            del rows[r]
        elif kind == "crlf":
            newline = "\r\n"
    return newline.join([header] + [",".join(row) for row in rows]) + newline


class TestLoadSeries:
    def test_uniform_grid(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 100), fork_graph)
        assert store.n_steps == 100
        assert store.basin_ids == fork_graph.basin_ids
        assert (np.diff(store.timestamps) == 3600).all()

    def test_gap_in_grid(self, chain2):
        text = make_series_text(chain2, 5)
        # drop both rows at t=2 to open a hole in the grid
        lines = [l for l in text.splitlines() if not l.startswith("7200,")]
        with pytest.raises(HydroNetsError, match="non-uniform-grid"):
            load_series("\n".join(lines) + "\n", chain2)

    def test_unknown_basin(self, chain2):
        text = make_series_text(chain2, 3) + "0,intruder,1.0,2.0\n"
        with pytest.raises(HydroNetsError, match="unknown-basin"):
            load_series(text, chain2)

    def test_no_rows(self, chain2):
        with pytest.raises(HydroNetsError, match="no-rows"):
            load_series("timestamp,basin_id,precip,level\n", chain2)

    def test_bad_header(self, chain2):
        with pytest.raises(HydroNetsError, match="bad-header"):
            load_series("time,basin,p,l\n0,b1,1,2\n", chain2)

    def test_missing_fields_become_nan(self, chain2):
        text = (
            "timestamp,basin_id,precip,level\n"
            "0,b1,1.0,\n0,b2,1.0,2.0\n"
            "3600,b1,1.0,2.0\n3600,b2,1.0,2.0\n"
        )
        store = load_series(text, chain2)
        assert math.isnan(store.values["b1"][0, LEVEL])
        assert store.values["b1"][0, PRECIP] == 1.0

    @pytest.mark.parametrize("literal", ["inf", "-inf", "nan", "NaN", "Infinity"])
    @pytest.mark.parametrize("column", ["precip", "level"])
    def test_non_finite_reading_rejected(self, chain2, literal, column):
        row = f"0,b1,{literal},2.0" if column == "precip" else f"0,b1,1.0,{literal}"
        text = f"timestamp,basin_id,precip,level\n{row}\n0,b2,1.0,2.0\n"
        with pytest.raises(HydroNetsError, match="non-finite"):
            load_series(text, chain2)

    def test_missing_rows_become_nan(self, chain2):
        # b2 has no row at all at t=0
        text = (
            "timestamp,basin_id,precip,level\n"
            "0,b1,1.0,2.0\n"
            "3600,b1,1.0,2.0\n3600,b2,1.0,2.0\n"
        )
        store = load_series(text, chain2)
        assert np.isnan(store.values["b2"][0]).all()

    def test_duplicate_row_rejected(self, chain2):
        text = make_series_text(chain2, 3)
        text += "0,b1,9.0,9.0\n"
        with pytest.raises(HydroNetsError, match="duplicate-row"):
            load_series(text, chain2)

    def test_only_a_repeat_runs_the_stable_sort(self, chain2):
        # A clean file is checked for repeats without a stable sort of its
        # records. The repeat named is the first in file order, not in
        # sorted order.
        text = make_series_text(chain2, 3)
        with mock.patch.object(data.np, "argsort", wraps=np.argsort) as argsort:
            load_series(text, chain2)
            assert argsort.call_count == 0
            with pytest.raises(HydroNetsError, match=r"^duplicate-row: basin 'b2' appears twice at timestamp 7200$"):
                load_series(text + "7200,b2,9.0,9.0\n0,b1,9.0,9.0\n", chain2)
            assert argsort.call_count == 1

    def test_steps_are_exact_where_offsets_overflow_int64(self, chain2):
        # 2**62 - (-2**62) does not fit in int64.
        rows = [f"{t},b1,{k},{k}" for k, t in enumerate((-(2**62), 0, 2**62))]
        store = load_series("timestamp,basin_id,precip,level\n" + "\n".join(rows[::-1]) + "\n", chain2)
        assert store.timestamps.tolist() == [-(2**62), 0, 2**62]
        assert store.values["b1"][:, PRECIP].tolist() == [0.0, 1.0, 2.0]
        assert np.isnan(store.values["b2"]).all()

    def test_rows_in_any_order(self, chain2):
        text = make_series_text(chain2, 4)
        header, *rows = text.strip().split("\n")
        shuffled = "\n".join([header] + rows[::-1]) + "\n"
        a = load_series(text, chain2)
        b = load_series(shuffled, chain2)
        assert np.array_equal(a.values["b1"], b.values["b1"])

    def test_dump_round_trip(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 20), fork_graph)
        again = load_series(dump_series(store), fork_graph)
        for bid in store.basin_ids:
            assert np.array_equal(store.values[bid], again.values[bid])

    def test_dump_quotes_ids_that_need_it(self):
        ids = ["a,b", 'say "hi"', "line\nbreak", "plain"]
        g = RegionGraph(basins=tuple(Basin(id=b, name=b) for b in ids), edges=())
        rng = np.random.default_rng(2)
        store = SeriesStore(timestamps=np.arange(3) * 3600, basin_ids=tuple(ids), grid=np.stack([rng.standard_normal((3, 2)) for _ in ids], axis=1))
        text = dump_series(store)
        assert '\n0,"a,b",' in text and ',"say ""hi""",' in text and "\n0,plain," in text
        again = load_series(text, g)
        assert outcome(load_series, text, g) == outcome(reference_load_series, text, g)
        for bid in ids:
            assert np.array_equal(store.values[bid], again.values[bid])

    @settings(max_examples=400, deadline=None)
    @given(mutated_series(), st.sampled_from([1, 2, 3, 4096]), st.sampled_from([1, 16, 1 << 18]))
    def test_mutated_series_match_the_reference(self, text, batch, piece):
        # Small batches and pieces put record faults, blank lines, quoted
        # fields and line numbers on both sides of their boundaries.
        with mock.patch.object(data, "_BATCH", batch), mock.patch.object(data, "_PIECE", piece):
            got = outcome(load_series, text, FUZZ_GRAPH)
        assert got == outcome(reference_load_series, text, FUZZ_GRAPH)

    @pytest.mark.parametrize("row, error", [
        ("x,zz,y,inf,5", "syntax-error: line 4: expected 4 fields, got 5"),
        ("x,zz,y,inf", "syntax-error: line 4: bad timestamp 'x'"),
        ("3600,zz,y,inf", "unknown-basin: line 4: basin 'zz'"),
        ("3600,b1,inf,y", "syntax-error: line 4: bad numeric field"),
        ("3600,b1,1,-inf", "non-finite: line 4"),
    ])
    def test_first_faulty_record_and_first_failing_check_win(self, chain2, row, error):
        lines = make_series_text(chain2, 3).splitlines()
        lines[5] = "x,b1,1,2"  # a later faulty record, line 6
        lines[3] = row
        text = "\n".join(lines) + "\n"
        for batch in (1, 2, 4096):
            with mock.patch.object(data, "_BATCH", batch):
                with pytest.raises(HydroNetsError, match=error):
                    load_series(text, chain2)

    def test_timestamp_beyond_int64_is_syntax_error(self, chain2):
        head = "timestamp,basin_id,precip,level\n"
        with pytest.raises(HydroNetsError, match="syntax-error: line 2: bad timestamp '9223372036854775808'"):
            load_series(head + "9223372036854775808,b1,1,2\n", chain2)
        store = load_series(head + "-9223372036854775808,b1,1,2\n", chain2)
        assert store.timestamps[0] == -(2**63)

    def test_csv_reader_error_is_syntax_error(self, chain2):
        text = f"timestamp,basin_id,precip,level\n0,b1,1,{'9' * 200_000}\n"
        with pytest.raises(HydroNetsError, match="syntax-error: line 2: field larger than field limit"):
            load_series(text, chain2)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", None])     # None: no line feed after the last line
    @pytest.mark.parametrize("piece", [1, 64, 1 << 18])
    def test_plain_text_never_builds_a_csv_reader(self, fork_graph, newline, piece):
        rng = np.random.default_rng(5)
        grid = rng.standard_normal((50, 4, D_X))
        grid[rng.integers(50, size=30), rng.integers(4, size=30), rng.integers(D_X, size=30)] = np.nan
        store = SeriesStore(timestamps=(np.arange(50) - 20) * 3600, basin_ids=fork_graph.basin_ids, grid=grid)
        text = dump_series(store)
        text = text[:-1] if newline is None else text.replace("\n", newline)
        with mock.patch.object(data.csv, "reader", side_effect=AssertionError("csv reader built")), \
                mock.patch.object(data, "_PIECE", piece):
            again = load_series(text, fork_graph)
        assert again.timestamps.tobytes() == store.timestamps.tobytes()
        assert again.grid.tobytes() == store.grid.tobytes()

    @pytest.mark.parametrize("row, at", [('3600,"b1",1.0,2.0', 7), ("", 30), (" ", 30), ("\t", 2)])
    def test_text_that_is_not_plain_goes_to_one_csv_reader(self, chain2, row, at):
        # A quoted id in place of a row, or a blank or whitespace-only line
        # put in, several small pieces into the text.
        lines = make_series_text(chain2, 20).splitlines()
        if row.startswith("3600,"):
            lines[at] = row
        else:
            lines.insert(at, row)
        text = "\n".join(lines) + "\n"
        want = outcome(reference_load_series, text, chain2)
        with mock.patch.object(data.csv, "reader", wraps=csv.reader) as reader, mock.patch.object(data, "_PIECE", 64):
            assert outcome(load_series, text, chain2) == want
        assert reader.call_count == 1

    def test_a_long_line_and_a_short_one_are_not_two_records(self, chain2):
        # Split as one, the two lines would read as the two rows they replace.
        lines = make_series_text(chain2, 4).splitlines()
        lines[5:7] = ["7200,b1,1.0,2.0,7200", "b2,1.0,2.0"]
        text = "\n".join(lines) + "\n"
        assert text.count(",") == 3 * text.count("\n")
        with pytest.raises(HydroNetsError, match=r"^syntax-error: line 6: expected 4 fields, got 5$"):
            load_series(text, chain2)
        assert outcome(load_series, text, chain2) == outcome(reference_load_series, text, chain2)

    @pytest.mark.parametrize("field, error", [
        ("1.0\r", "new-line character seen in unquoted field"),
        (" " * 200_000 + "1.0", "field larger than field limit"),
    ])
    def test_csv_reader_errors_keep_their_physical_line_after_plain_pieces(self, chain2, field, error):
        # Both fields would convert, and to 1.0.
        lines = make_series_text(chain2, 20).splitlines()
        ts, bid, _, level = lines[30].split(",")
        lines[30] = f"{ts},{bid},{field},{level}"
        text = "\n".join(lines) + "\n"
        for piece in (1, 64, 1 << 18):
            with mock.patch.object(data, "_PIECE", piece):
                with pytest.raises(HydroNetsError, match=f"^syntax-error: line 31: {error}"):
                    load_series(text, chain2)

    def test_errors_do_not_depend_on_where_the_split_path_stops(self, chain2):
        # A batch is read whole before its records are checked: a faulty
        # record at line 9 wins over text the reader rejects at line 10
        # when its batch ends at line 9, and loses to it otherwise.
        lines = make_series_text(chain2, 10).splitlines()
        lines[8] = "x,b1,1.0,2.0"
        lines[9] = "3600,b1,1.0\r,2.0"
        text = "\n".join(lines) + "\n"
        for batch, error in [(1, "line 9: bad timestamp"), (4, "line 9: bad timestamp"), (16, "line 10: new-line")]:
            for piece in (1, 16, 1 << 18):
                with mock.patch.object(data, "_BATCH", batch), mock.patch.object(data, "_PIECE", piece):
                    with pytest.raises(HydroNetsError, match=f"^syntax-error: {error}"):
                        load_series(text, chain2)

    @pytest.mark.parametrize("row, code", [("0, b1,1.0,2.0", "error"), ('0,"b2",1.0,2.0', "store")])
    def test_fields_are_ids_only_as_the_csv_reader_reads_them(self, row, code):
        # parse_region rejects ids with surrounding whitespace or quotes,
        # but a graph built in code may hold them. The reader strips the
        # first field to 'b1' and unquotes the second to 'b2'.
        g = RegionGraph(basins=tuple(Basin(id=b, name=b) for b in (" b1", '"b2"', "b2")), edges=())
        text = f"timestamp,basin_id,precip,level\n{row}\n"
        want = outcome(reference_load_series, text, g)
        assert want[0] == code
        assert outcome(load_series, text, g) == want


class TestNormStats:
    def test_population_std_levels(self, chain2):
        def vals(bid, t):
            return float(t), [1.0, 2.0, 3.0][t]
        store = load_series(make_series_text(chain2, 3, value_fn=vals), chain2)
        stats = fit_norm_stats(store, (0, 3))
        assert stats.mean["b1"][LEVEL] == pytest.approx(2.0, abs=1e-15)
        # population convention: sqrt(((1-2)^2 + 0 + (3-2)^2) / 3)
        assert stats.std["b1"][LEVEL] == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    def test_population_std_precip(self, chain2):
        def vals(bid, t):
            return [0.0, 0.0, 6.0][t], float(t)
        store = load_series(make_series_text(chain2, 3, value_fn=vals), chain2)
        stats = fit_norm_stats(store, (0, 3))
        assert stats.mean["b1"][PRECIP] == pytest.approx(2.0, abs=1e-15)
        assert stats.std["b1"][PRECIP] == pytest.approx(math.sqrt(8.0), abs=1e-15)

    def test_constant_channel_rejected(self, chain2):
        def vals(bid, t):
            return 1.0, float(t)
        store = load_series(make_series_text(chain2, 5, value_fn=vals), chain2)
        with pytest.raises(HydroNetsError, match="constant-channel"):
            fit_norm_stats(store, (0, 5))

    @pytest.mark.parametrize("level, message", [
        (lambda t: 1e200 * t, "b1' channel level overflows: mean 2e+200, std inf"),
        (lambda t: 1.6e308 - 1e306 * t, "b1' channel level overflows: mean inf"),
        (lambda t: 1e-200 * t, "b1' channel level varies, but its std underflows to 0"),
    ], ids=["std-overflows", "mean-overflows", "std-underflows"])
    def test_finite_readings_whose_stats_are_not(self, chain2, level, message):
        # Every reading is finite, so load_series takes them; each fails
        # here, where the stats are computed, and no RuntimeWarning escapes.
        store = load_series(make_series_text(chain2, 5, value_fn=lambda bid, t: (float(t), level(t))), chain2)
        with pytest.raises(HydroNetsError, match="^" + re.escape(f"non-finite: basin '{message}")):
            fit_norm_stats(store, (0, 5))

    def test_empty_range_rejected(self, chain2):
        store = load_series(make_series_text(chain2, 5), chain2)
        with pytest.raises(HydroNetsError, match="empty-range"):
            fit_norm_stats(store, (3, 3))

    def test_value_at_mean_maps_to_zero(self, chain2):
        def vals(bid, t):
            return float(t), [1.0, 2.0, 3.0][t]
        store = load_series(make_series_text(chain2, 3, value_fn=vals), chain2)
        stats = fit_norm_stats(store, (0, 3))
        normed = apply_norm(store, stats)
        assert normed.values["b1"][1, LEVEL] == 0.0  # 2.0 is the channel mean

    def test_apply_known_affine(self, chain2):
        # std 2, mean 1: v=5 -> 2
        from hydronets.data import NormStats
        stats = NormStats(
            mean={b: np.array([0.0, 1.0]) for b in ("b1", "b2")},
            std={b: np.array([1.0, 2.0]) for b in ("b1", "b2")},
            interval=(0, 3),
        )
        def vals(bid, t):
            return float(t), 5.0 + t
        store = load_series(make_series_text(chain2, 3, value_fn=vals), chain2)
        normed = apply_norm(store, stats)
        assert normed.values["b1"][0, LEVEL] == pytest.approx(2.0, abs=1e-15)

    def test_missing_stats_rejected(self, chain2):
        from hydronets.data import NormStats
        stats = NormStats(mean={"b1": np.zeros(2)}, std={"b1": np.ones(2)}, interval=(0, 1))
        store = load_series(make_series_text(chain2, 3), chain2)
        with pytest.raises(HydroNetsError, match="missing-stats"):
            apply_norm(store, stats)


class TestWindowing:
    def test_count_formula(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 100), fork_graph)
        examples = window_examples(store, fork_graph, window=30, horizon=2)
        assert len(examples) == 69  # 100 - 30 - 2 + 1

    def test_exact_length_boundary(self, chain2):
        store = load_series(make_series_text(chain2, 7), chain2)
        assert len(window_examples(store, chain2, window=5, horizon=2)) == 1

    def test_too_short(self, chain2):
        store = load_series(make_series_text(chain2, 6), chain2)
        with pytest.raises(HydroNetsError, match="series-too-short"):
            window_examples(store, chain2, window=5, horizon=2)

    def test_missing_label_drops_example(self, fork_graph):
        text = make_series_text(fork_graph, 100)
        # blank out b1's level at the last index: kills the last anchor's label
        target = f"{99 * 3600},b1,"
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith(target):
                pre = line.rsplit(",", 1)[0]
                lines[i] = pre + ","
        store = load_series("\n".join(lines) + "\n", fork_graph)
        examples = window_examples(store, fork_graph, window=30, horizon=2)
        assert len(examples) == 68
        assert 97 not in examples.anchors

    def test_window_contents(self, chain2):
        def vals(bid, t):
            return float(t), 100.0 + t if bid == "b1" else 200.0 + t
        store = load_series(make_series_text(chain2, 10, value_fn=vals), chain2)
        examples = window_examples(store, chain2, window=3, horizon=2)
        ex = examples[0]
        assert ex.anchor == 2
        # window covers t-T+1 .. t; label sits at t+h
        assert list(ex.features["b1"][:, PRECIP]) == [0.0, 1.0, 2.0]
        assert ex.labels["b1"] == pytest.approx(104.0)
        assert ex.persist["b1"] == pytest.approx(102.0)

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 20))
    @settings(max_examples=30, deadline=None)
    def test_count_formula_property(self, window, horizon, extra):
        g = tree_from_parents([0])
        n = window + horizon + extra
        store = load_series(make_series_text(g, n), g)
        examples = window_examples(store, g, window=window, horizon=horizon)
        assert len(examples) == n - window - horizon + 1

    def test_grid_is_the_store_s_own_for_the_region_s_basins_in_order(self):
        g, store = generate_synthetic(SynthConfig(branching=2, height=3, n_steps=60, seed=3))
        store.grid[[7, 30], [3, 5], [LEVEL, PRECIP]] = np.nan           # b3 is kept below, b5 is not
        examples = window_examples(store, g, window=5, horizon=2)
        assert examples.grid.base is store.grid and examples.grid.shape == store.grid.shape
        assert not examples.grid.flags.writeable and store.grid.flags.writeable
        # b1's subtree is columns 1, 3 and 4: one take of those, the rest dropped.
        sub = prune_to_depth(g, "b1", 2)
        pruned = window_examples(store, sub, window=5, horizon=2)
        assert not np.shares_memory(pruned.grid, store.grid) and not pruned.grid.flags.writeable
        assert pruned.grid.tobytes() == store.grid[:, [1, 3, 4]].tobytes()
        ref = reference_window_examples(store, sub, 5, 2)
        assert_matches_reference(pruned, ref, np.arange(len(ref["anchors"])))
        assert 9 not in pruned.anchors and 32 in pruned.anchors and 32 not in examples.anchors

    def test_persistence_is_level_at_anchor(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 50), fork_graph)
        examples = window_examples(store, fork_graph, window=4, horizon=3)
        for bid in fork_graph.basin_ids:
            assert np.array_equal(examples.persist[bid], store.values[bid][examples.anchors, LEVEL])


@st.composite
def holed_stores(draw):
    """A random tree, a store over its basins plus one basin outside it,
    with NaN holes at random steps, basins and channels, and a window and
    horizon that fit the series."""
    g = tree_from_parents([draw(st.integers(0, i)) for i in range(draw(st.integers(0, 4)))])
    window, horizon = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    n = window + horizon + draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = list(g.basin_ids) + ["zz"]
    values = rng.standard_normal((len(ids), n, D_X))
    holes = draw(st.integers(0, 6))
    values[rng.integers(len(ids), size=holes), rng.integers(n, size=holes), rng.integers(D_X, size=holes)] = np.nan
    store = SeriesStore(timestamps=np.arange(n) * 3600, basin_ids=tuple(ids[::-1]), grid=np.stack(values[::-1], axis=1))
    return g, store, window, horizon, rng


def assert_matches_reference(examples, ref, index):
    """``examples`` holds the reference's examples at ``index``: the same
    anchors, labels, persistence and windows, read every way a set gives
    them out."""
    ids = examples.graph.basin_ids
    assert np.array_equal(examples.anchors, ref["anchors"][index])
    for field in ("labels", "persist"):
        assert list(getattr(examples, field)) == list(ids)
        for bid in ids:
            assert getattr(examples, field)[bid].tobytes() == ref[field][bid][index].tobytes()
    windows = {bid: ref["features"][bid][index] for bid in ids}
    for i in range(len(examples)):
        for bid in ids:
            assert examples[i].features[bid].tobytes() == windows[bid][i].tobytes()
    every = np.arange(len(examples))
    stacked = np.stack([windows[bid] for bid in ids], axis=2)
    for idx in (every, every[::-1], every[::2]):
        assert examples.windows(idx, slice(None)).tobytes() == stacked[idx].tobytes()
    cols = examples.columns(ids[::-1], examples.window, examples.d_x)
    assert examples.windows(every, cols).tobytes() == stacked[:, :, ::-1][every].tobytes()
    # Lag by lag from the grid, holes and all: the design matrix's product
    # up to summation order.
    weights = np.random.default_rng(len(examples)).standard_normal((math.prod(stacked.shape[1:]), 3))
    want = stacked.reshape(len(stacked), len(weights)) @ weights
    np.testing.assert_allclose(examples.lagged_dot(slice(None), weights), want, rtol=1e-12, atol=1e-12)
    assert list(examples.features) == list(ids)
    for bid in ids:
        assert examples.features[bid].tobytes() == windows[bid].tobytes()
        assert examples.features[bid].shape == windows[bid].shape


class TestWindowingOracle:
    @settings(max_examples=200, deadline=None)
    @given(holed_stores(), st.data())
    def test_matches_the_reference(self, case, data):
        g, store, window, horizon, rng = case
        examples = window_examples(store, g, window, horizon)
        ref = reference_window_examples(store, g, window, horizon)
        everything = np.arange(len(ref["anchors"]))
        assert_matches_reference(examples, ref, everything)
        some = np.sort(rng.permutation(everything)[: len(everything) // 2])
        assert_matches_reference(examples.subset(some), ref, some)
        if len(everything) >= 2:
            boundary = data.draw(st.integers(int(ref["anchors"][0]) + 1, int(ref["anchors"][-1])))
            mask = ref["anchors"] < boundary
            train, test = split_chronological(examples, boundary)
            assert_matches_reference(train, ref, everything[mask])
            assert_matches_reference(test, ref, everything[~mask])


class TestSplit:
    def test_partition(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 100), fork_graph)
        examples = window_examples(store, fork_graph, window=30, horizon=2)
        train, test = split_chronological(examples, 60)
        assert len(train) + len(test) == len(examples)
        assert set(train.anchors) | set(test.anchors) == set(examples.anchors)
        assert set(train.anchors) & set(test.anchors) == set()
        assert train.anchors.max() < 60 <= test.anchors.min()

    def test_empty_train(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 100), fork_graph)
        examples = window_examples(store, fork_graph, window=30, horizon=2)
        with pytest.raises(HydroNetsError, match="empty-train"):
            split_chronological(examples, 0)

    def test_empty_test(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 100), fork_graph)
        examples = window_examples(store, fork_graph, window=30, horizon=2)
        with pytest.raises(HydroNetsError, match="empty-test"):
            split_chronological(examples, 99)

    def test_halves_are_views_equal_to_mask_subsets(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 100), fork_graph)
        examples = window_examples(store, fork_graph, window=30, horizon=2)
        for boundary in range(30, 98):
            mask = examples.anchors < boundary
            for got, want in zip(split_chronological(examples, boundary), (mask, ~mask)):
                assert_same_examples(got, examples.subset(want))
                assert got.grid is examples.grid
                assert np.shares_memory(got.anchors, examples.anchors)
                for bid in fork_graph.basin_ids:
                    assert np.shares_memory(got.labels[bid], examples.labels[bid])
                    assert np.shares_memory(got.persist[bid], examples.persist[bid])

    @given(st.integers(0, 80))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, boundary):
        g = tree_from_parents([0])
        store = load_series(make_series_text(g, 40), g)
        examples = window_examples(store, g, window=5, horizon=1)
        anchors = examples.anchors
        if not (anchors.min() < boundary <= anchors.max()):
            return
        train, test = split_chronological(examples, boundary)
        assert sorted(np.concatenate([train.anchors, test.anchors])) == sorted(anchors)


class TestSynthetic:
    def test_balanced_tree_shape(self):
        g, _ = generate_synthetic(SynthConfig(branching=2, height=3, n_steps=8))
        assert len(g.basins) == 7
        assert validate(g).ok
        assert drain_of(g) == "b0"

    def test_deterministic(self):
        cfg = SynthConfig(branching=2, height=2, n_steps=50, noise_std=0.3, seed=9)
        g1, s1 = generate_synthetic(cfg)
        g2, s2 = generate_synthetic(cfg)
        assert g1 == g2
        for bid in s1.basin_ids:
            assert np.array_equal(s1.values[bid], s2.values[bid])

    def test_zero_bursts_zero_levels(self):
        _, store = generate_synthetic(SynthConfig(branching=2, height=2, n_steps=40, burst_rate=0.0))
        for bid in store.basin_ids:
            assert np.all(store.values[bid] == 0.0)

    def test_unit_burst_traces_kernel(self):
        g = tree_from_parents([])
        n = 12
        precip = {"b0": np.zeros(n)}
        precip["b0"][0] = 1.0
        levels = route_levels(g, precip, {"b0": 1.0}, {}, {})
        kernel = runoff_kernel(1.0)
        assert np.allclose(levels["b0"][: len(kernel)], kernel, rtol=0, atol=1e-15)
        assert np.all(np.diff(levels["b0"][:5]) < 0)  # decays after the burst

    def test_delayed_copy(self):
        g = tree_from_parents([0])  # b1 drains into b0
        n = 20
        rng = np.random.default_rng(1)
        precip = {"b0": np.zeros(n), "b1": rng.exponential(1.0, n)}
        levels = route_levels(
            g, precip, {"b0": 1.0, "b1": 1.0}, {("b1", "b0"): 3}, {("b1", "b0"): 1.0}
        )
        assert np.allclose(levels["b0"][3:], levels["b1"][:-3], rtol=0, atol=1e-12)
        assert np.all(levels["b0"][:3] == 0.0)

    def test_superposition_of_precipitation(self):
        # noise-free levels are linear in the rain: f(p + q) = f(p) + f(q)
        g, _ = generate_synthetic(SynthConfig(branching=2, height=3, n_steps=30))
        rng = np.random.default_rng(4)
        scales = {b: 2.0 for b in g.basin_ids}
        delays = {e: 2 for e in g.edges}
        attens = {e: 0.7 for e in g.edges}
        p = {b: rng.exponential(1.0, 30) for b in g.basin_ids}
        q = {b: rng.exponential(1.0, 30) for b in g.basin_ids}
        both = {b: p[b] + q[b] for b in g.basin_ids}
        fp = route_levels(g, p, scales, delays, attens)
        fq = route_levels(g, q, scales, delays, attens)
        fboth = route_levels(g, both, scales, delays, attens)
        for b in g.basin_ids:
            assert np.allclose(fboth[b], fp[b] + fq[b], rtol=1e-9, atol=1e-12)

    def test_invalid_config(self):
        with pytest.raises(HydroNetsError, match="invalid-config"):
            SynthConfig(branching=0).check()
        with pytest.raises(HydroNetsError, match="invalid-config"):
            SynthConfig(delay=(0, 2)).check()
        with pytest.raises(HydroNetsError, match="invalid-config"):
            SynthConfig(attenuation=(0.5, 1.5)).check()

    def test_noise_stream_independent_of_params(self):
        # same seed, different noise level: rain draws stay identical
        base = SynthConfig(branching=2, height=2, n_steps=40, seed=5, noise_std=0.0)
        noisy = SynthConfig(branching=2, height=2, n_steps=40, seed=5, noise_std=1.0)
        _, s0 = generate_synthetic(base)
        _, s1 = generate_synthetic(noisy)
        for bid in s0.basin_ids:
            assert np.array_equal(s0.values[bid][:, PRECIP], s1.values[bid][:, PRECIP])

    def test_config_round_trip(self):
        cfg = SynthConfig(branching=3, height=2, n_steps=77, noise_std=0.25, seed=42)
        assert from_doc(SynthConfig, json.loads(json.dumps(asdict(cfg)))) == cfg


def assert_same_examples(a, b):
    assert a.graph == b.graph and (a.window, a.horizon, a.d_x) == (b.window, b.horizon, b.d_x)
    assert np.array_equal(a.anchors, b.anchors)
    assert a.grid.tobytes() == b.grid.tobytes() and a.grid.shape == b.grid.shape
    for field in ("features", "labels", "persist"):
        x, y = getattr(a, field), getattr(b, field)
        assert list(x) == list(y)
        for bid in x:
            assert x[bid].tobytes() == y[bid].tobytes() and x[bid].shape == y[bid].shape


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, as
    tracemalloc counts it (numpy reports its arrays there too)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_prepare_datasets_stores_no_windows(self):
        # A (T=24)-step window per example would take 24 grids.
        g, store = generate_synthetic(tree_fixture())
        grid_bytes = store.n_steps * len(g.basin_ids) * D_X * 8
        (train_set, test_set, _), peak = traced_peak(prepare_datasets, store, g, 24, 2, 0.8)
        assert peak < 2.5 * grid_bytes     # measured 2.1 grids; 3.1 with a per-basin store, 26 when every window is stored
        assert train_set.grid is test_set.grid and train_set.grid.nbytes == grid_bytes

    def test_load_series_holds_no_copy_of_the_text(self):
        # One io.StringIO over the text holds it at four bytes a character.
        g, _ = generate_synthetic(SynthConfig(branching=4, height=3, n_steps=1))
        text = make_series_text(g, 4000)                                # 2.8 MiB
        store, peak = traced_peak(load_series, text, g)
        # Measured 1.35 texts; 2.1 through the CSV reader in pieces of
        # 1 << 18, and 7.3 through one buffer.
        assert peak < 1.6 * len(text)
        assert store.n_steps == 4000

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="a call holds its temporary arguments before 3.11")
    def test_load_series_frees_a_temporary_text_before_the_grid(self):
        # From CPython 3.11 a call hands its temporary arguments to the
        # callee, so load_series holds the only reference to the text. Small
        # pieces and batches leave the text and the columns as the parse's
        # peak; building the grid beside the text would pass it.
        g, _ = generate_synthetic(SynthConfig(branching=4, height=3, n_steps=1))
        with mock.patch.object(data, "_PIECE", 1 << 12), mock.patch.object(data, "_BATCH", 64):
            tracemalloc.start()
            try:
                texts = [make_series_text(g, 1500)]                     # 1.0 MiB
                size = len(texts[0])
                tracemalloc.reset_peak()
                store = load_series(texts.pop(), g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2.15 * size          # measured 1.9 texts; 2.4 if the text lives on, 3.2 with row sorts
        assert store.n_steps == 1500

    def test_a_stack_holds_one_batch_of_windows_at_a_time(self):
        # exp-depth's stack at depth 3: two seeds, each a flat model and a
        # tree. Each seed's batch of windows is gathered and dropped in
        # turn, and none is alive during the full-set loss. Measured 1.2
        # times a lone tree's peak; 2.0 with both seeds' windows alive.
        g, store = generate_synthetic(tree_fixture())
        dims = Dims(window=24, embedding=4, horizon=2)
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        cfg = TrainConfig(epochs=2, batch_size=256)
        w = LossWeights.focused(g.basin_ids, drain_of(g), 0.9)
        members = [member for seed in (0, 1) for member in (
            Member(init_flat(g, drain_of(g), 3, dims, seed), seed), Member(init_hydronet(g, dims, seed), seed, w))]
        _, alone = traced_peak(train, init_hydronet(g, dims, 0), train_set, cfg, w)
        _, stacked = traced_peak(train_stack, members, train_set, cfg)
        assert stacked <= 1.25 * alone

    def test_train_and_evaluate_never_build_the_windows(self):
        g, store = generate_synthetic(SynthConfig(branching=2, height=2, n_steps=120, noise_std=0.1))
        dims = Dims(window=6, embedding=2, horizon=2)
        train_set, test_set, stats = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        cfg = TrainConfig(epochs=2, batch_size=16)
        for p, fit in [(init_hydronet(g, dims, 0), train), (init_flat(g, "b0", 2, dims, 0), train_flat)]:
            evaluate(fit(p, train_set, cfg).params, test_set, stats)
        assert "features" not in vars(train_set) and "features" not in vars(test_set)
        assert set(test_set.features) == set(g.basin_ids) and "features" in vars(test_set)


class TestPrepareDatasets:
    @pytest.mark.parametrize("fixture", [tree_fixture, chain_fixture])
    def test_matches_mask_subsets_on_the_fixtures(self, fixture):
        g, store = generate_synthetic(fixture())
        train, test, stats = prepare_datasets(store, g, window=24, horizon=2, train_frac=0.8)
        boundary = int(round(0.8 * store.n_steps))
        examples = window_examples(apply_norm(store, fit_norm_stats(store, (0, boundary))), g, 24, 2)
        mask = examples.anchors < boundary
        assert_same_examples(train, examples.subset(mask))
        assert_same_examples(test, examples.subset(~mask))
        assert stats.interval == (0, boundary)

    @pytest.mark.parametrize(
        "train_frac, code",
        [(0.00575, "empty-train"), (0.006, None), (0.9995, "empty-test"), (0.99925, None)],
    )
    def test_split_edges(self, train_frac, code):
        # 4000 steps, T=24, H=2: anchors 23..3997, boundary round(frac * 4000)
        g, store = generate_synthetic(tree_fixture())
        if code is None:
            train, test, _ = prepare_datasets(store, g, window=24, horizon=2, train_frac=train_frac)
            assert len(train) >= 1 and len(test) >= 1
        else:
            with pytest.raises(HydroNetsError, match=code):
                prepare_datasets(store, g, window=24, horizon=2, train_frac=train_frac)

    def test_boundary_and_stats_interval(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 100), fork_graph)
        train, test, stats = prepare_datasets(store, fork_graph, window=10, horizon=2, train_frac=0.8)
        assert stats.interval == (0, 80)
        assert train.anchors.max() < 80 <= test.anchors.min()
        assert len(train) + len(test) == 100 - 10 - 2 + 1
