"""Series ingestion, normalization, windowing, and the synthetic generator."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydronets.codec import from_doc
from hydronets.data import (
    LEVEL,
    PRECIP,
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
from hydronets.region import drain_of, validate

from conftest import make_series_text, tree_from_parents


class TestLoadSeries:
    def test_uniform_grid(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 100), fork_graph)
        assert store.n_steps == 100
        assert store.basin_ids == fork_graph.basin_ids
        assert store.step_seconds == 3600

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

    def test_round_trip(self, chain2):
        store = load_series(make_series_text(chain2, 10), chain2)
        stats = fit_norm_stats(store, (0, 10))
        back = apply_norm(apply_norm(store, stats), stats, invert=True)
        for bid in store.basin_ids:
            assert np.allclose(back.values[bid], store.values[bid], rtol=1e-12, atol=1e-12)

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

    def test_persistence_is_level_at_anchor(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 50), fork_graph)
        examples = window_examples(store, fork_graph, window=4, horizon=3)
        for ex in examples:
            for bid in fork_graph.basin_ids:
                assert ex.persist[bid] == store.values[bid][ex.anchor, LEVEL]


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


class TestPrepareDatasets:
    def test_boundary_and_stats_interval(self, fork_graph):
        store = load_series(make_series_text(fork_graph, 100), fork_graph)
        train, test, stats = prepare_datasets(store, fork_graph, window=10, horizon=2, train_frac=0.8)
        assert stats.interval == (0, 80)
        assert train.anchors.max() < 80 <= test.anchors.min()
        assert len(train) + len(test) == 100 - 10 - 2 + 1
