"""Skill scores and model evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydronets.data import ExampleSet, NormStats
from hydronets.errors import HydroNetsError
from hydronets.metrics import evaluate, mse, r2_nse, r2_persist
from hydronets.model import Dims, FlatLinearParams, forward_batch, init_hydronet, param_count

from conftest import random_trees, tree_from_parents

PREDS = np.array([2.0, 3.0, 7.0])
LABELS = np.array([2.0, 4.0, 8.0])
PERSIST = np.array([1.0, 2.0, 4.0])


class TestMse:
    def test_exact(self):
        assert mse(LABELS, LABELS) == 0.0

    def test_oracle(self):
        assert mse(PREDS, LABELS) == pytest.approx(2 / 3, abs=1e-15)

    def test_single_pair(self):
        assert mse(np.array([0.0]), np.array([3.0])) == 9.0

    def test_length_mismatch(self):
        with pytest.raises(HydroNetsError, match="shape-mismatch"):
            mse(np.zeros(2), np.zeros(3))

    def test_empty(self):
        with pytest.raises(HydroNetsError, match="empty-metric-input"):
            mse(np.zeros(0), np.zeros(0))


class TestR2Nse:
    def test_perfect(self):
        assert r2_nse(LABELS, LABELS) == 1.0

    def test_oracle(self):
        # label mean 14/3, baseline mse 56/9, model mse 2/3, ratio 3/28
        assert r2_nse(PREDS, LABELS) == pytest.approx(25 / 28, abs=1e-9)

    def test_mean_predictor_scores_zero(self):
        preds = np.full(3, LABELS.mean())
        assert r2_nse(preds, LABELS) == pytest.approx(0.0, abs=1e-15)

    def test_constant_labels(self):
        with pytest.raises(HydroNetsError, match="constant-labels"):
            r2_nse(np.array([1.0, 2.0]), np.array([3.0, 3.0]))


class TestR2Persist:
    def test_persistence_scores_exactly_zero(self):
        assert r2_persist(PERSIST, LABELS, PERSIST) == 0.0

    def test_oracle(self):
        # persist mse (1 + 4 + 16) / 3 = 7, model mse 2/3
        assert r2_persist(PREDS, LABELS, PERSIST) == pytest.approx(19 / 21, abs=1e-9)

    def test_perfect(self):
        assert r2_persist(LABELS, LABELS, PERSIST) == 1.0

    def test_exact_persistence_rejected(self):
        with pytest.raises(HydroNetsError, match="zero-persist-error"):
            r2_persist(PREDS, LABELS, LABELS)

    def test_below_persistence_goes_negative(self):
        bad = LABELS + 10.0
        assert r2_persist(bad, LABELS, PERSIST) < 0.0


class TestAffineInvariance:
    @given(
        st.floats(-50, 50), st.floats(0.1, 40),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_property(self, b, a, seed):
        rng = np.random.default_rng(seed)
        labels = rng.standard_normal(12)
        preds = labels + rng.standard_normal(12) * 0.5
        persist = labels + rng.standard_normal(12) * 0.8 + 0.1
        r2 = r2_nse(preds, labels)
        r2p = r2_persist(preds, labels, persist)
        assert r2_nse(a * preds + b, a * labels + b) == pytest.approx(r2, rel=1e-9, abs=1e-9)
        assert r2_persist(a * preds + b, a * labels + b, a * persist + b) == pytest.approx(
            r2p, rel=1e-9, abs=1e-9
        )

    def test_persist_below_nse_when_persistence_stronger(self):
        # persistence closer to the labels than their mean is: the persist
        # score must come out below plain NSE for the same predictions
        labels = np.array([1.0, 2.0, 3.0, 4.0])
        persist = labels - 0.1
        preds = labels + 0.5
        assert mse(persist, labels) < mse(np.full(4, labels.mean()), labels)
        assert r2_persist(preds, labels, persist) < r2_nse(preds, labels)


def single_basin_examples(n=6):
    g = tree_from_parents([])
    rng = np.random.default_rng(3)
    level = rng.standard_normal(n).cumsum() + 5.0
    grid = np.zeros((n, 1, 2))
    grid[:, 0, 1] = level
    labels = level + rng.standard_normal(n) * 0.1
    return g, ExampleSet(
        graph=g, window=1, horizon=1, d_x=2,
        anchors=np.arange(n),
        grid=grid,
        labels={"b0": labels},
        persist={"b0": level},
    )


class TestEvaluate:
    def test_persistence_model_scores_zero(self):
        g, examples = single_basin_examples()
        dims = Dims(window=1, embedding=1, horizon=1)
        # weights read the level channel at the anchor: prediction == persist
        p = FlatLinearParams(
            target="b0", included=("b0",), dims=dims,
            weights=np.array([0.0, 1.0]), bias=0.0,
        )
        report = evaluate(p, examples)
        assert report.scores[0].r2_persist == pytest.approx(0.0, abs=1e-12)

    def test_perfect_model(self):
        g, examples = single_basin_examples()
        dims = Dims(window=1, embedding=1, horizon=1)
        p = FlatLinearParams(
            target="b0", included=("b0",), dims=dims,
            weights=np.array([0.0, 1.0]), bias=0.0,
        )
        exact = ExampleSet(
            graph=g, window=1, horizon=1, d_x=2,
            anchors=examples.anchors,
            grid=examples.grid,
            labels={"b0": examples.grid[:, 0, 1]},
            persist={"b0": examples.grid[:, 0, 1] - 0.5},
        )
        score = evaluate(p, exact).scores[0]
        assert score.mse == 0.0 and score.r2 == 1.0 and score.r2_persist == 1.0

    def test_tree_model_scores_every_basin(self, fork_graph):
        dims = Dims(window=2, embedding=2, horizon=1)
        p = init_hydronet(fork_graph, dims, 0)
        rng = np.random.default_rng(0)
        n = 8
        examples = ExampleSet(
            graph=fork_graph, window=2, horizon=1, d_x=2,
            anchors=np.arange(1, n + 1),
            grid=rng.standard_normal((n + 1, 4, 2)),
            labels={b: rng.standard_normal(n) for b in fork_graph.basin_ids},
            persist={b: rng.standard_normal(n) for b in fork_graph.basin_ids},
        )
        report = evaluate(p, examples)
        assert [s.basin_id for s in report.scores] == list(fork_graph.basin_ids)
        assert all(s.n_examples == n for s in report.scores)
        assert all(s.r2 <= 1.0 and s.r2_persist <= 1.0 for s in report.scores)

    @settings(max_examples=100, deadline=None)
    @given(random_trees(max_basins=12), st.integers(1, 20), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_tree_scores_match_per_window_forward(self, g, window, embedding, seed):
        rng = np.random.default_rng(seed)
        dims = Dims(window=window, embedding=embedding, horizon=1)
        p = init_hydronet(g, dims, seed)
        p = p.unpack(p.pack() + 0.5 * rng.standard_normal(param_count(p)))
        n = int(rng.integers(2, 10))
        examples = ExampleSet(
            graph=g, window=window, horizon=1, d_x=2,
            anchors=np.arange(window - 1, n + window - 1),
            grid=rng.standard_normal((n + window - 1, len(g.basin_ids), 2)),
            labels={b: rng.standard_normal(n) for b in g.basin_ids},
            persist={b: rng.standard_normal(n) for b in g.basin_ids},
        )
        stats = NormStats(
            mean={b: rng.standard_normal(2) for b in g.basin_ids},
            std={b: rng.uniform(0.5, 2.0, 2) for b in g.basin_ids},
            interval=(0, n),
        )
        preds = forward_batch(p, examples.features)[2]
        for norm in (None, stats):
            report = evaluate(p, examples, norm)
            assert [s.basin_id for s in report.scores] == list(g.basin_ids)
            for score in report.scores:
                bid = score.basin_id
                labels, persist, want = examples.labels[bid], examples.persist[bid], preds[bid]
                if norm is not None:
                    labels, persist, want = (norm.denorm_level(bid, x) for x in (labels, persist, want))
                assert score.n_examples == n
                assert score.mse == pytest.approx(mse(want, labels), rel=1e-12)
                assert score.r2 == pytest.approx(r2_nse(want, labels), rel=1e-12, abs=1e-12)
                assert score.r2_persist == pytest.approx(r2_persist(want, labels, persist), rel=1e-12, abs=1e-12)

    def test_tree_features_checked(self, fork_graph):
        p = init_hydronet(fork_graph, Dims(window=2, embedding=2, horizon=1), 0)
        examples = ExampleSet(
            graph=fork_graph, window=3, horizon=1, d_x=2,
            anchors=np.arange(2, 6),
            grid=np.zeros((6, 4, 2)),
            labels={b: np.arange(4.0) for b in fork_graph.basin_ids},
            persist={b: np.zeros(4) for b in fork_graph.basin_ids},
        )
        with pytest.raises(HydroNetsError, match="shape-mismatch"):
            evaluate(p, examples)

    def test_denormalization_changes_mse_not_skill(self):
        g, examples = single_basin_examples()
        dims = Dims(window=1, embedding=1, horizon=1)
        p = FlatLinearParams(
            target="b0", included=("b0",), dims=dims,
            weights=np.array([0.0, 0.9]), bias=0.05,
        )
        stats = NormStats(
            mean={"b0": np.array([0.0, 3.0])},
            std={"b0": np.array([1.0, 2.0])},
            interval=(0, 6),
        )
        raw = evaluate(p, examples).scores[0]
        denormed = evaluate(p, examples, stats).scores[0]
        # mse scales by std^2; the skill ratios are affine-invariant
        assert denormed.mse == pytest.approx(raw.mse * 4.0, rel=1e-9)
        assert denormed.r2 == pytest.approx(raw.r2, rel=1e-9)
        assert denormed.r2_persist == pytest.approx(raw.r2_persist, rel=1e-9)

    def test_scores_that_leave_the_float_range_in_label_units(self):
        # Finite forecasts and stats whose label-unit errors leave the float
        # range: the squared error overflows; the mean baseline overflows,
        # which read a perfect model's r2 as 1; the persistence error falls
        # below the normal range, where it keeps few correct digits.
        g, examples = single_basin_examples()
        dims = Dims(window=1, embedding=1, horizon=1)
        exact = ExampleSet(
            graph=g, window=1, horizon=1, d_x=2, anchors=examples.anchors, grid=examples.grid,
            labels={"b0": examples.grid[:, 0, 1]}, persist={"b0": examples.grid[:, 0, 1] - 0.5},
        )
        for weight, level_std, data, want in [
            (1e10, 1e300, examples, "mse is inf"),
            (1.0, 1e160, exact, "r2 is nan"),
            (1.0, 2e-154, examples, "r2_persist is nan"),
        ]:
            p = FlatLinearParams(target="b0", included=("b0",), dims=dims, weights=np.array([0.0, weight]), bias=0.0)
            stats = NormStats(mean={"b0": np.zeros(2)}, std={"b0": np.array([1.0, level_std])}, interval=(0, 6))
            with pytest.raises(HydroNetsError, match=f"non-finite: basin 'b0' {want}"):
                evaluate(p, data, stats)

    def test_csv_shape(self):
        g, examples = single_basin_examples()
        p = FlatLinearParams(
            target="b0", included=("b0",), dims=Dims(window=1, embedding=1, horizon=1),
            weights=np.array([0.0, 1.0]), bias=0.0,
        )
        text = evaluate(p, examples).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "basin,n,mse,r2,r2_persist"
        assert lines[1].startswith("b0,6,")
