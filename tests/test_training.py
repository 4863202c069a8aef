"""Loss, analytic gradients, and the optimization loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hydronets.model
from hydronets.data import ExampleSet, generate_synthetic, prepare_datasets, SynthConfig
from hydronets.errors import HydroNetsError
from hydronets.metrics import evaluate
from hydronets.region import drain_of
from hydronets.model import (
    Dims,
    FlatLinearParams,
    as_batch,
    flat_filters,
    fold,
    forward_batch,
    init_flat,
    init_hydronet,
    param_count,
)
from hydronets.training import (
    LossWeights,
    TrainConfig,
    backward_hydronet,
    finite_difference_grad,
    train,
    train_flat,
    weighted_mse_loss,
)

from conftest import random_trees, reference_flat_forecast, reference_forward_batch, tree_from_parents


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def filters(p):
    return fold(p, forward_batch(p, p.plan.probe)[1])


def grid_set(g, dims, rng, steps):
    """An example set over a random grid of ``g``'s basins: one example
    per complete window, each with random labels."""
    anchors = np.arange(dims.window - 1, steps)
    return ExampleSet(
        graph=g, window=dims.window, horizon=1, d_x=dims.channels, anchors=anchors,
        grid=rng.standard_normal((steps, len(g.basin_ids), dims.channels)),
        labels={b: rng.standard_normal(len(anchors)) for b in g.basin_ids}, persist={},
    )


def set_windows(f, examples):
    """The windows of every example of ``examples`` that ``f`` reads."""
    cols = examples.columns(f.basin_ids, f.dims.window, f.dims.channels)
    return examples.windows(np.arange(len(examples)), cols)


def random_batch(g, dims, rng, batch=4):
    feats = {b: rng.standard_normal((batch, dims.window, dims.channels)) for b in g.basin_ids}
    labels = {b: rng.standard_normal(batch) for b in g.basin_ids}
    return feats, labels


class TestLoss:
    def test_zero_when_exact(self):
        preds = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        w = LossWeights.uniform(("a", "b"))
        assert weighted_mse_loss(preds, preds, w) == 0.0

    def test_one_hot_is_basin_mse(self):
        preds = {"a": np.array([1.0, 3.0]), "b": np.array([0.0, 0.0])}
        labels = {"a": np.array([0.0, 0.0]), "b": np.array([5.0, 5.0])}
        w = LossWeights({"a": 1.0, "b": 0.0})
        assert weighted_mse_loss(preds, labels, w) == pytest.approx((1.0 + 9.0) / 2)

    def test_hand_value(self):
        # two basins, batch of one, errors 1 and 3, equal weights
        preds = {"a": np.array([1.0]), "b": np.array([3.0])}
        labels = {"a": np.array([0.0]), "b": np.array([0.0])}
        w = LossWeights({"a": 0.5, "b": 0.5})
        assert weighted_mse_loss(preds, labels, w) == pytest.approx(5.0)

    def test_normalization(self):
        w = LossWeights({"a": 2.0, "b": 6.0}).normalized()
        assert w.weights == {"a": 0.25, "b": 0.75}
        with pytest.raises(HydroNetsError):
            LossWeights({"a": 0.0}).normalized()

    def test_focused(self):
        w = LossWeights.focused(("a", "b", "c"), "b", alpha=0.9)
        assert w.weights["b"] == pytest.approx(0.9)
        assert w.weights["a"] == pytest.approx(0.05)
        assert sum(w.weights.values()) == pytest.approx(1.0)


class TestBackwardHydronet:
    def test_loss_matches_forward(self, fork_graph):
        dims = Dims(window=3, embedding=2, horizon=1)
        p = init_hydronet(fork_graph, dims, 0)
        rng = np.random.default_rng(0)
        feats, labels = random_batch(fork_graph, dims, rng)
        w = LossWeights.uniform(fork_graph.basin_ids)
        loss, _ = backward_hydronet(p, feats, labels, w)
        _, _, preds = forward_batch(p, feats)
        assert loss == pytest.approx(weighted_mse_loss(preds, labels, w), rel=1e-12)

    def test_zero_error_zero_grads(self, chain2):
        dims = Dims(window=2, embedding=1, horizon=1)
        p = init_hydronet(chain2, dims, 1)
        rng = np.random.default_rng(1)
        feats = {b: rng.standard_normal((3, 2, 2)) for b in chain2.basin_ids}
        preds = dict(zip(chain2.basin_ids, filters(p).apply(as_batch(chain2.basin_ids, dims, feats)).T))
        w = LossWeights.uniform(chain2.basin_ids)
        loss, grad = backward_hydronet(p, feats, preds, w)
        assert loss == 0.0
        assert np.all(grad.pack() == 0.0)

    def test_matches_finite_differences(self, fork_graph):
        dims = Dims(window=2, embedding=2, horizon=1)
        p = init_hydronet(fork_graph, dims, 2)
        rng = np.random.default_rng(2)
        feats, labels = random_batch(fork_graph, dims, rng)
        w = LossWeights.uniform(fork_graph.basin_ids)
        _, grad = backward_hydronet(p, feats, labels, w)

        def loss_fn(q):
            _, _, preds = forward_batch(q, feats)
            return weighted_mse_loss(preds, labels, w)

        fd = finite_difference_grad(loss_fn, p)
        assert rel_err(grad.pack(), fd).max() < 1e-5

    def test_one_hot_weights_zero_other_heads(self, fork_graph):
        dims = Dims(window=2, embedding=2, horizon=1)
        p = init_hydronet(fork_graph, dims, 3)
        rng = np.random.default_rng(3)
        feats, labels = random_batch(fork_graph, dims, rng)
        w = LossWeights({"b1": 0.0, "b2": 0.0, "b3": 0.0, "b4": 1.0})
        _, grad = backward_hydronet(p, feats, labels, w)
        for bid in ("b1", "b2", "b3"):
            assert np.all(grad.block("head_w", bid) == 0.0)
            assert grad.block("head_b", bid) == 0.0
        assert np.any(grad.block("head_w", "b4") != 0.0)
        # information still flows through embeddings: the drain's loss
        # reaches upstream combiner and shared weights
        assert np.any(grad.shared_w != 0.0)
        assert np.any(grad.block("combiner_w", "b3") != 0.0)


def reference_backward(p, features, labels, w):
    """Loss and gradient by the reverse sweep over every step of every
    window of the batch, after the basin-by-basin forward pass: the oracle
    for the folded, level-at-a-time backward pass."""
    combined, embeddings, preds = reference_forward_batch(p, features)
    loss = weighted_mse_loss(preds, labels, w)
    t, k, d_x = p.dims.window, p.dims.embedding, p.dims.channels
    batch = next(iter(features.values())).shape[0]
    grad = p.unpack(np.zeros(param_count(p)))
    g_emb = {bid: np.zeros((batch, t, k)) for bid in p.graph.basin_ids}
    for bid in reversed(p.graph.topo_order):
        weight = w.weights.get(bid, 0.0)
        if weight:
            g_pred = 2.0 * weight * (preds[bid] - labels[bid]) / batch
            grad.block("head_w", bid)[...] += g_pred @ embeddings[bid].reshape(batch, t * k)
            grad.block("head_b", bid)[...] += float(np.sum(g_pred))
            g_emb[bid] += (g_pred[:, None] * p.block("head_w", bid)).reshape(batch, t, k)
        g_e = g_emb[bid]
        u = np.concatenate([features[bid], combined[bid]], axis=2)
        grad.shared_w += np.einsum("btk,btu->ku", g_e, u)
        grad.shared_b += g_e.sum(axis=(0, 1))
        g_c = g_e @ p.shared_w[:, d_x:]
        srcs = p.graph.upstream[bid]
        if srcs:
            stacked = np.concatenate([embeddings[j] for j in srcs], axis=2)
            grad.block("combiner_w", bid)[...] += np.einsum("btk,btv->kv", g_c, stacked)
            grad.block("combiner_b", bid)[...] += g_c.sum(axis=(0, 1))
            g_stacked = g_c @ p.block("combiner_w", bid)
            for idx, j in enumerate(srcs):
                g_emb[j] += g_stacked[:, :, idx * k : (idx + 1) * k]
    return loss, grad


@st.composite
def folding_cases(draw):
    """A random tree, dims, parameters with non-zero biases, a batch, and
    loss weights of which some may be zero."""
    g = draw(random_trees(max_basins=15))
    dims = Dims(
        window=draw(st.integers(1, 29)), embedding=draw(st.integers(1, 5)),
        horizon=1, channels=draw(st.integers(1, 3)),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p = init_hydronet(g, dims, seed)
    p = p.unpack(p.pack() + 0.5 * rng.standard_normal(param_count(p)))
    batch = draw(st.integers(1, 12))
    feats, labels = random_batch(g, dims, rng, batch)
    raw = {b: draw(st.sampled_from([0.0, 0.3, 1.0, 2.5])) for b in g.basin_ids}
    raw[g.basin_ids[0]] += 1.0
    return p, feats, labels, LossWeights(raw).normalized()


class TestFold:
    @settings(max_examples=150, deadline=None)
    @given(folding_cases())
    def test_predict_matches_forward(self, case):
        # Through the filters both ways: on the stacked batch, and lag by
        # lag on a grid that lays the batch's windows end to end.
        p, feats, _, _ = case
        ids, t, d_x = p.graph.basin_ids, p.dims.window, p.dims.channels
        preds = reference_forward_batch(p, feats)[2]
        f = filters(p)
        x = as_batch(ids, p.dims, feats)
        examples = ExampleSet(
            graph=p.graph, window=t, horizon=1, d_x=d_x, anchors=np.arange(len(x)) * t + t - 1,
            grid=x.reshape(-1, len(ids), d_x), labels={}, persist={},
        )
        for folded in (f.apply(x), examples.lagged_dot(slice(None), f.weights) + f.bias):
            for i, bid in enumerate(ids):
                assert rel_err(folded[:, i], preds[bid]).max() < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(folding_cases())
    def test_gradient_matches_reference(self, case):
        p, feats, labels, w = case
        loss, grad = backward_hydronet(p, feats, labels, w)
        ref_loss, ref_grad = reference_backward(p, feats, labels, w)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        scale = np.abs(ref_grad.pack()).max()
        assert np.abs(grad.pack() - ref_grad.pack()).max() <= 1e-12 * scale

    def test_probe_size(self, fork_graph):
        for window, channels in [(1, 1), (2, 2), (3, 2), (9, 1), (24, 2)]:
            dims = Dims(window=window, embedding=2, horizon=1, channels=channels)
            probe = init_hydronet(fork_graph, dims, 0).plan.probe
            n = len(fork_graph.basin_ids)
            for x in probe.values():
                assert x.shape == (math.ceil((1 + n * channels) / window), window, channels)
            slots = np.stack([x.reshape(-1, channels) for x in probe.values()], axis=1)
            assert np.all(slots[0] == 0.0)
            assert np.array_equal(slots[1 : 1 + n * channels].reshape(-1, n * channels), np.eye(n * channels))
            assert np.all(slots[1 + n * channels :] == 0.0)

    def test_response_is_zero_outside_the_subtree(self, fork_graph):
        dims = Dims(window=3, embedding=2, horizon=1)
        p = init_hydronet(fork_graph, dims, 5)
        p = p.unpack(p.pack() + np.random.default_rng(5).standard_normal(param_count(p)))
        f = filters(p)
        ids = fork_graph.basin_ids
        subtree = {"b1": {"b1"}, "b2": {"b2"}, "b3": {"b1", "b2", "b3"}, "b4": set(ids)}
        weights = f.weights.reshape(dims.window, len(ids), dims.channels, len(ids))
        for i, bid in enumerate(ids):
            for m, src in enumerate(ids):
                block = f.response[i, m * dims.channels : (m + 1) * dims.channels]
                window = weights[:, m, :, i]
                if src in subtree[bid]:
                    assert np.any(block != 0.0) and np.any(window != 0.0)
                else:
                    assert np.all(block == 0.0) and np.all(window == 0.0)


class TestBackwardFlat:
    def test_matches_finite_differences(self, fork_graph):
        # One SGD step at learning rate 1 over the whole set moves the
        # parameters by minus the flat model's batch gradient.
        dims = Dims(window=3, embedding=1, horizon=1)
        p = init_flat(fork_graph, "b4", 2, dims, 4)
        examples = grid_set(fork_graph, dims, np.random.default_rng(4), 7)
        x = set_windows(flat_filters(p), examples)
        feats = {bid: x[:, :, j] for j, bid in enumerate(p.included)}
        cfg = TrainConfig(learning_rate=1.0, epochs=1, batch_size=len(x), optimizer="sgd")
        grad = p.pack() - train_flat(p, examples, cfg).params.pack()

        def loss_fn(q):
            err = reference_flat_forecast(q, feats) - examples.labels["b4"]
            return float(np.mean(err * err))

        fd = finite_difference_grad(loss_fn, p)
        assert rel_err(grad, fd).max() < 1e-5


class TestFilters:
    @settings(max_examples=100, deadline=None)
    @given(random_trees(), st.data())
    def test_forecasts_match_references(self, g, data):
        # The flat filter on a batch against the flat model read basin by
        # basin, and for both kinds the set forecast against the batch one.
        target = data.draw(st.sampled_from(g.basin_ids))
        depth, window = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        channels = data.draw(st.integers(1, 3))
        seed = data.draw(st.integers(0, 2**32 - 1))
        dims = Dims(window=window, embedding=2, horizon=1, channels=channels)
        rng = np.random.default_rng(seed)
        examples = grid_set(g, dims, rng, window + data.draw(st.integers(0, 12)))
        flat = init_flat(g, target, depth, dims, seed)
        flat.bias = float(rng.standard_normal())
        tree = init_hydronet(g, dims, seed)
        tree = tree.unpack(tree.pack() + 0.5 * rng.standard_normal(param_count(tree)))

        f = flat_filters(flat)
        x = set_windows(f, examples)
        ref = reference_flat_forecast(flat, {bid: x[:, :, j] for j, bid in enumerate(flat.included)})
        assert f.targets == (target,)
        assert rel_err(f.apply(x)[:, 0], ref).max() < 1e-12
        for f in (f, filters(tree)):
            assert rel_err(f.forecast(examples), f.apply(set_windows(f, examples))).max() < 1e-12


class TestFiniteDifference:
    def test_closed_form_scalar_model(self):
        # single basin, T = K = 1, one channel: l = w_p * (w_s * x) and
        # dL/dw_p = 2 (l - y) * w_s * x, hand-checked
        g = tree_from_parents([])
        dims = Dims(window=1, embedding=1, horizon=1, channels=1)
        p = init_hydronet(g, dims, 0)
        p.shared_w[...] = [[0.7, 0.0]]
        p.block("head_w", "b0")[...] = [1.5]
        x, y = 2.0, 1.0
        feats = {"b0": np.array([[[x]]])}
        labels = {"b0": np.array([y])}
        w = LossWeights.uniform(("b0",))

        def loss_fn(q):
            _, _, preds = forward_batch(q, feats)
            return weighted_mse_loss(preds, labels, w)

        fd = finite_difference_grad(loss_fn, p)
        l = 1.5 * 0.7 * x
        d_head = 2 * (l - y) * 0.7 * x
        _, grad = backward_hydronet(p, feats, labels, w)
        head_idx = len(p.shared_w.ravel()) + len(p.shared_b)
        assert fd[head_idx] == pytest.approx(d_head, abs=1e-7)
        assert grad.pack()[head_idx] == pytest.approx(d_head, rel=1e-12)


def both_kinds(g, dims):
    """(initial params, training entry point) for the tree model and for
    the flat baseline at the drain; every loop test runs on each."""
    return [
        (init_hydronet(g, dims, 0), train),
        (init_flat(g, drain_of(g), 2, dims, 0), train_flat),
    ]


class TestTrain:
    def test_lr_zero_keeps_params(self):
        dims = Dims(window=3, embedding=2, horizon=1)
        g, store = generate_synthetic(SynthConfig(branching=2, height=2, n_steps=60, noise_std=0.1))
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=8, seed=0)
        for p, fit in both_kinds(g, dims):
            result = fit(p, train_set, cfg)
            assert np.array_equal(result.params.pack(), p.pack())
            assert len(result.history) == 3
            assert result.history[0] == result.history[-1]

    def test_deterministic(self):
        g, store = generate_synthetic(SynthConfig(branching=2, height=2, n_steps=80, noise_std=0.1))
        dims = Dims(window=4, embedding=2, horizon=1)
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        cfg = TrainConfig(learning_rate=0.01, epochs=3, batch_size=8, seed=7)
        r1 = train(init_hydronet(g, dims, 7), train_set, cfg)
        r2 = train(init_hydronet(g, dims, 7), train_set, cfg)
        assert np.array_equal(r1.params.pack(), r2.params.pack())
        assert r1.history == r2.history

    def test_input_params_not_mutated(self):
        g, store = generate_synthetic(SynthConfig(branching=1, height=2, n_steps=60, noise_std=0.1))
        dims = Dims(window=3, embedding=2, horizon=1)
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        for p, fit in both_kinds(g, dims):
            before = p.pack().copy()
            fit(p, train_set, TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, seed=0))
            assert np.array_equal(p.pack(), before)

    def test_divergence_reports_epoch(self):
        g, store = generate_synthetic(SynthConfig(branching=1, height=2, n_steps=60, noise_std=0.1))
        dims = Dims(window=3, embedding=2, horizon=1)
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        cfg = TrainConfig(learning_rate=1e12, epochs=5, batch_size=8, seed=0, optimizer="sgd")
        for p, fit in both_kinds(g, dims):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(HydroNetsError, match="diverged") as exc:
                    fit(p, train_set, cfg)
            assert "epoch" in str(exc.value)

    def test_loss_weights_checked_before_the_first_step(self, monkeypatch):
        g, store = generate_synthetic(SynthConfig(branching=1, height=2, n_steps=60, noise_std=0.1))
        dims = Dims(window=3, embedding=2, horizon=1)
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        p = init_hydronet(g, dims, 0)
        uniform = LossWeights.uniform(g.basin_ids).weights

        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr("hydronets.training.backward_hydronet", no_step)
        cfg = TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(HydroNetsError, match="unknown-basin"):
            train(p, train_set, cfg, LossWeights({**uniform, "nope": 1.0}))
        for bad in (-5.0, math.nan, math.inf):
            with pytest.raises(HydroNetsError, match="invalid-config"):
                train(p, train_set, cfg, LossWeights({**uniform, g.basin_ids[0]: bad}))

    def test_plan_is_built_once_per_model(self, monkeypatch):
        g, store = generate_synthetic(SynthConfig(branching=2, height=2, n_steps=60, noise_std=0.1))
        dims = Dims(window=3, embedding=2, horizon=1)
        train_set, test_set, stats = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        p = init_hydronet(g, dims, 0)
        built, plan_of = [], hydronets.model._plan
        monkeypatch.setattr(hydronets.model, "_plan", lambda *args: built.append(args) or plan_of(*args))
        result = train(p, train_set, TrainConfig(epochs=2, batch_size=8))
        evaluate(result.params, test_set, stats)
        assert built == []
        assert result.params.plan is p.plan
        assert p.unpack(p.pack().copy()).plan is p.plan

    def test_empty_train_set(self):
        g, store = generate_synthetic(SynthConfig(branching=1, height=2, n_steps=60, noise_std=0.1))
        dims = Dims(window=3, embedding=2, horizon=1)
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        empty = train_set.subset(np.arange(0))
        for p, fit in both_kinds(g, dims):
            with pytest.raises(HydroNetsError, match="empty-train"):
                fit(p, empty, TrainConfig(epochs=1))

    def test_sgd_recurrence_flat(self):
        # one basin, one feature, one example: by hand,
        #   w <- w - lr * 2 (w x + b - y) x,  b <- b - lr * 2 (w x + b - y)
        g = tree_from_parents([])
        dims = Dims(window=1, embedding=1, horizon=1, channels=1)
        x, y, lr = 1.5, 3.0, 0.05
        p = FlatLinearParams(
            target="b0", included=("b0",), dims=dims,
            weights=np.array([0.2]), bias=0.1,
        )
        examples = ExampleSet(
            graph=g, window=1, horizon=1, d_x=1,
            anchors=np.array([0]),
            grid=np.array([[[x]]]),
            labels={"b0": np.array([y])},
            persist={"b0": np.array([0.0])},
        )
        epochs = 6
        result = train_flat(
            p, examples,
            TrainConfig(learning_rate=lr, epochs=epochs, batch_size=1, seed=0, optimizer="sgd"),
        )
        w, b = 0.2, 0.1
        history = []
        for _ in range(epochs):
            err = w * x + b - y
            w, b = w - lr * 2 * err * x, b - lr * 2 * err
            history.append((w * x + b - y) ** 2)
        assert result.params.weights[0] == pytest.approx(w, rel=1e-12)
        assert result.params.bias == pytest.approx(b, rel=1e-12)
        assert result.history == pytest.approx(history, rel=1e-12)

    def test_flat_bias_converges_to_constant_labels(self):
        g = tree_from_parents([])
        dims = Dims(window=2, embedding=1, horizon=1)
        n = 16
        examples = ExampleSet(
            graph=g, window=2, horizon=1, d_x=2,
            anchors=np.arange(1, n + 1),
            grid=np.zeros((n + 1, 1, 2)),
            labels={"b0": np.full(n, 4.0)},
            persist={"b0": np.zeros(n)},
        )
        p = init_flat(g, "b0", 1, dims, 0)
        p = p.unpack(np.zeros(len(p.pack())))
        result = train_flat(
            p, examples,
            TrainConfig(learning_rate=0.2, epochs=100, batch_size=16, seed=0, optimizer="sgd"),
        )
        # features are all zero, so only the bias can move; it must head
        # toward the label mean
        assert result.params.bias == pytest.approx(4.0, abs=1e-6)
        assert np.all(result.params.weights == 0.0)

    def test_full_batch_sgd_monotone_on_clean_data(self):
        cfg = SynthConfig(branching=2, height=3, n_steps=400, noise_std=0.0, seed=11)
        g, store = generate_synthetic(cfg)
        dims = Dims(window=6, embedding=3, horizon=2)
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        p = init_hydronet(g, dims, 0)
        tc = TrainConfig(
            learning_rate=1e-3, epochs=25, batch_size=len(train_set), seed=0, optimizer="sgd"
        )
        history = train(p, train_set, tc).history
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-12)

    def test_train_flat_deterministic(self):
        g, store = generate_synthetic(SynthConfig(branching=2, height=2, n_steps=80, noise_std=0.1))
        dims = Dims(window=4, embedding=1, horizon=1)
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        cfg = TrainConfig(learning_rate=0.01, epochs=3, batch_size=8, seed=5)
        r1 = train_flat(init_flat(g, "b0", 2, dims, 5), train_set, cfg)
        r2 = train_flat(init_flat(g, "b0", 2, dims, 5), train_set, cfg)
        assert np.array_equal(r1.params.pack(), r2.params.pack())
