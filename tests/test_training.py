"""Loss, analytic gradients, and the optimization loop."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hydronets.model
from hydronets import experiments, training
from hydronets.data import ExampleSet, generate_synthetic, prepare_datasets, SynthConfig
from hydronets.errors import HydroNetsError
from hydronets.metrics import evaluate
from hydronets.region import drain_of, prune_to_depth
from hydronets.model import (
    Dims,
    FlatLinearParams,
    as_batch,
    forward_batch,
    init_flat,
    init_hydronet,
    param_count,
)
from hydronets.training import (
    LossWeights,
    Member,
    TrainConfig,
    backward_hydronet,
    finite_difference_grad,
    train,
    train_flat,
    train_stack,
    weighted_mse_loss,
)

from conftest import random_trees, reference_flat_forecast, reference_forward_batch, tree_from_parents


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


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
        preds = dict(zip(chain2.basin_ids, p.filters().apply(as_batch(chain2.basin_ids, dims, feats)).T))
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


def folding_case(parents, window, embedding, channels, seed, batch, raw=None):
    """The tree of ``parents`` (:func:`tree_from_parents`) at the dims,
    parameters with non-zero biases, a batch and its labels, all drawn from
    ``seed``, and loss weights ``raw`` (one on every basin when None)."""
    g = tree_from_parents(parents)
    dims = Dims(window=window, embedding=embedding, horizon=1, channels=channels)
    rng = np.random.default_rng(seed)
    p = init_hydronet(g, dims, seed)
    p = p.unpack(p.pack() + 0.5 * rng.standard_normal(param_count(p)))
    feats, labels = random_batch(g, dims, rng, batch)
    return p, feats, labels, LossWeights(raw or dict.fromkeys(g.basin_ids, 1.0)).normalized()


@st.composite
def folding_cases(draw):
    """A random tree, dims, parameters with non-zero biases, a batch, and
    loss weights of which some may be zero."""
    n = draw(st.integers(1, 15))
    parents = [draw(st.integers(0, i)) for i in range(n - 1)]
    window, embedding, channels = draw(st.integers(1, 29)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    seed, batch = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12))
    raw = {f"b{i}": draw(st.sampled_from([0.0, 0.3, 1.0, 2.5])) for i in range(n)}
    raw["b0"] += 1.0
    return folding_case(parents, window, embedding, channels, seed, batch, raw)


class TestFold:
    @settings(max_examples=150, deadline=None)
    @given(folding_cases())
    # Draws whose forecasts near zero missed an absolute 1e-12.
    @example(folding_case([0, 0, 1, 3, 4, 4, 3, 4, 8, 9, 5, 10, 12, 11], 4, 2, 3, 701540411, 9))
    @example(folding_case([0, 1, 2, 3, 4, 3, 4, 3, 6, 1, 9, 6, 12, 8], 25, 5, 1, 553558657, 5))
    def test_predict_matches_forward(self, case):
        # Through the filters both ways: on the stacked batch, and lag by
        # lag on a grid that lays the batch's windows end to end. A
        # forecast's rounding error grows with the sizes of the products it
        # sums, not with its own size, so each is held to 1e-12 of the sum
        # of its terms' magnitudes, |weight * input| and |bias|.
        p, feats, _, _ = case
        ids, t, d_x = p.graph.basin_ids, p.dims.window, p.dims.channels
        preds = reference_forward_batch(p, feats)[2]
        ref = np.stack([preds[bid] for bid in ids], axis=1)
        f = p.filters()
        x = as_batch(ids, p.dims, feats)
        examples = ExampleSet(
            graph=p.graph, window=t, horizon=1, d_x=d_x, anchors=np.arange(len(x)) * t + t - 1,
            grid=x.reshape(-1, len(ids), d_x), labels={}, persist={},
        )
        scale = np.abs(x.reshape(len(x), -1)) @ np.abs(f.weights) + np.abs(f.bias)
        for folded in (f.apply(x), examples.lagged_dot(slice(None), f.weights) + f.bias):
            assert np.all(np.abs(folded - ref) <= 1e-12 * scale)

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
        f = p.filters()
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
        x = set_windows(p.filters(), examples)
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
        flat.bias[...] = rng.standard_normal()
        tree = init_hydronet(g, dims, seed)
        tree = tree.unpack(tree.pack() + 0.5 * rng.standard_normal(param_count(tree)))

        f = flat.filters()
        x = set_windows(f, examples)
        ref = reference_flat_forecast(flat, {bid: x[:, :, j] for j, bid in enumerate(flat.included)})
        assert f.targets == (target,)
        assert rel_err(f.apply(x)[:, 0], ref).max() < 1e-12
        for f in (f, tree.filters()):
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
        assert result.params.weights.item() == pytest.approx(w, rel=1e-12)
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


@st.composite
def stacks(draw):
    """A stack on a random example set: one to three seeds, each training
    the same one to four models in the same order, trees (with loss
    weights drawn per seed) and flat models on drawn targets and depths."""
    g = draw(random_trees(max_basins=7))
    dims = Dims(window=draw(st.integers(1, 5)), embedding=draw(st.integers(1, 3)), horizon=1,
                channels=draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    examples = grid_set(g, dims, rng, dims.window + draw(st.integers(0, 10)))
    seeds = draw(st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True))
    flat = st.tuples(st.sampled_from(g.basin_ids), st.integers(1, 4))
    slots = draw(st.lists(st.one_of(st.just(None), flat), min_size=1, max_size=4))
    members = []
    for seed in seeds:
        for slot in slots:
            if slot is None:
                p = init_hydronet(g, dims, seed)
                p = p.unpack(p.pack() + 0.5 * rng.standard_normal(param_count(p)))
                raw = {b: draw(st.sampled_from([0.0, 0.3, 1.0, 2.5])) for b in g.basin_ids}
                raw[g.basin_ids[0]] += 1.0
                members.append(Member(p, seed, LossWeights(raw)))
            else:
                p = init_flat(g, *slot, dims, seed)
                p.bias[...] = rng.standard_normal()
                members.append(Member(p, seed))
    # Seeds interleave in drawn order; each seed keeps its slots' order.
    by_seed = {seed: iter([m for m in members if m.seed == seed]) for seed in seeds}
    order = draw(st.permutations([m.seed for m in members]))
    return [next(by_seed[seed]) for seed in order], examples


def first_step(members, examples):
    """Each member's gradient at the first step of one full-batch epoch,
    read off the stack's parameter array by where its initial parameters
    sit there."""
    seen = []
    with mock.patch.object(training._Optimizer, "step", lambda self, v, g: seen.append((v.copy(), g.copy()))):
        train_stack(members, examples, TrainConfig(epochs=1, batch_size=len(examples), optimizer="sgd"))
    vector, grad = seen[0]
    grads = []
    for m in members:
        v = m.params.pack()
        for s, o in zip(*np.nonzero(vector == v[0])):
            if np.array_equal(vector[s, o : o + len(v)], v):
                grads.append(grad[s, o : o + len(v)])
                break
    return grads


def reference_flat_gradient(p, features, labels):
    """The flat model's mean squared error gradient, worked out basin by
    basin and returned in the layout of its vector."""
    x = np.concatenate([features[bid].reshape(len(features[bid]), -1) for bid in p.included], axis=1)
    err = reference_flat_forecast(p, features) - labels[p.target]
    g_w = (2.0 * err @ x / len(x)).reshape(p.weights.swapaxes(0, 1).shape).swapaxes(0, 1)
    return np.append(g_w, 2.0 * np.mean(err))


class TestStack:
    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_gradients_match_references(self, case):
        members, examples = case
        x = examples.windows(np.arange(len(examples)), slice(None))
        feats = {bid: x[:, :, m] for m, bid in enumerate(examples.graph.basin_ids)}
        for m, grad in zip(members, first_step(members, examples), strict=True):
            if isinstance(m.params, FlatLinearParams):
                ref = reference_flat_gradient(m.params, feats, examples.labels)
            else:
                ref = reference_backward(m.params, feats, examples.labels, m.weights.normalized())[1].pack()
            assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_matches_separate_runs(self):
        g, store = generate_synthetic(SynthConfig(branching=2, height=2, n_steps=120, noise_std=0.1))
        dims = Dims(window=4, embedding=2, horizon=1)
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        cfg = TrainConfig(learning_rate=0.02, epochs=3, batch_size=16)
        members = [
            member for seed in (3, 4) for member in (
                Member(init_flat(g, "b0", 2, dims, seed), seed),
                Member(init_hydronet(g, dims, seed), seed, LossWeights.focused(g.basin_ids, "b0")),
                Member(init_flat(g, "b1", 1, dims, seed), seed),
                Member(init_hydronet(g, dims, seed + 10), seed),
            )
        ]

        def alone(m):
            cfg_m = replace(cfg, seed=m.seed)
            if isinstance(m.params, FlatLinearParams):
                return train_flat(m.params, train_set, cfg_m)
            return train(m.params, train_set, cfg_m, m.weights)

        for stacked, m in zip(train_stack(members, train_set, cfg), members, strict=True):
            single = alone(m)
            assert np.abs(stacked.params.pack() - single.params.pack()).max() <= 1e-12
            assert np.abs(np.subtract(stacked.history, single.history)).max() <= 1e-12
        for m in members[:2]:
            (stacked,) = train_stack([m], train_set, replace(cfg, seed=99))
            single = alone(m)
            assert np.array_equal(stacked.params.pack(), single.params.pack())
            assert stacked.history == single.history

    def test_each_member_diverges_as_alone_and_errors_come_in_member_order(self):
        g, store = generate_synthetic(SynthConfig(branching=1, height=2, n_steps=60, noise_std=0.1))
        dims = Dims(window=3, embedding=2, horizon=1)
        data = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        cfg = TrainConfig(learning_rate=0.5, epochs=5, batch_size=8, optimizer="sgd")
        late = Member(init_hydronet(g, dims, 0), 0)                        # diverges at epoch 2 alone
        huge = init_flat(g, "b0", 2, dims, 0)
        early = Member(huge.unpack(np.full(len(huge.pack()), 1e200)), 0)   # at epoch 0
        healthy = Member(init_flat(g, g.basin_ids[-1], 1, dims, 0), 0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(HydroNetsError, match="diverged") as alone:
                train(late.params, data[0], cfg)
            results = train_stack([late, early, healthy], data[0], cfg)
            assert str(results[0]) == str(alone.value) and "epoch 2" in str(alone.value)
            assert str(results[1]) == "diverged: loss became non-finite at epoch 0"
            single = train_flat(healthy.params, data[0], cfg)
            assert np.abs(results[2].params.pack() - single.params.pack()).max() <= 1e-12
            # A grid raises the error of its first model in job order.
            cells = [experiments._Cell("k", (basin,), m)
                     for basin, m in (("b0", late), ("b0", early), (healthy.params.target, healthy))]
            grid = experiments.ExperimentConfig(dims=dims, train=cfg, synth=SynthConfig())
            with pytest.raises(HydroNetsError) as raised:
                experiments._run_grid(grid, cells, {"k": data})
            assert str(raised.value) == str(alone.value)

    def test_rejects_unlike_seeds(self):
        g, store = generate_synthetic(SynthConfig(branching=1, height=2, n_steps=60, noise_std=0.1))
        dims = Dims(window=3, embedding=2, horizon=1)
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        tree, flat = init_hydronet(g, dims, 0), init_flat(g, "b0", 2, dims, 0)
        sub = prune_to_depth(g, drain_of(g), 1)
        for members in ([Member(tree, 0), Member(flat, 1)],
                        [Member(tree, 0), Member(init_hydronet(sub, dims, 0), 0)]):
            with pytest.raises(HydroNetsError, match="invalid-config"):
                train_stack(members, train_set, TrainConfig(epochs=1))

    def test_rejects_loss_weights_on_a_flat_member(self):
        # A flat model's loss is its target's error; weights that a tree
        # would reject as naming no basin of it must not pass unread.
        g, store = generate_synthetic(SynthConfig(branching=1, height=2, n_steps=60, noise_std=0.1))
        dims = Dims(window=3, embedding=2, horizon=1)
        train_set, _, _ = prepare_datasets(store, g, dims.window, dims.horizon, 0.8)
        flat = init_flat(g, "b0", 2, dims, 0)
        for w in (LossWeights({"nope": 1.0}), LossWeights({"b0": 1.0})):
            with pytest.raises(HydroNetsError, match="invalid-config"):
                train_stack([Member(flat, 0, w)], train_set, TrainConfig(epochs=1))
