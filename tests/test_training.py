"""Loss, analytic gradients, and the optimization loop."""

import numpy as np
import pytest

from hydronets.data import generate_synthetic, prepare_datasets, SynthConfig
from hydronets.errors import HydroNetsError
from hydronets.region import drain_of
from hydronets.model import (
    Dims,
    FlatLinearParams,
    forward_batch,
    forward_flat_batch,
    init_flat,
    init_hydronet,
)
from hydronets.training import (
    LossWeights,
    TrainConfig,
    backward_flat,
    backward_hydronet,
    finite_difference_grad,
    train,
    train_flat,
    weighted_mse_loss,
)

from conftest import tree_from_parents


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


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
        _, _, preds = forward_batch(p, feats)
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
            assert np.all(grad.head_w[bid] == 0.0)
            assert grad.head_b[bid] == 0.0
        assert np.any(grad.head_w["b4"] != 0.0)
        # information still flows through embeddings: the drain's loss
        # reaches upstream combiner and shared weights
        assert np.any(grad.shared_w != 0.0)
        assert np.any(grad.combiner_w["b3"] != 0.0)


class TestBackwardFlat:
    def test_matches_finite_differences(self, fork_graph):
        dims = Dims(window=3, embedding=1, horizon=1)
        p = init_flat(fork_graph, "b4", 2, dims, 4)
        rng = np.random.default_rng(4)
        feats = {b: rng.standard_normal((5, 3, 2)) for b in p.included}
        labels = rng.standard_normal(5)
        _, grad = backward_flat(p, feats, labels)

        def loss_fn(q):
            err = forward_flat_batch(q, feats) - labels
            return float(np.mean(err * err))

        fd = finite_difference_grad(loss_fn, p)
        assert rel_err(grad.pack(), fd).max() < 1e-5


class TestFiniteDifference:
    def test_closed_form_scalar_model(self):
        # single basin, T = K = 1, one channel: l = w_p * (w_s * x) and
        # dL/dw_p = 2 (l - y) * w_s * x, hand-checked
        g = tree_from_parents([])
        dims = Dims(window=1, embedding=1, horizon=1, channels=1)
        p = init_hydronet(g, dims, 0)
        p.shared_w = np.array([[0.7, 0.0]])
        p.head_w = {"b0": np.array([1.5])}
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
        from hydronets.data import ExampleSet
        examples = ExampleSet(
            graph=g, window=1, horizon=1, d_x=1,
            anchors=np.array([0]),
            features={"b0": np.array([[[x]]])},
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
        from hydronets.data import ExampleSet
        n = 16
        examples = ExampleSet(
            graph=g, window=2, horizon=1, d_x=2,
            anchors=np.arange(n),
            features={"b0": np.zeros((n, 2, 2))},
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
