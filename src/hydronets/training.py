"""Loss, analytic gradients, and the training loop.

Gradients for the tree model are computed by hand in two stages. The
batch meets the model only through the folded per-basin filters
(:func:`~hydronets.model.fold`): forecasts, and the gradient with respect
to each filter, are matmuls against the real windows. The filter
gradient then seeds reverse-mode accumulation over the region graph on
the small probe batch the filters were read from: basins are processed
drain-first so each basin's embedding gradient already includes the
contribution routed back through every downstream combiner. The flat
baseline is ordinary linear least squares machinery.

Both model kinds train in one minibatch loop on the packed parameter
vector; :func:`train` and :func:`train_flat` only supply its batch loss
and gradient and its full-set loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import ExampleSet
from .errors import HydroNetsError
from .model import (
    FlatLinearParams,
    HydroNetParams,
    _packing,
    check_features,
    flat_design_matrix,
    fold,
    forward_batch,
    forward_flat_batch,
    predict,
    probe_batch,
)


@dataclass(frozen=True)
class LossWeights:
    """Per-basin loss weights, normalized to sum to one."""

    weights: dict[str, float]

    @classmethod
    def uniform(cls, basin_ids: tuple[str, ...]) -> "LossWeights":
        w = 1.0 / len(basin_ids)
        return cls({bid: w for bid in basin_ids})

    @classmethod
    def focused(cls, basin_ids: tuple[str, ...], target: str, alpha: float = 0.9) -> "LossWeights":
        """Weight ``alpha`` on the target, the rest spread uniformly."""
        if target not in basin_ids:
            raise HydroNetsError("unknown-basin", f"focus target {target!r} not in basin set")
        if len(basin_ids) == 1:
            return cls({target: 1.0})
        rest = (1.0 - alpha) / (len(basin_ids) - 1)
        return cls({bid: (alpha if bid == target else rest) for bid in basin_ids})

    def normalized(self) -> "LossWeights":
        total = sum(self.weights.values())
        if total <= 0:
            raise HydroNetsError("invalid-config", "loss weights must have positive sum")
        return LossWeights({bid: w / total for bid, w in self.weights.items()})


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def check(self) -> None:
        if self.learning_rate < 0 or self.epochs < 1 or self.batch_size < 1:
            raise HydroNetsError("invalid-config", f"bad training config: {self}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1 and self.eps > 0):
            raise HydroNetsError("invalid-config", f"need 0 <= beta1, beta2 < 1 and eps > 0: {self}")
        if self.optimizer not in ("adam", "sgd"):
            raise HydroNetsError("invalid-config", f"unknown optimizer {self.optimizer!r}")


def weighted_mse_loss(
    preds: dict[str, np.ndarray], labels: dict[str, np.ndarray], w: LossWeights
) -> float:
    """Sum over basins of weight times batch-mean squared error."""
    total = 0.0
    for bid, weight in w.weights.items():
        err = preds[bid] - labels[bid]
        total += weight * float(np.mean(err * err))
    return total


def backward_hydronet(
    p: HydroNetParams,
    features: dict[str, np.ndarray],
    labels: dict[str, np.ndarray],
    w: LossWeights,
) -> tuple[float, HydroNetParams]:
    """Loss and analytic gradient for one batch.

    The batch's forecasts and the gradient with respect to each basin's
    folded filter come from matmuls against the real windows; the tree
    itself is evaluated, and swept in reverse, only on the probe batch.
    The gradient is returned in a parameter-shaped container so it packs
    with the same layout as the parameters themselves.
    """
    batch = check_features(p, features)
    ids = p.graph.basin_ids
    n, t, k, d_x = len(ids), p.dims.window, p.dims.embedding, p.dims.channels
    probe = probe_batch(p.graph, p.dims)
    combined, embeddings, _ = forward_batch(p, probe)
    f = fold(p, embeddings)
    preds = f.apply(features)                                            # (B, n)
    loss = weighted_mse_loss(dict(zip(ids, preds.T)), labels, w)

    g_pred = np.zeros_like(preds)
    for i, bid in enumerate(ids):
        weight = w.weights.get(bid, 0.0)
        if weight:
            g_pred[:, i] = 2.0 * weight * (preds[:, i] - labels[bid]) / batch

    # Filter gradients, regrouped from (input basin, window) to one
    # (T, n * d_x) block per forecast basin, then through the fold:
    # weights_i = H_i @ R_i^T and bias_i = sum_t H_i[t] . q_i + head_b_i.
    g_w = np.stack([features[bid].reshape(batch, t * d_x).T @ g_pred for bid in ids])
    g_f = g_w.reshape(n, t, d_x, n).transpose(3, 1, 0, 2).reshape(n, t, n * d_x)
    g_bias = g_pred.sum(axis=0)                                          # (n,)
    g_heads = g_f @ f.response + g_bias[:, None, None] * f.zero[:, None, :]
    g_response = np.where(f.inside, g_f.transpose(0, 2, 1) @ f.heads, 0.0)

    grad = p.unpack(np.zeros(_packing(p.graph, p.dims)[2]))
    for i, bid in enumerate(ids):
        grad.head_w[bid] = g_heads[i].reshape(t * k)
        grad.head_b[bid] = float(g_bias[i])

    # dL/dE_i on the probe: R_i is E_i at the impulse slots minus E_i at
    # slot 0, and q_i is E_i at slot 0.
    seeds = np.zeros((n, len(probe[ids[0]]) * t, k))
    seeds[:, 1 : 1 + n * d_x] = g_response
    seeds[:, 0] = g_bias[:, None] * f.heads.sum(axis=1) - g_response.sum(axis=1)
    # dL/dE_i accumulates its seed plus anything routed back from
    # downstream combiners, hence the reverse topological sweep.
    g_emb = {bid: seeds[i].reshape(-1, t, k) for i, bid in enumerate(ids)}

    for bid in reversed(p.graph.topo_order):
        g_e = g_emb[bid]
        u = np.concatenate([probe[bid], combined[bid]], axis=2)          # (P, T, d_x+K)
        grad.shared_w += np.einsum("btk,btu->ku", g_e, u)
        grad.shared_b += g_e.sum(axis=(0, 1))
        g_c = g_e @ p.shared_w[:, d_x:]                                  # (P, T, K)

        srcs = p.graph.upstream[bid]
        if srcs:
            stacked = np.concatenate([embeddings[j] for j in srcs], axis=2)
            grad.combiner_w[bid] += np.einsum("btk,btv->kv", g_c, stacked)
            grad.combiner_b[bid] += g_c.sum(axis=(0, 1))
            g_stacked = g_c @ p.combiner_w[bid]                          # (P, T, |S|*K)
            for idx, j in enumerate(srcs):
                g_emb[j] += g_stacked[:, :, idx * k : (idx + 1) * k]

    return loss, grad


def backward_flat(
    p: FlatLinearParams, features: dict[str, np.ndarray], labels: np.ndarray
) -> tuple[float, FlatLinearParams]:
    """Loss and gradient of mean squared error at the target basin."""
    design = flat_design_matrix(p, features)
    preds = design @ p.weights + p.bias
    err = preds - labels
    batch = len(labels)
    loss = float(np.mean(err * err))
    g_pred = 2.0 * err / batch
    return loss, FlatLinearParams(
        target=p.target, included=p.included, dims=p.dims,
        weights=g_pred @ design, bias=float(np.sum(g_pred)),
    )


def finite_difference_grad(loss_fn, params, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``loss_fn`` (vector -> float) at the
    packed parameter vector of ``params``."""
    base = params.pack()
    grad = np.zeros_like(base)
    for i in range(len(base)):
        bumped = base.copy()
        bumped[i] = base[i] + eps
        up = loss_fn(params.unpack(bumped))
        bumped[i] = base[i] - eps
        down = loss_fn(params.unpack(bumped))
        grad[i] = (up - down) / (2.0 * eps)
    return grad


@dataclass
class TrainResult:
    params: HydroNetParams | FlatLinearParams
    history: list[float] = field(default_factory=list)    # full-set loss per epoch


class _Optimizer:
    def __init__(self, cfg: TrainConfig, n: int):
        self.cfg = cfg
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, vector: np.ndarray, grad: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        if cfg.optimizer == "sgd":
            return vector - cfg.learning_rate * grad
        self.t += 1
        self.m = cfg.beta1 * self.m + (1 - cfg.beta1) * grad
        self.v = cfg.beta2 * self.v + (1 - cfg.beta2) * grad * grad
        m_hat = self.m / (1 - cfg.beta1 ** self.t)
        v_hat = self.v / (1 - cfg.beta2 ** self.t)
        return vector - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)


def _check_not_diverged(loss: float, epoch: int) -> None:
    if not np.isfinite(loss):
        raise HydroNetsError("diverged", f"loss became non-finite at epoch {epoch}")


def _fit(
    p: HydroNetParams | FlatLinearParams, n: int, cfg: TrainConfig, batch_loss: Callable, full_loss: Callable
) -> TrainResult:
    """The minibatch loop both model kinds train in, over ``n`` examples.

    ``batch_loss(params, idx)`` gives the loss and the gradient container
    on the examples at ``idx``; ``full_loss(params)`` gives the full-set
    loss.
    """
    cfg.check()
    if n == 0:
        raise HydroNetsError("empty-train", "no training examples")

    vector = p.pack().copy()
    opt = _Optimizer(cfg, len(vector))
    history: list[float] = []
    for epoch in range(cfg.epochs):
        perm = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        for start in range(0, n, cfg.batch_size):
            loss, grad = batch_loss(p.unpack(vector), perm[start : start + cfg.batch_size])
            _check_not_diverged(loss, epoch)
            vector = opt.step(vector, grad.pack())
        epoch_loss = full_loss(p.unpack(vector))
        _check_not_diverged(epoch_loss, epoch)
        history.append(epoch_loss)

    return TrainResult(params=p.unpack(vector), history=history)


def train(
    p: HydroNetParams, examples: ExampleSet, cfg: TrainConfig, w: LossWeights | None = None
) -> TrainResult:
    """Mini-batch gradient descent on the weighted loss over all basins.

    The input parameters are left untouched; per-epoch shuffles derive from
    ``(cfg.seed, epoch)`` so runs replay exactly.
    """
    if w is None:
        w = LossWeights.uniform(p.graph.basin_ids)
    w = w.normalized()
    basin_ids = p.graph.basin_ids

    def batch_loss(q: HydroNetParams, idx: np.ndarray) -> tuple[float, HydroNetParams]:
        feats = {bid: examples.features[bid][idx] for bid in basin_ids}
        labels = {bid: examples.labels[bid][idx] for bid in basin_ids}
        return backward_hydronet(q, feats, labels, w)

    def full_loss(q: HydroNetParams) -> float:
        return weighted_mse_loss(predict(q, examples.features), examples.labels, w)

    return _fit(p, len(examples), cfg, batch_loss, full_loss)


def train_flat(p: FlatLinearParams, examples: ExampleSet, cfg: TrainConfig) -> TrainResult:
    """The same loop for the flat baseline (loss at the target basin only)."""
    labels = examples.labels[p.target]

    def batch_loss(q: FlatLinearParams, idx: np.ndarray) -> tuple[float, FlatLinearParams]:
        feats = {bid: examples.features[bid][idx] for bid in p.included}
        return backward_flat(q, feats, labels[idx])

    def full_loss(q: FlatLinearParams) -> float:
        err = forward_flat_batch(q, examples.features) - labels
        return float(np.mean(err * err))

    return _fit(p, len(examples), cfg, batch_loss, full_loss)
