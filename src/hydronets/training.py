"""Loss, analytic gradients, and the training loop.

Both model kinds meet a batch only through their affine filters
(:class:`~hydronets.model.Filters`): the forecasts, and the gradient with
respect to the filter, are one matmul each against the batch's windows,
gathered from the example set's grid in one index. The flat baseline's
filter is its weights reordered, so that gradient is its own, scattered
back to the basin-major weights. The tree's is folded from the tree
(:func:`~hydronets.model.fold`), so it seeds reverse-mode accumulation
over the region graph on the small probe batch the filters were read
from. The sweep runs one tree level at a time, drain-first, so each
basin's embedding gradient already includes the contribution routed back
through every downstream combiner when its own level is reached. A level
is a fixed number of numpy calls: the combined-input gradients of its
basins, one batched matmul for the combiner blocks of every source
feeding them, and one indexed add of the routed gradient into those
sources. The shared map's gradient is one matmul over all basins after
the sweep. Every block of the gradient is written straight into its view
of one new vector laid out like the parameters.

Both model kinds train in one minibatch loop on the parameter vector;
:func:`train` and :func:`train_flat` only supply its batch loss and
gradient and its full-set loss, which reads the grid one lag at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .data import ExampleSet
from .errors import HydroNetsError
from .model import (
    FlatLinearParams,
    HydroNetParams,
    as_batch,
    flat_filters,
    fold,
    forward_batch,
    lag_order,
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
        if not all(0 <= w < math.inf for w in self.weights.values()):
            raise HydroNetsError("invalid-config", f"loss weights must be finite and non-negative: {self.weights}")
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
    features: Mapping[str, np.ndarray] | np.ndarray,
    labels: Mapping[str, np.ndarray],
    w: LossWeights,
) -> tuple[float, HydroNetParams]:
    """Loss and analytic gradient for one batch (see :mod:`~hydronets.model`
    for its two forms).

    The batch's forecasts and the gradient with respect to the folded
    filters are one matmul each against its windows; the tree itself is
    evaluated, and swept in reverse one level at a time, only on the probe
    batch. The gradient is written block by block into one new vector,
    returned as parameters viewing it.
    """
    ids = p.graph.basin_ids
    x = as_batch(ids, p.dims, features)
    batch = len(x)
    n, t, k, d_x = len(ids), p.dims.window, p.dims.embedding, p.dims.channels
    probe = p.plan.probe
    combined, embeddings, _ = forward_batch(p, probe)
    f = fold(p, embeddings)
    preds = f.apply(x)                                                   # (B, n)
    err = preds - np.array([labels[bid] for bid in ids]).T
    g_pred = err * (2.0 / batch * np.array([w.weights.get(bid, 0.0) for bid in ids]))
    loss = 0.5 * float(np.vdot(err, g_pred))         # sum_i w_i * mean_b err_bi^2

    # Filter gradients, one (T, n * d_x) block per forecast basin, then
    # through the fold: weights_i = H_i @ R_i^T and
    # bias_i = sum_t H_i[t] . q_i + head_b_i.
    g_f, g_bias = f.gradient(x, g_pred)
    g_f = g_f.reshape(n, t, n * d_x)
    grad = p.unpack(np.zeros_like(p.vector))
    grad.head_w[...] = (g_f @ f.response + g_bias[:, None, None] * f.zero[:, None, :]).reshape(n, t * k)
    grad.head_b[...] = g_bias
    g_response = np.where(f.inside, g_f.transpose(0, 2, 1) @ f.heads, 0.0)

    # dL/dE_i on the probe: R_i is E_i at the impulse slots minus E_i at
    # slot 0, and q_i is E_i at slot 0.
    e = np.concatenate([embeddings[bid] for bid in ids]).reshape(n, -1, k)  # (n, slots, K)
    g_e = np.zeros_like(e)
    g_e[:, 1 : 1 + n * d_x] = g_response
    g_e[:, 0] = g_bias[:, None] * f.heads.sum(axis=1) - g_response.sum(axis=1)
    # dL/dE_i accumulates its seed plus anything routed back from the
    # combiner it feeds, so levels run drain-first. Only a level's real
    # inputs are swept, not the forward pass's padding; a tree has no
    # repeated source, so the indexed add is safe. The (K, K) blocks of the
    # combiner matrices are views, edge by edge.
    w_c = p.combiner_w.reshape(k, -1, k).transpose(1, 0, 2)
    g_wc = grad.combiner_w.reshape(k, -1, k).transpose(1, 0, 2)
    w_sc = p.shared_w[:, d_x:]
    for lv in reversed(p.plan.levels):
        g_c = g_e[lv.basins] @ w_sc                                      # (basins, slots, K)
        grad.combiner_b[lv.combiners] = g_c.sum(axis=1)
        sources, edges = lv.sources[lv.inputs], lv.edges[lv.inputs]
        g_flow = g_c[lv.inputs // lv.width]                              # (inputs, slots, K)
        g_wc[edges] = g_flow.transpose(0, 2, 1) @ e[sources]
        g_e[sources] += g_flow @ w_c[edges]

    u = np.concatenate([                                                 # the shared map's input
        np.concatenate([probe[bid] for bid in ids]).reshape(n, -1, d_x),
        np.concatenate([combined[bid] for bid in ids]).reshape(n, -1, k),
    ], axis=2)
    grad.shared_w[...] = g_e.reshape(-1, k).T @ u.reshape(-1, d_x + k)
    grad.shared_b[...] = g_e.sum(axis=(0, 1))
    return loss, grad


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

    ``batch_loss(params, idx)`` gives the loss and the gradient, as
    parameters of the same kind, on the examples at ``idx``;
    ``full_loss(params)`` gives the full-set loss.
    """
    cfg.check()
    if n == 0:
        raise HydroNetsError("empty-train", "no training examples")

    vector = p.pack().copy()                    # the tree model's pack() is its store
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
    ``(cfg.seed, epoch)`` so runs replay exactly. Loss weights must name
    basins of the region and be non-negative.
    """
    basin_ids = p.graph.basin_ids
    if w is None:
        w = LossWeights.uniform(basin_ids)
    unknown = sorted(set(w.weights) - set(basin_ids))
    if unknown:
        raise HydroNetsError("unknown-basin", f"loss weights for basins not in the region: {unknown}")
    w = w.normalized()
    cols = examples.columns(basin_ids, p.dims.window, p.dims.channels)

    def batch_loss(q: HydroNetParams, idx: np.ndarray) -> tuple[float, HydroNetParams]:
        labels = {bid: examples.labels[bid][idx] for bid in basin_ids}
        return backward_hydronet(q, examples.windows(idx, cols), labels, w)

    def full_loss(q: HydroNetParams) -> float:
        preds = fold(q, forward_batch(q, q.plan.probe)[1]).forecast(examples)
        return weighted_mse_loss(dict(zip(basin_ids, preds.T)), examples.labels, w)

    return _fit(p, len(examples), cfg, batch_loss, full_loss)


def train_flat(p: FlatLinearParams, examples: ExampleSet, cfg: TrainConfig) -> TrainResult:
    """The same loop for the flat baseline: mean squared error at the
    target basin only, through the flat model's filter."""
    labels = examples.labels[p.target]
    cols, order = examples.columns(p.included, p.dims.window, p.dims.channels), lag_order(p)

    def batch_loss(q: FlatLinearParams, idx: np.ndarray) -> tuple[float, FlatLinearParams]:
        x, f = examples.windows(idx, cols), flat_filters(q)
        err = f.apply(x)[:, 0] - labels[idx]
        g_f, g_bias = f.gradient(x, 2.0 * err[:, None] / len(idx))
        g_weights = np.empty_like(q.weights)
        g_weights[order] = g_f[0]
        return float(np.mean(err * err)), replace(q, weights=g_weights, bias=float(g_bias[0]))

    def full_loss(q: FlatLinearParams) -> float:
        err = flat_filters(q).forecast(examples)[:, 0] - labels
        return float(np.mean(err * err))

    return _fit(p, len(examples), cfg, batch_loss, full_loss)
