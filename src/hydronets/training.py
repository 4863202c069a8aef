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

Both model kinds train in one minibatch loop, :func:`train_stack`, over
a stack: every model trained on one example set, one row of parameters
per seed. The trees of a stack share one graph, so its probe forward,
fold and reverse sweep run once per step with a leading model axis; each
seed's batch is gathered once and forecast for all its models, trees and
flat ones, in one matmul against their filters side by side. The
full-set loss reads the grid one lag at a time. :func:`train` and
:func:`train_flat` are stacks of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import ExampleSet
from .errors import HydroNetsError
from .model import (
    FlatLinearParams,
    HydroNetParams,
    TreeFilters,
    as_batch,
    fold,
    forward_batch,
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
    features: Mapping[str, np.ndarray] | np.ndarray | Callable[[TreeFilters], tuple],
    labels: Mapping[str, np.ndarray] | None = None,
    w: LossWeights | None = None,
) -> tuple[float, HydroNetParams]:
    """Loss and analytic gradient for one batch (see :mod:`~hydronets.model`
    for its two forms).

    The batch's forecasts and the gradient with respect to the folded
    filters are one matmul each against its windows; the tree itself is
    evaluated, and swept in reverse one level at a time, only on the probe
    batch. The gradient is written block by block into one new vector,
    returned as parameters viewing it.

    ``p`` may carry leading model axes: a stack's trees, all on one graph.
    Then ``features`` is a function that takes their folded filters and
    returns the loss, which is passed through, and the gradients by the
    filters' weights, (..., n, T * n * d_x), and biases, (..., n); in it
    :func:`train_stack` scores every model on every seed's batch.
    """
    ids = p.graph.basin_ids
    n, t, k, d_x = len(ids), p.dims.window, p.dims.embedding, p.dims.channels
    lead = p.vector.shape[:-1]
    probe = p.plan.probe
    combined, embeddings, _ = forward_batch(p, probe)
    f = fold(p, embeddings)
    if callable(features):
        loss, g_f, g_bias = features(f)
    else:
        x = as_batch(ids, p.dims, features)
        batch = len(x)
        preds = f.apply(x)                                               # (B, n)
        err = preds - np.array([labels[bid] for bid in ids]).T
        g_pred = err * (2.0 / batch * np.array([w.weights.get(bid, 0.0) for bid in ids]))
        loss = 0.5 * float(np.vdot(err, g_pred))     # sum_i w_i * mean_b err_bi^2
        g_f, g_bias = f.gradient(x, g_pred)

    # Filter gradients, one (T, n * d_x) block per forecast basin, then
    # through the fold: weights_i = H_i @ R_i^T and
    # bias_i = sum_t H_i[t] . q_i + head_b_i.
    g_f = g_f.reshape(lead + (n, t, n * d_x))
    grad = HydroNetParams._wrap(p.graph, p.dims, np.zeros_like(p.vector), p.plan)
    g_head = g_f @ f.response + g_bias[..., None, None] * f.zero[..., None, :]
    grad.head_w[...] = g_head.reshape(lead + (n, t * k))
    grad.head_b[...] = g_bias
    g_response = np.where(f.inside, g_f.swapaxes(-1, -2) @ f.heads, 0.0)

    # dL/dE_i on the probe: R_i is E_i at the impulse slots minus E_i at
    # slot 0, and q_i is E_i at slot 0.
    e = np.concatenate([embeddings[bid] for bid in ids], axis=-3).reshape(lead + (n, -1, k))  # (.., n, slots, K)
    g_e = np.zeros_like(e)
    g_e[..., 1 : 1 + n * d_x, :] = g_response
    g_e[..., 0, :] = g_bias[..., None] * f.heads.sum(axis=-2) - g_response.sum(axis=-2)
    # dL/dE_i accumulates its seed plus anything routed back from the
    # combiner it feeds, so levels run drain-first. Only a level's real
    # inputs are swept, not the forward pass's padding; a tree has no
    # repeated source, so the indexed add is safe. The (K, K) blocks of the
    # combiner matrices are views, edge by edge.
    w_c = p.combiner_w.reshape(lead + (k, -1, k)).swapaxes(-3, -2)
    g_wc = grad.combiner_w.reshape(lead + (k, -1, k)).swapaxes(-3, -2)
    w_sc = p.shared_w[..., None, :, d_x:]
    for lv in reversed(p.plan.levels):
        g_c = g_e[..., lv.basins, :, :] @ w_sc                           # (..., basins, slots, K)
        grad.combiner_b[..., lv.combiners, :] = g_c.sum(axis=-2)
        sources, edges = lv.sources[lv.inputs], lv.edges[lv.inputs]
        g_flow = g_c[..., lv.inputs // lv.width, :, :]                   # (..., inputs, slots, K)
        g_wc[..., edges, :, :] = g_flow.swapaxes(-1, -2) @ e[..., sources, :, :]
        g_e[..., sources, :, :] += g_flow @ w_c[..., edges, :, :]

    u = np.empty(e.shape[:-1] + (d_x + k,))                            # the shared map's input
    u[..., :d_x] = np.concatenate([probe[bid] for bid in ids]).reshape(n, -1, d_x)
    u[..., d_x:] = np.concatenate([combined[bid] for bid in ids], axis=-3).reshape(e.shape)
    grad.shared_w[...] = g_e.reshape(lead + (-1, k)).swapaxes(-1, -2) @ u.reshape(lead + (-1, d_x + k))
    grad.shared_b[...] = g_e.sum(axis=(-3, -2))
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


@dataclass(frozen=True)
class Member:
    """One model of a stack: its initial parameters, which training leaves
    untouched, the seed its batches are shuffled by, and for a tree its
    loss weights (uniform when None). A flat model's loss is its target's
    mean squared error."""

    params: HydroNetParams | FlatLinearParams
    seed: int
    weights: LossWeights | None = None


class _Optimizer:
    def __init__(self, cfg: TrainConfig, shape: tuple[int, ...]):
        self.cfg = cfg
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, vector: np.ndarray, grad: np.ndarray) -> None:
        """Move ``vector`` in place, elementwise."""
        cfg = self.cfg
        if cfg.optimizer == "sgd":
            vector -= cfg.learning_rate * grad
            return
        self.t += 1
        self.m = cfg.beta1 * self.m + (1 - cfg.beta1) * grad
        self.v = cfg.beta2 * self.v + (1 - cfg.beta2) * grad * grad
        m_hat = self.m / (1 - cfg.beta1 ** self.t)
        v_hat = self.v / (1 - cfg.beta2 ** self.t)
        vector -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)


def _loss_weights(p: HydroNetParams, w: LossWeights | None) -> LossWeights:
    """``w`` (uniform when None) checked against the tree's basins and normalized."""
    basin_ids = p.graph.basin_ids
    if w is None:
        w = LossWeights.uniform(basin_ids)
    unknown = sorted(set(w.weights) - set(basin_ids))
    if unknown:
        raise HydroNetsError("unknown-basin", f"loss weights for basins not in the region: {unknown}")
    return w.normalized()


def _kind(p: HydroNetParams | FlatLinearParams) -> tuple:
    """What a model must share with the models in its slot at every other
    seed of a stack (and, for a tree, with every tree of it)."""
    if isinstance(p, HydroNetParams):
        return ("tree", p.graph, p.dims)
    return ("flat", p.target, p.included, p.dims)


def train_stack(
    members: Sequence[Member], examples: ExampleSet, cfg: TrainConfig
) -> list[TrainResult | HydroNetsError]:
    """Mini-batch gradient descent for every member on ``examples``: the
    one training loop of both model kinds.

    Each seed draws one shuffle per epoch, from ``(seed, epoch)``, so a
    member trains on the batches it would train on alone. Every seed must
    train the same models, kind by kind in the same order: trees on one
    graph at one dims, and flat models on the same targets and subtrees.
    The parameters are one (seeds, P) array, each seed's models side by
    side, and one optimizer step moves it all. Per step, the trees' probe
    forward, fold and reverse sweep run once for all of them
    (:func:`backward_hydronet`); per seed, one gather takes the batch's
    windows over the set's columns (the trees' basins, then any other
    basin of a flat subtree), one matmul forecasts every model of the seed
    through its filter, each flat filter's rows placed at its basins, and
    one matmul gives every filter gradient. The full-set loss is one
    lagged product per seed, after each epoch.

    Results come back in member order. A member whose loss became
    non-finite gets, in place of its result, the ``diverged`` error it
    raises when trained alone; its parameters turn to NaN, which leaves
    the others untouched, and the loop stops once every member diverged.
    """
    members = list(members)
    weights = [_loss_weights(m.params, m.weights) if isinstance(m.params, HydroNetParams) else None
               for m in members]
    for m in members:
        p = m.params
        basins = p.graph.basin_ids if isinstance(p, HydroNetParams) else p.included
        examples.columns(basins, p.dims.window, p.dims.channels)
    cfg.check()
    n_examples = len(examples)
    if n_examples == 0:
        raise HydroNetsError("empty-train", "no training examples")
    if not members:
        return []

    # Each seed's row of members, trees first; every row alike.
    seeds = list(dict.fromkeys(m.seed for m in members))
    rows = [sorted((i for i, m in enumerate(members) if m.seed == seed),
                   key=lambda i: not isinstance(members[i].params, HydroNetParams)) for seed in seeds]
    kinds = [[_kind(members[i].params) for i in row] for row in rows]
    n_trees = sum(kind[0] == "tree" for kind in kinds[0])
    if any(row != kinds[0] for row in kinds) or kinds[0][:n_trees].count(kinds[0][0]) < n_trees:
        raise HydroNetsError("invalid-config", "a stack trains the same models at every seed, its trees on one graph")
    first = [members[i].params for i in rows[0]]
    trees, flats = first[:n_trees], first[n_trees:]
    tree_ids = trees[0].graph.basin_ids if trees else ()
    layout = tuple(dict.fromkeys([*tree_ids, *(bid for fp in flats for bid in fp.included)]))
    pos = {bid: j for j, bid in enumerate(layout)}
    t, d_x = examples.window, examples.d_x
    cols = examples.columns(layout, t, d_x)
    n_seeds, n_models, n, width = len(seeds), len(first), len(tree_ids), len(layout) * d_x
    tree_out = n_trees * n                         # forecast columns: n per tree, then one per flat
    n_out = tree_out + len(flats)
    flat_out = np.arange(tree_out, n_out)

    # Where each model sits in its seed's row of parameters (a flat one's
    # bias last), where each flat weight sits in the filters, and what
    # each forecast column is scored against.
    sizes = [len(p.pack()) for p in first]
    offsets = np.cumsum([0, *sizes])
    bias_param = offsets[n_trees + 1 :] - 1
    flat_param = np.delete(np.arange(offsets[n_trees], offsets[-1]), bias_param - offsets[n_trees])
    flat_col = np.repeat(flat_out, np.diff(offsets[n_trees:]) - 1)
    flat_row = np.concatenate([np.zeros(0, np.intp), *(
        (np.array([pos[bid] for bid in fp.included])[:, None, None] * d_x + np.arange(t)[:, None] * width
         + np.arange(d_x)).ravel() for fp in flats)])
    label_ids = tuple(dict.fromkeys([*tree_ids, *(fp.target for fp in flats)]))
    label_col = np.array([*range(n)] * n_trees + [label_ids.index(fp.target) for fp in flats], dtype=np.intp)
    model_col = np.concatenate([np.arange(n_trees) * n, flat_out])
    tree_w = np.ones((n_seeds, n_out))
    for s, row in enumerate(rows):
        tree_w[s, :tree_out] = [weights[i].weights.get(bid, 0.0) for i in row[:n_trees] for bid in tree_ids]

    vector = np.stack([np.concatenate([members[i].params.pack() for i in row]) for row in rows])
    tree_stack = None
    if trees:
        tree_stack = HydroNetParams._wrap(trees[0].graph, trees[0].dims,
                                          vector[:, : offsets[n_trees]].reshape(n_seeds, n_trees, -1), trees[0].plan)
    filters = np.zeros((n_seeds, t * width, n_out))
    bias = np.zeros((n_seeds, n_out))
    g_filters = np.zeros((n_seeds, n_out, t * width))
    g_bias = np.zeros((n_seeds, n_out))

    def place(f: TreeFilters | None) -> None:
        """Every model's filter, at the current parameters, into ``filters`` and ``bias``."""
        if f is not None:
            w = f.weights.reshape(n_seeds, n_trees, t, n * d_x, n)
            filters.reshape(n_seeds, t, width, n_out)[:, :, : n * d_x, :tree_out] = (
                w.transpose(0, 2, 3, 1, 4).reshape(n_seeds, t, n * d_x, tree_out))
            bias[:, :tree_out] = f.bias.reshape(n_seeds, tree_out)
        filters[:, flat_row, flat_col] = vector[:, flat_param]
        bias[:, flat_out] = vector[:, bias_param]

    def score(batches: list[np.ndarray], f: TreeFilters | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-model losses (seeds, models) on each seed's batch, and the
        gradients by the tree filters' weights and biases."""
        place(f)
        losses = np.empty((n_seeds, n_models))
        for s, idx in enumerate(batches):
            x = examples.windows(idx, cols).reshape(len(idx), -1)
            err = x @ filters[s] + bias[s]
            err -= np.array([examples.labels[bid][idx] for bid in label_ids])[label_col].T
            g_pred = err * (2.0 / len(idx) * tree_w[s])
            g_pred[:, tree_out:] = 2.0 * err[:, tree_out:] / len(idx)
            losses[s] = np.add.reduceat((err * g_pred).sum(axis=0), model_col)
            g_filters[s] = g_pred.T @ x
            g_bias[s] = g_pred.sum(axis=0)
            del x, err, g_pred                     # one batch's windows alive at a time
        g_trees = g_filters.reshape(n_seeds, n_out, t, width)[:, :tree_out, :, : n * d_x]
        return (0.5 * losses, g_trees.reshape(n_seeds, n_trees, n, t * n * d_x),
                g_bias[:, :tree_out].reshape(n_seeds, n_trees, n))

    def full_losses(s: int, row: list[int]) -> list[float]:
        """Seed ``s``'s full-set losses, model by model, from its filters."""
        preds = examples.lagged_dot(cols, filters[s])
        preds += bias[s]
        losses = []
        for slot, i in enumerate(row):
            if slot < n_trees:
                forecasts = dict(zip(tree_ids, preds[:, slot * n : (slot + 1) * n].T))
                losses.append(weighted_mse_loss(forecasts, examples.labels, weights[i]))
            else:
                err = preds[:, tree_out + slot - n_trees] - examples.labels[first[slot].target]
                losses.append(float(np.mean(err * err)))
        return losses

    diverged: dict[int, int] = {}

    def check(losses: np.ndarray, epoch: int, grad: np.ndarray | None = None) -> None:
        """Mark members whose loss is not finite, and turn them to NaN."""
        if np.isfinite(losses).all():
            return
        for s, slot in zip(*np.nonzero(~np.isfinite(losses))):
            i = rows[s][slot]
            if i not in diverged:
                diverged[i] = epoch
                for a in (vector, grad):
                    if a is not None:
                        a[s, offsets[slot] : offsets[slot + 1]] = np.nan

    history = np.zeros((cfg.epochs, n_seeds, n_models))
    opt = _Optimizer(cfg, vector.shape)
    grad = np.empty_like(vector)
    for epoch in range(cfg.epochs):
        perms = [np.random.default_rng([seed, epoch]).permutation(n_examples) for seed in seeds]
        for start in range(0, n_examples, cfg.batch_size):
            step = partial(score, [perm[start : start + cfg.batch_size] for perm in perms])
            if tree_stack is None:
                losses = step(None)[0]
            else:
                losses, g_tree = backward_hydronet(tree_stack, step)
                grad[:, : offsets[n_trees]] = g_tree.vector.reshape(n_seeds, -1)
            grad[:, flat_param] = g_filters[:, flat_col, flat_row]
            grad[:, bias_param] = g_bias[:, flat_out]
            check(losses, epoch, grad)
            if len(diverged) == len(members):
                break
            opt.step(vector, grad)
        if len(diverged) == len(members):
            break
        place(None if tree_stack is None else fold(tree_stack, forward_batch(tree_stack, tree_stack.plan.probe)[1]))
        for s, row in enumerate(rows):
            history[epoch, s] = full_losses(s, row)
        check(history[epoch], epoch)

    results: list = [None] * len(members)
    for s, row in enumerate(rows):
        for slot, i in enumerate(row):
            if i in diverged:
                results[i] = HydroNetsError("diverged", f"loss became non-finite at epoch {diverged[i]}")
                continue
            v = vector[s, offsets[slot] : offsets[slot + 1]]
            p = members[i].params
            params = (HydroNetParams._wrap(p.graph, p.dims, v.copy(), trees[0].plan)
                      if slot < n_trees else p.unpack(v))
            results[i] = TrainResult(params=params, history=history[:, s, slot].tolist())
    return results


def _alone(results: list[TrainResult | HydroNetsError]) -> TrainResult:
    (result,) = results
    if isinstance(result, HydroNetsError):
        raise result
    return result


def train(
    p: HydroNetParams, examples: ExampleSet, cfg: TrainConfig, w: LossWeights | None = None
) -> TrainResult:
    """Mini-batch gradient descent on the weighted loss over all basins: a
    stack of one (:func:`train_stack`).

    The input parameters are left untouched; per-epoch shuffles derive from
    ``(cfg.seed, epoch)`` so runs replay exactly. Loss weights must name
    basins of the region and be non-negative.
    """
    return _alone(train_stack([Member(p, cfg.seed, w)], examples, cfg))


def train_flat(p: FlatLinearParams, examples: ExampleSet, cfg: TrainConfig) -> TrainResult:
    """The same loop for the flat baseline: mean squared error at the
    target basin only, through the flat model's filter."""
    return _alone(train_stack([Member(p, cfg.seed)], examples, cfg))
