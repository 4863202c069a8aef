"""Linear tree-structured forecasting model and the flat baseline.

Every basin node runs three linear sub-models. A basin-specific combiner
merges the temporal embeddings of its sources step by step; the shared
model (one weight matrix for the whole region) maps each step's features
plus combined upstream state to that basin's embedding; a basin-specific
prediction head reduces the embedding window to the scalar forecast.
Region sources have no combiner: their combined input is zero, which keeps
the shared model's input width uniform.

The tree model's weights live in one vector (:class:`HydroNetParams`)
whose views the level sweep reads in place. A plan, built once per model
and kept on its parameters, fixes both the levels and where each weight
sits in the vector; every parameter set unpacked from them shares it.
A vector with leading axes holds a stack of trees on one graph, as
training builds it: every view, :func:`forward_batch` and :func:`fold`
then carry those axes, and run all the trees at once.

:func:`forward_batch` evaluates that structure at every step of every
window, one tree level at a time (a source is level 0, any other basin
one above its highest source), each level in a fixed number of numpy
calls: one batched matmul through the (K, K) combiner block of every
source of its basins, a sum per basin, and one shared-map matmul.

Since all three sub-models are affine, each forecast is an affine filter
over the windows of the basins that drain into its basin; the flat
baseline ignores the tree and is one filter over a subtree's windows. Both
kinds forecast through :class:`Filters`: a batch's forecasts, and their
gradient with respect to the filter, are one matmul each, and a whole
example set's forecasts one matmul per lag straight from its grid.
:func:`fold` reads the tree's filters off :func:`forward_batch` on the
plan's unit-impulse probe batch; single examples and the tests run
:func:`forward_batch` itself.

A batch of features is either a mapping from basin to (B, T, d_x) windows
or one (B, T, n, d_x) array over the model's basins, as
:meth:`~hydronets.data.ExampleSet.windows` gathers it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import types
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .codec import CHECKPOINT, from_doc, parse_json, to_doc
from .data import MAX_FLOATS, Example, ExampleSet
from .errors import HydroNetsError
from .region import RegionGraph, prune_to_depth


@dataclass(frozen=True)
class Dims:
    """Model dimensions: feature window length, embedding size, feature
    channels per step, and forecast horizon (all in steps except K)."""

    window: int
    embedding: int
    horizon: int
    channels: int = 2

    def check(self) -> None:
        if min(self.window, self.embedding, self.horizon, self.channels) < 1:
            raise HydroNetsError("invalid-config", f"all dims must be >= 1: {self}")


Block = tuple[str, str | None, tuple[int, ...]]


def layout(g: RegionGraph, dims: Dims) -> list[Block]:
    """``(field, basin, shape)`` of every tree-model parameter block: the
    shared map, then each combiner by basin id, then each head by basin
    id. :func:`init_hydronet` draws in this order and checkpoints list
    their blocks in it. Shared blocks have basin ``None``; a head bias has
    shape ``()``. Basins without sources have no combiner."""
    k, d_x, t = dims.embedding, dims.channels, dims.window
    ids = sorted(g.topo_order)
    blocks: list[Block] = [("shared_w", None, (k, d_x + k)), ("shared_b", None, (k,))]
    for bid in ids:
        n_src = len(g.upstream[bid])
        if n_src:
            blocks += [("combiner_w", bid, (k, n_src * k)), ("combiner_b", bid, (k,))]
    for bid in ids:
        blocks += [("head_w", bid, (t * k,)), ("head_b", bid, ())]
    return blocks


class HydroNetParams:
    """All learnable weights of the tree model on ``graph`` at ``dims``,
    held in one vector.

    ``vector`` is the only store. The six fields are views of it, in the
    order the level sweep reads them:

    - ``shared_w`` (K, d_x + K) and ``shared_b`` (K,), the shared map;
    - ``combiner_w`` (K, edges * K), every combiner: the (K, K) block of
      input e in columns ``e * K : (e + 1) * K``, inputs basin by basin in
      ascending source id, basins level by level from the sources down;
    - ``combiner_b`` (combined, K), one row per basin with sources, in
      the same order;
    - ``head_w`` (n, T * K) and ``head_b`` (n,), one per basin in
      ``basin_ids`` order, each head flattening the (T, K) embedding
      row-major.

    ``vector`` may have leading model axes, a stack of trees; every field
    then has them too, and only :func:`forward_batch`, :func:`fold` and
    the reverse sweep read such parameters. :meth:`block` is the view of
    one :func:`layout` block of a single model. ``plan`` is the graph's
    :class:`_Plan` at ``dims``, built when the parameters are made and
    shared by all that :meth:`unpack` wraps; a copy or a pickle holds a
    copy of the vector and builds its own. The fields cannot be rebound,
    since a new array would not be part of the vector: write through
    ``[...]`` instead.
    """

    def __init__(self, graph: RegionGraph, dims: Dims, shared_w, shared_b, combiner_w: Mapping,
                 combiner_b: Mapping, head_w: Mapping, head_b: Mapping):
        """Copy the blocks into a new vector. The combiner and head
        arguments map basin id to block; every block must have its
        :func:`layout` shape, or ``shape-mismatch`` is raised."""
        given = {"shared_w": shared_w, "shared_b": shared_b, "combiner_w": combiner_w,
                 "combiner_b": combiner_b, "head_w": head_w, "head_b": head_b}
        blocks = layout(graph, dims)
        values = [given[field] if bid is None else given[field].get(bid) for field, bid, _ in blocks]
        for (field, bid, shape), value in zip(blocks, values):
            try:
                got = None if value is None else np.shape(value)
            except ValueError:  # nested sequences of unequal lengths have no shape
                got = "ragged"
            if got != shape:
                raise HydroNetsError("shape-mismatch", f"block {field}/{bid} is {got}, want {shape}")
        if sum(map(len, (combiner_w, combiner_b, head_w, head_b))) != len(blocks) - 2:
            raise HydroNetsError("shape-mismatch", "combiner or head blocks for basins the layout lacks")
        # Only blocks of the layout's shapes reach the plan, whose arrays grow with the dims.
        plan = _plan(graph, dims)
        self.__dict__.update(vars(self._wrap(graph, dims, np.zeros(plan.size), plan)))
        for (field, bid, _), value in zip(blocks, values):
            self.block(field, bid)[...] = value

    @classmethod
    def _wrap(cls, graph: RegionGraph, dims: Dims, vector: np.ndarray,
              plan: "_Plan | None" = None) -> "HydroNetParams":
        """Parameters viewing ``vector`` through ``plan``, by default a new
        plan of the graph at ``dims``; the sizes must agree."""
        plan = plan or _plan(graph, dims)
        p = object.__new__(cls)
        lead = vector.shape[:-1]
        views = {name: vector[..., s].reshape(lead + shape) for name, s, shape in plan.fields}
        p.__dict__.update(graph=graph, dims=dims, plan=plan, vector=vector, **views)
        return p

    def __reduce__(self):
        # The plan holds mapping proxies, which cannot be copied or pickled;
        # a copy builds its own around a copy of the vector.
        return self._wrap, (self.graph, self.dims, self.vector.copy())

    def __setattr__(self, name: str, value) -> None:
        # ``p.shared_w += x`` writes in place, then sets the same view again.
        if value is not self.__dict__.get(name):
            raise AttributeError(f"cannot rebind {name!r}: write into the vector through [...]")

    def block(self, field: str, basin: str | None) -> np.ndarray:
        """View of one :func:`layout` block (a head bias is 0-d)."""
        return getattr(self, field)[self.plan.place[field, basin]]

    def pack(self) -> np.ndarray:
        """The parameter vector itself, not a copy."""
        return self.vector

    def unpack(self, vector: np.ndarray) -> "HydroNetParams":
        """Parameters held in ``vector``, laid out like :meth:`pack`'s;
        wraps it without copying."""
        size = self.plan.size
        if vector.shape != (size,):
            raise HydroNetsError("shape-mismatch", f"vector has shape {vector.shape}, expected ({size},)")
        return self._wrap(self.graph, self.dims, vector, self.plan)


@dataclass
class FlatLinearParams:
    """Single linear model over the concatenated feature windows of the
    target's depth-limited subtree (basins in topological order)."""

    target: str
    included: tuple[str, ...]
    dims: Dims
    weights: np.ndarray                    # (len(included) * T * d_x,)
    bias: float

    def pack(self) -> np.ndarray:
        return np.concatenate([self.weights, np.array([self.bias])])

    def unpack(self, vector: np.ndarray) -> "FlatLinearParams":
        if len(vector) != len(self.weights) + 1:
            raise HydroNetsError("shape-mismatch", f"vector has {len(vector)} entries")
        return FlatLinearParams(
            target=self.target, included=self.included, dims=self.dims,
            weights=vector[:-1].copy(), bias=float(vector[-1]),
        )


@dataclass(frozen=True)
class ForwardTrace:
    """Per-basin intermediate state of one forward evaluation, in
    topological order: combined upstream input C (T, K), embedding E (T, K),
    and the scalar prediction."""

    combined: dict[str, np.ndarray]
    embeddings: dict[str, np.ndarray]
    preds: dict[str, float]


def init_hydronet(g: RegionGraph, dims: Dims, seed: int) -> HydroNetParams:
    """Gaussian(0, 1/fan_in) weights, zero biases, deterministic per seed.
    Weight blocks draw from one generator in :func:`layout` order."""
    plan = _plan(g, dims)
    p = HydroNetParams._wrap(g, dims, np.zeros(plan.size), plan)
    rng = np.random.default_rng(seed)
    for field, bid, shape in layout(g, dims):
        if field.endswith("_w"):
            p.block(field, bid)[...] = rng.standard_normal(shape) / np.sqrt(shape[-1])
    return p


def init_flat(g: RegionGraph, target: str, depth: int, dims: Dims, seed: int) -> FlatLinearParams:
    """Flat baseline over the depth-limited subtree of ``target``."""
    dims.check()
    included = prune_to_depth(g, target, depth).topo_order
    fan_in = len(included) * dims.window * dims.channels
    rng = np.random.default_rng(seed)
    return FlatLinearParams(
        target=target, included=included, dims=dims,
        weights=rng.standard_normal(fan_in) / np.sqrt(fan_in), bias=0.0,
    )


def check_features(basin_ids: Sequence[str], dims: Dims, features: Mapping[str, np.ndarray]) -> int:
    """Batch size of ``features``, which must hold a (B, T, d_x) array
    for every basin of ``basin_ids``."""
    t, d_x = dims.window, dims.channels
    batch = None
    for bid in basin_ids:
        if bid not in features:
            raise HydroNetsError("shape-mismatch", f"no features for basin {bid!r}")
        shape = features[bid].shape
        if len(shape) != 3 or shape[1:] != (t, d_x):
            raise HydroNetsError("shape-mismatch", f"basin {bid!r} features {shape}, want (B, {t}, {d_x})")
        if batch is None:
            batch = shape[0]
        elif shape[0] != batch:
            raise HydroNetsError("shape-mismatch", "inconsistent batch sizes across basins")
    return batch


def as_batch(basin_ids: Sequence[str], dims: Dims, features: Mapping[str, np.ndarray] | np.ndarray) -> np.ndarray:
    """``features`` as one (B, T, n, d_x) array over ``basin_ids``: a
    per-basin mapping is checked and stacked, an array is checked."""
    if isinstance(features, np.ndarray):
        want = (dims.window, len(basin_ids), dims.channels)
        if features.ndim != 4 or features.shape[1:] != want:
            raise HydroNetsError("shape-mismatch", f"features {features.shape}, want (B, *{want})")
        return features
    check_features(basin_ids, dims, features)
    return np.stack([features[bid] for bid in basin_ids], axis=2)


def forward_batch(
    p: HydroNetParams, features: Mapping[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Evaluate the tree on a batch: ``features[basin]`` is (B, T, d_x).

    Returns (combined, embeddings, preds) keyed by basin in topological
    order, shapes (..., B, T, K), (..., B, T, K), (..., B), where ``...``
    are the leading model axes of ``p.vector``: a stack of trees on one
    graph runs through every call at once. The values are views of arrays
    over all basins, which the tree fills one level at a time.
    """
    ids = p.graph.basin_ids
    batch = check_features(ids, p.dims, features)
    n, t, k, d_x = len(ids), p.dims.window, p.dims.embedding, p.dims.channels
    plan, lead = p.plan, p.vector.shape[:-1]
    # One row per step of every window. Embeddings start as the shared
    # map of the features alone; row n is the zero padding source.
    rows = batch * t
    x = np.concatenate([features[bid] for bid in ids]).reshape(n, rows, d_x)
    e = np.zeros(lead + (n + 1, rows, k))
    e[..., :n, :, :] = x @ p.shared_w[..., None, :, :d_x].swapaxes(-1, -2) + p.shared_b[..., None, None, :]
    c = np.zeros(lead + (n, rows, k))
    w_c = p.combiner_w.reshape(lead + (k, -1, k)).swapaxes(-3, -2).swapaxes(-2, -1)  # (..., edges, K, K)
    w_sc = p.shared_w[..., None, :, d_x:].swapaxes(-1, -2)
    for lv in plan.levels:
        flow = e[..., lv.sources, :, :] @ w_c[..., lv.edges, :, :]      # (..., basins * width, rows, K)
        c_lv = flow.reshape(lead + (len(lv.basins), lv.width, rows, k)).sum(axis=-3)
        c_lv += p.combiner_b[..., lv.combiners, None, :]
        c[..., lv.basins, :, :] = c_lv
        e[..., lv.basins, :, :] += c_lv @ w_sc
    e = e[..., :n, :, :].reshape(lead + (n, batch, t * k))
    preds = (e @ p.head_w[..., :, :, None])[..., 0] + p.head_b[..., :, None]
    c, e = c.reshape(lead + (n, batch, t, k)), e.reshape(lead + (n, batch, t, k))
    order = plan.topo_rows
    return ({b: c[..., m, :, :, :] for b, m in order}, {b: e[..., m, :, :, :] for b, m in order},
            {b: preds[..., m, :] for b, m in order})


@dataclass(frozen=True)
class _Level:
    """One level above the sources: its basins (indices into
    ``basin_ids``), their rows of the combiner biases, and their inputs
    basin by basin, each a source basin read through a (K, K) block of
    the combiner matrix. ``sources`` and ``edges`` pad every basin to
    ``width`` inputs, the level's most, with the zero source ``n`` (read
    through the level's first block); ``inputs`` picks out the real ones."""

    basins: np.ndarray
    combiners: slice
    width: int
    sources: np.ndarray
    edges: np.ndarray
    inputs: np.ndarray


@dataclass(frozen=True)
class _Plan:
    """What depends on the graph and the dims alone: each parameter
    field's ``(name, slice, shape)`` in the vector, the vector's size,
    each :func:`layout` block's index into its field, the levels from the
    sources down, ``(basin, index)`` in topological order, the subtree
    mask (:class:`TreeFilters`) and the probe.

    ``probe`` is the unit-impulse input :func:`fold` reads the filters
    off, shaped like a batch of ``ceil((1 + n * d_x) / T)`` examples for
    the ``n`` basins. The shared map and the combiners act on each step
    alone, so every (example, step) slot ``s = example * T + step`` is
    its own probe. Slot 0 is all zeros; slot ``1 + m * d_x + c`` holds a
    1 in channel ``c`` of the ``m``-th basin of ``basin_ids``; later
    slots are zero padding."""

    fields: tuple[tuple[str, slice, tuple[int, ...]], ...]
    size: int
    place: Mapping[tuple[str, str | None], tuple]
    levels: tuple[_Level, ...]
    topo_rows: tuple[tuple[str, int], ...]
    inside: np.ndarray
    probe: Mapping[str, np.ndarray]


def _plan(g: RegionGraph, dims: Dims) -> _Plan:
    """The plan of ``g`` at ``dims``, for :class:`HydroNetParams`,
    :func:`forward_batch`, :func:`fold` and the reverse sweep in
    :func:`~hydronets.training.backward_hydronet`. Built once per model,
    by :func:`init_hydronet` or :class:`HydroNetParams`, and kept as its
    ``plan``; its arrays are shared and must not be written (the probe
    and the mask are read-only)."""
    dims.check()
    ids = g.basin_ids
    n, t, k, d_x = len(ids), dims.window, dims.embedding, dims.channels
    index = {bid: m for m, bid in enumerate(ids)}
    level: dict[str, int] = {}
    for bid in g.topo_order:
        level[bid] = 1 + max((level[j] for j in g.upstream[bid]), default=-1)
    groups: list[list[str]] = [[] for _ in range(max(level.values()))]
    for bid in ids:
        if level[bid]:
            groups[level[bid] - 1].append(bid)
    combined = [bid for group in groups for bid in group]
    ends = list(itertools.accumulate((len(g.upstream[bid]) for bid in combined), initial=0))
    levels = []
    for group in groups:
        first = combined.index(group[0])
        width = max(len(g.upstream[bid]) for bid in group)
        sources, edges, inputs = [], [], []
        for m, bid in enumerate(group, first):
            pad = width - len(g.upstream[bid])
            inputs += range(len(sources), len(sources) + width - pad)
            sources += [index[j] for j in g.upstream[bid]] + [n] * pad
            edges += [*range(ends[m], ends[m + 1])] + [ends[first]] * pad
        levels.append(_Level(
            np.array([index[bid] for bid in group]), slice(first, first + len(group)), width,
            np.array(sources), np.array(edges), np.array(inputs, dtype=int),
        ))

    shapes = {"shared_w": (k, d_x + k), "shared_b": (k,), "combiner_w": (k, ends[-1] * k),
              "combiner_b": (len(combined), k), "head_w": (n, t * k), "head_b": (n,)}
    offsets = list(itertools.accumulate(map(math.prod, shapes.values()), initial=0))
    if offsets[-1] > MAX_FLOATS:
        raise HydroNetsError("invalid-config", f"{dims} give more weights than a numpy array holds")
    fields = tuple((name, slice(a, b), shape) for (name, shape), a, b in zip(shapes.items(), offsets, offsets[1:]))
    place: dict = {("shared_w", None): ..., ("shared_b", None): ...}
    for m, bid in enumerate(combined):
        place["combiner_w", bid] = (slice(None), slice(ends[m] * k, ends[m + 1] * k))
        place["combiner_b", bid] = (m, ...)
    for m, bid in enumerate(ids):
        place["head_w", bid] = place["head_b", bid] = (m, ...)

    mask = np.eye(n, dtype=bool)
    for bid in g.topo_order:
        for j in g.upstream[bid]:
            mask[index[bid]] |= mask[index[j]]
    inside = np.repeat(mask, d_x, axis=1)[:, :, None]
    slots = -(-(1 + n * d_x) // t) * t
    probe = np.zeros((n, slots, d_x))
    probe[np.repeat(np.arange(n), d_x), 1 + np.arange(n * d_x), np.tile(np.arange(d_x), n)] = 1.0
    inside.flags.writeable = probe.flags.writeable = False
    return _Plan(
        fields, offsets[-1], types.MappingProxyType(place), tuple(levels),
        tuple((bid, index[bid]) for bid in g.topo_order), inside,
        types.MappingProxyType({bid: probe[m].reshape(-1, t, d_x) for m, bid in enumerate(ids)}),
    )


@dataclass(frozen=True)
class Filters:
    """Affine filters forecasting ``targets`` from the windows of the k
    basins ``basin_ids``. Row ``(t * k + m) * d_x + c`` of ``weights``
    maps lag t of channel c of the m-th input basin to every target's
    forecast, which for a flattened (T, k, d_x) window ``x`` is
    ``x @ weights + bias``."""

    basin_ids: tuple[str, ...]
    targets: tuple[str, ...]
    dims: Dims
    weights: np.ndarray                    # (T * k * d_x, outputs)
    bias: np.ndarray                       # (outputs,)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forecasts (B, outputs) for a gathered (B, T, k, d_x) batch: one matmul."""
        return x.reshape(len(x), -1) @ self.weights + self.bias

    def forecast(self, examples: ExampleSet) -> np.ndarray:
        """Forecasts (N, outputs) of every example of ``examples``, read
        from its grid one lag at a time."""
        cols = examples.columns(self.basin_ids, self.dims.window, self.dims.channels)
        return examples.lagged_dot(cols, self.weights) + self.bias

    def gradient(self, x: np.ndarray, g_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A loss's gradients by ``weights``, transposed, and by ``bias``,
        from ``g_pred``, its gradient by :meth:`apply`'s forecasts on ``x``."""
        return g_pred.T @ x.reshape(len(x), -1), g_pred.sum(axis=0)


@dataclass(frozen=True)
class TreeFilters(Filters):
    """The tree folded into one filter per basin: each of the ``n`` basins
    is an input ``m`` and a target ``i``, in ``basin_ids`` order.
    ``zero[i]`` is basin i's embedding when every input is zero; row
    ``m * d_x + c`` of ``response[i]`` is how much it moves per unit of
    basin m's channel c at the same step, exactly zero unless m drains
    into i (``inside``)."""

    zero: np.ndarray                       # (n, K)
    response: np.ndarray                   # (n, n * d_x, K)
    inside: np.ndarray                     # (n, n * d_x, 1) bool
    heads: np.ndarray                      # (n, T, K): head_w reshaped


def fold(p: HydroNetParams, embeddings: Mapping[str, np.ndarray]) -> TreeFilters:
    """Per-basin filters from the embeddings :func:`forward_batch` gives
    on ``p.plan.probe``. Exact, because every sub-model is affine. Every
    array of the filters has ``p.vector``'s leading model axes in front."""
    ids = p.graph.basin_ids
    n, t, k, d_x = len(ids), p.dims.window, p.dims.embedding, p.dims.channels
    lead = p.vector.shape[:-1]
    e = np.concatenate([embeddings[bid] for bid in ids], axis=-3).reshape(lead + (n, -1, k))  # (..., n, slots, K)
    zero = e[..., 0, :]
    inside = p.plan.inside
    response = np.where(inside, e[..., 1 : 1 + n * d_x, :] - zero[..., None, :], 0.0)
    heads = p.head_w.reshape(lead + (n, t, k))
    # Written straight into the C-ordered weights the batch matmuls read
    # fastest: a transposed copy cost 2 ms more at 63 basins.
    weights = np.empty(lead + (t, n * d_x, n))
    np.matmul(heads, response.swapaxes(-1, -2), out=weights.swapaxes(-1, -2).swapaxes(-3, -2))
    weights = weights.reshape(lead + (t * n * d_x, n))
    bias = np.sum(heads.sum(axis=-2) * zero, axis=-1) + p.head_b
    return TreeFilters(ids, ids, p.dims, weights, bias, zero, response, inside, heads)


def forward_hydronet(p: HydroNetParams, ex: Example) -> ForwardTrace:
    """Single-example forward pass returning the full trace."""
    features = {bid: x[None, :, :] for bid, x in ex.features.items()}
    combined, embeddings, preds = forward_batch(p, features)
    return ForwardTrace(
        combined={b: c[0] for b, c in combined.items()},
        embeddings={b: e[0] for b, e in embeddings.items()},
        preds={b: float(v[0]) for b, v in preds.items()},
    )


def lag_order(p: FlatLinearParams) -> np.ndarray:
    """Index into ``p.weights``, which run basin by basin, of the weight of
    each lag-major window column."""
    k, t, d_x = len(p.included), p.dims.window, p.dims.channels
    return np.arange(k * t * d_x).reshape(k, t, d_x).transpose(1, 0, 2).ravel()


def flat_filters(p: FlatLinearParams) -> Filters:
    """The flat model as a filter forecasting its target: its weights in
    :func:`lag_order`, and its bias."""
    return Filters(p.included, (p.target,), p.dims, p.weights[lag_order(p), None], np.array([p.bias]))


def param_count(p: HydroNetParams | FlatLinearParams) -> int:
    """Exact number of learnable scalars."""
    return len(p.pack())


# --- checkpoints ---------------------------------------------------------------

def graph_fingerprint(g: RegionGraph) -> str:
    """Content hash of the connectivity structure (sorted ids and edges)."""
    doc = {"basins": sorted(g.basin_ids), "edges": sorted(list(e) for e in g.edges)}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# The checkpoint file's schemas, one per model kind: save_checkpoint writes
# them through to_doc and load_checkpoint reads them through from_doc.
@dataclass(frozen=True)
class _Linear:
    kind: str
    dims: Dims
    target: str
    included: tuple[str, ...]
    weights: tuple[float, ...]
    bias: float


@dataclass(frozen=True)
class _Combiner:
    w: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]


@dataclass(frozen=True)
class _Head:
    w: tuple[float, ...]
    b: float


@dataclass(frozen=True)
class _Tree:
    kind: str
    dims: Dims
    graph_fingerprint: str
    shared_w: tuple[tuple[float, ...], ...]
    shared_b: tuple[float, ...]
    combiners: dict[str, _Combiner]
    heads: dict[str, _Head]


def save_checkpoint(p: HydroNetParams | FlatLinearParams) -> str:
    """Checkpoint text of ``p``: its kind's schema, blocks by basin in
    :func:`layout` order, through :func:`~hydronets.codec.to_doc`; floats
    round-trip bit-exactly."""
    if isinstance(p, FlatLinearParams):
        ck = _Linear("linear", p.dims, p.target, p.included, p.weights.tolist(), p.bias)
    else:
        blocks = layout(p.graph, p.dims)
        combiners = {bid: _Combiner(p.block(field, bid).tolist(), p.block("combiner_b", bid).tolist())
                     for field, bid, _ in blocks if field == "combiner_w"}
        heads = {bid: _Head(p.block(field, bid).tolist(), p.block("head_b", bid).item())
                 for field, bid, _ in blocks if field == "head_w"}
        ck = _Tree("hydronets", p.dims, graph_fingerprint(p.graph), p.shared_w.tolist(),
                   p.shared_b.tolist(), combiners, heads)
    return json.dumps(to_doc(ck), indent=2) + "\n"


def load_checkpoint(text: str, g: RegionGraph | None = None) -> HydroNetParams | FlatLinearParams:
    """Rebuild parameters from checkpoint text, read through its
    ``kind``'s schema by :func:`~hydronets.codec.from_doc` (any misfit is
    ``bad-checkpoint``). Tree checkpoints need the region graph and verify
    its fingerprint; every block must have the shape :func:`layout` gives
    for that graph and the checkpoint's dims. A linear checkpoint's
    ``included`` basins must be distinct and hold its ``target``; given
    ``g``, the target and every included basin must be basins of it."""
    doc = parse_json(text, "bad-checkpoint")
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in ("linear", "hydronets"):
        raise HydroNetsError("bad-checkpoint", "a checkpoint is an object of kind 'hydronets' or 'linear'")
    ck = from_doc(_Linear if kind == "linear" else _Tree, doc, codes=CHECKPOINT)
    try:
        ck.dims.check()
    except HydroNetsError as e:
        raise HydroNetsError("bad-checkpoint", str(e)) from None
    if isinstance(ck, _Linear):
        basins = [ck.target, *ck.included]
        if g is not None and not set(basins) <= set(g.basin_ids):
            raise HydroNetsError("graph-mismatch", f"{basins} names basins not in the region")
        if len(set(ck.included)) != len(ck.included) or ck.target not in ck.included:
            raise HydroNetsError("bad-checkpoint", f"included {ck.included} repeats a basin or lacks {ck.target!r}")
        if len(ck.weights) != len(ck.included) * ck.dims.window * ck.dims.channels:
            raise HydroNetsError("bad-checkpoint", f"weights have shape ({len(ck.weights)},)")
        return FlatLinearParams(ck.target, ck.included, ck.dims, np.array(ck.weights), ck.bias)
    if g is None:
        raise HydroNetsError("missing-graph", "tree checkpoints need the region graph to load")
    if graph_fingerprint(g) != ck.graph_fingerprint:
        raise HydroNetsError("graph-mismatch", "checkpoint was trained on a different region graph")
    if set(ck.combiners) != {bid for bid in g.basin_ids if g.upstream[bid]}:
        raise HydroNetsError("bad-checkpoint", f"combiners for {sorted(ck.combiners)} do not match the region")
    if set(ck.heads) != set(g.basin_ids):
        raise HydroNetsError("bad-checkpoint", f"heads for {sorted(ck.heads)} do not match the region")
    per_basin = {f"{field}_{part}": {bid: getattr(v, part) for bid, v in group.items()}
                 for field, group in (("combiner", ck.combiners), ("head", ck.heads)) for part in "wb"}
    try:
        return HydroNetParams(g, ck.dims, ck.shared_w, ck.shared_b, **per_basin)
    except HydroNetsError as e:
        if e.code != "shape-mismatch":
            raise
        raise HydroNetsError("bad-checkpoint", str(e)) from None
