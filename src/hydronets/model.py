"""Linear tree-structured forecasting model and the flat baseline.

Every basin node runs three linear sub-models. A basin-specific combiner
merges the temporal embeddings of its sources step by step; the shared
model (one weight matrix for the whole region) maps each step's features
plus combined upstream state to that basin's embedding; a basin-specific
prediction head reduces the embedding window to the scalar forecast.
Region sources have no combiner: their combined input is zero, which keeps
the shared model's input width uniform.

:func:`forward_batch` evaluates that structure at every step of every
window, one tree level at a time (a source is level 0, any other basin
one above its highest source), each level in a fixed number of numpy
calls: one batched matmul through the (K, K) combiner block of every
source of its basins, a sum per basin, and one shared-map matmul.

Since all three sub-models are affine, each forecast is also an affine
filter over the windows of the basins that drain into its basin;
:func:`fold` reads those :class:`Filters` off one :func:`forward_batch`
over the unit-impulse :func:`probe_batch`. Their weights form one
(T * n * d_x, n) matrix, lag-major like a gathered minibatch, so a batch's
forecasts are one matmul, and a whole example set's are one matmul per
lag straight from its grid (:meth:`~hydronets.data.ExampleSet.lagged_dot`).
Training and :func:`~hydronets.metrics.evaluate` both go through the
fold; the per-window :func:`forward_batch` serves the probe, single
examples (:func:`forward_hydronet`) and the tests.

The flat baseline ignores the tree and regresses the forecast on the
concatenated feature windows of a basin subtree.

A batch of features is either a mapping from basin to (B, T, d_x) windows
or one (B, T, n, d_x) array over the model's basins, as
:meth:`~hydronets.data.ExampleSet.windows` gathers it.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import types
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .codec import from_doc, parse_json
from .data import Example, ExampleSet
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
    """``(field, basin, shape)`` of every tree-model parameter block in
    packing order: the shared map, then each combiner by basin id, then
    each head by basin id. Shared blocks have basin ``None``; a head bias
    has shape ``()``. Basins without sources have no combiner."""
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


@dataclass
class HydroNetParams:
    """All learnable weights of the tree model.

    ``combiner_w[i]`` has shape (K, |S(i)|*K) with source embeddings
    concatenated in ascending-id order; basins without sources have no
    combiner entry. ``head_w[i]`` flattens the (T, K) embedding row-major.
    :func:`layout` lists every block with its shape.
    """

    graph: RegionGraph
    dims: Dims
    shared_w: np.ndarray                   # (K, d_x + K)
    shared_b: np.ndarray                   # (K,)
    combiner_w: dict[str, np.ndarray]      # (K, |S| * K)
    combiner_b: dict[str, np.ndarray]      # (K,)
    head_w: dict[str, np.ndarray]          # (T * K,)
    head_b: dict[str, float]

    def block(self, field: str, basin: str | None):
        """Value of one :func:`layout` block."""
        value = getattr(self, field)
        return value if basin is None else value[basin]

    def pack(self) -> np.ndarray:
        """Flatten every parameter into one vector in :func:`layout` order."""
        blocks = _packing(self.graph, self.dims)[0]
        return np.concatenate([self.block(field, bid) for field, bid, _ in blocks], axis=None)

    def unpack(self, vector: np.ndarray) -> "HydroNetParams":
        """Inverse of :meth:`pack`; returns a new parameter container."""
        blocks, slices, size = _packing(self.graph, self.dims)
        if len(vector) != size:
            raise HydroNetsError("shape-mismatch", f"vector has {len(vector)} entries, expected {size}")
        values = [
            vector[s].reshape(shape).copy() if shape else float(vector[s.start])
            for s, (_, _, shape) in zip(slices, blocks)
        ]
        return _from_blocks(self.graph, self.dims, blocks, values)


@functools.lru_cache(maxsize=64)
def _packing(g: RegionGraph, dims: Dims) -> tuple[tuple[Block, ...], tuple[slice, ...], int]:
    """:func:`layout`, each block's slice of the packed vector, and the
    vector's length. Cached, because training packs and unpacks on every
    minibatch."""
    blocks = tuple(layout(g, dims))
    ends = list(itertools.accumulate(math.prod(shape) for _, _, shape in blocks))
    return blocks, tuple(map(slice, [0, *ends], ends)), ends[-1]


def _from_blocks(g: RegionGraph, dims: Dims, blocks: list[Block], values) -> HydroNetParams:
    """Container holding ``values``, one per block of ``blocks``."""
    fields: dict = {"combiner_w": {}, "combiner_b": {}, "head_w": {}, "head_b": {}}
    for (field, bid, _), value in zip(blocks, values):
        if bid is None:
            fields[field] = value
        else:
            fields[field][bid] = value
    return HydroNetParams(graph=g, dims=dims, **fields)


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
    dims.check()
    rng = np.random.default_rng(seed)
    blocks = layout(g, dims)
    values = [
        rng.standard_normal(shape) / np.sqrt(shape[-1]) if field.endswith("_w")
        else (np.zeros(shape) if shape else 0.0)
        for field, _, shape in blocks
    ]
    return _from_blocks(g, dims, blocks, values)


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
    order, shapes (B, T, K), (B, T, K), (B,). The values are views of
    arrays over all basins, which the tree fills one level at a time.
    """
    ids = p.graph.basin_ids
    batch = check_features(ids, p.dims, features)
    n, t, k, d_x = len(ids), p.dims.window, p.dims.embedding, p.dims.channels
    plan = _levels(p.graph)
    # One row per step of every window. Embeddings start as the shared
    # map of the features alone; row n is the zero padding source.
    rows = batch * t
    x = np.concatenate([features[bid] for bid in ids]).reshape(n, rows, d_x)
    e = np.zeros((n + 1, rows, k))
    e[:n] = x @ p.shared_w[:, :d_x].T + p.shared_b
    c = np.zeros((n, rows, k))
    w_c, b_c = _combiners(p, plan.combined)
    w_c, w_sc = w_c.transpose(0, 2, 1), p.shared_w[:, d_x:].T
    for lv in plan.levels:
        flow = e[lv.sources] @ w_c[lv.edges]                             # (basins * width, rows, K)
        c_lv = flow.reshape(len(lv.basins), lv.width, rows, k).sum(axis=1) + b_c[lv.combiners, None]
        c[lv.basins] = c_lv
        e[lv.basins] += c_lv @ w_sc
    heads = np.concatenate([p.head_w[bid] for bid in ids]).reshape(n, t * k, 1)
    head_b = np.array([p.head_b[bid] for bid in ids])[:, None]
    preds = (e[:n].reshape(n, batch, t * k) @ heads)[:, :, 0] + head_b
    c, e = c.reshape(n, batch, t, k), e[:n].reshape(n, batch, t, k)
    order = plan.topo_rows
    return ({b: c[m] for b, m in order}, {b: e[m] for b, m in order}, {b: preds[m] for b, m in order})


@dataclass(frozen=True)
class _Level:
    """The basins (indices into ``basin_ids``) of one level above the
    sources. ``sources`` and ``edges`` (rows of the :func:`_combiners`
    stack) list ``width`` inputs per basin, the level's most, padded with
    the zero source ``n`` through the stack's zero last block;
    ``combiners`` slices its biases."""

    basins: np.ndarray
    combiners: slice
    width: int
    sources: np.ndarray
    edges: np.ndarray


@dataclass(frozen=True)
class _Plan:
    """The levels bottom up, the basins with a combiner in stack order
    and each one's slice of the edges, and ``(basin, index)`` in
    topological order."""

    levels: tuple[_Level, ...]
    combined: tuple[str, ...]
    inputs: tuple[slice, ...]
    topo_rows: tuple[tuple[str, int], ...]


@functools.lru_cache(maxsize=64)
def _levels(g: RegionGraph) -> _Plan:
    """The tree of ``g`` level by level, for :func:`forward_batch` and the
    reverse sweep in :func:`~hydronets.training.backward_hydronet`.
    Cached per graph; the index arrays are shared and must not be written."""
    ids = g.basin_ids
    index = {bid: m for m, bid in enumerate(ids)}
    level: dict[str, int] = {}
    for bid in g.topo_order:
        level[bid] = 1 + max((level[j] for j in g.upstream[bid]), default=-1)
    groups: list[list[str]] = [[] for _ in range(max(level.values()))]
    for bid in ids:
        if level[bid]:
            groups[level[bid] - 1].append(bid)
    combined = tuple(bid for group in groups for bid in group)
    ends = list(itertools.accumulate(len(g.upstream[bid]) for bid in combined))
    inputs = tuple(map(slice, [0, *ends], ends))
    span = dict(zip(combined, inputs))
    levels = []
    for group in groups:
        width = max(len(g.upstream[bid]) for bid in group)
        sources, edges = [], []
        for bid in group:
            pad = width - len(g.upstream[bid])
            sources += [index[j] for j in g.upstream[bid]] + [len(ids)] * pad
            edges += [*range(span[bid].start, span[bid].stop)] + [ends[-1]] * pad
        first = combined.index(group[0])
        levels.append(_Level(
            basins=np.array([index[bid] for bid in group]),
            combiners=slice(first, first + len(group)),
            width=width,
            sources=np.array(sources),
            edges=np.array(edges),
        ))
    return _Plan(tuple(levels), combined, inputs, tuple((bid, index[bid]) for bid in g.topo_order))


def _combiners(p: HydroNetParams, combined: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The (K, K) block of every combiner input, (edges + 1, K, K) in edge
    order with a zero block last, and the combiner biases, (basins, K),
    for the basins of ``combined`` in that order."""
    k = p.dims.embedding
    w = np.concatenate([*(p.combiner_w[bid] for bid in combined), np.zeros((k, k))], axis=1)
    b = np.array([p.combiner_b[bid] for bid in combined]).reshape(-1, k)
    return w.reshape(k, -1, k).transpose(1, 0, 2), b


@functools.lru_cache(maxsize=64)
def probe_batch(g: RegionGraph, dims: Dims) -> Mapping[str, np.ndarray]:
    """Unit-impulse input for :func:`fold`, shaped like a batch of
    ``ceil((1 + n * d_x) / T)`` examples for the ``n`` basins of ``g``.

    The shared map and the combiners act on each step alone, so every
    (example, step) slot ``s = example * T + step`` is its own probe. Slot
    0 is all zeros; slot ``1 + m * d_x + c`` holds a 1 in channel ``c`` of
    the ``m``-th basin of ``g.basin_ids``; later slots are zero padding.
    Cached per (graph, dims), as every training step folds: the mapping
    and its arrays are read-only.
    """
    n, t, d_x = len(g.basin_ids), dims.window, dims.channels
    slots = -(-(1 + n * d_x) // t) * t
    probe = np.zeros((n, slots, d_x))
    probe[np.repeat(np.arange(n), d_x), 1 + np.arange(n * d_x), np.tile(np.arange(d_x), n)] = 1.0
    probe.flags.writeable = False
    return types.MappingProxyType({bid: probe[m].reshape(-1, t, d_x) for m, bid in enumerate(g.basin_ids)})


@dataclass(frozen=True)
class Filters:
    """The tree folded into one affine filter per basin.

    Basins are indexed ``i`` (the forecast) and ``m`` (an input) in
    ``basin_ids`` order, and ``n`` is the number of basins. ``zero[i]`` is
    basin i's embedding when every input is zero; row ``m * d_x + c`` of
    ``response[i]`` is how much it moves per unit of basin m's channel c at
    the same step, exactly zero unless m drains into i (``inside``).
    Row ``(t * n + m) * d_x + c`` of ``weights`` maps lag t of basin m's
    channel c to every basin's forecast, which for a flattened (T, n, d_x)
    window ``x`` is ``x @ weights + bias``.
    """

    basin_ids: tuple[str, ...]
    zero: np.ndarray                       # (n, K)
    response: np.ndarray                   # (n, n * d_x, K)
    inside: np.ndarray                     # (n, n * d_x, 1) bool
    heads: np.ndarray                      # (n, T, K): head_w[i] reshaped
    weights: np.ndarray                    # (T * n * d_x, n)
    bias: np.ndarray                       # (n,)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forecasts (B, n) for a (B, T, n, d_x) batch: one matmul."""
        return x.reshape(len(x), -1) @ self.weights + self.bias


@functools.lru_cache(maxsize=64)
def _inside(g: RegionGraph, channels: int) -> np.ndarray:
    """(n, n * channels, 1) mask: row ``m * channels + c`` of basin i is
    set when basin m drains into i or is i. Cached and read-only, like
    :func:`probe_batch`."""
    index = {bid: i for i, bid in enumerate(g.basin_ids)}
    mask = np.eye(len(index), dtype=bool)
    for bid in g.topo_order:
        for j in g.upstream[bid]:
            mask[index[bid]] |= mask[index[j]]
    mask = np.repeat(mask, channels, axis=1)[:, :, None]
    mask.flags.writeable = False
    return mask


def fold(p: HydroNetParams, embeddings: Mapping[str, np.ndarray]) -> Filters:
    """Per-basin filters from the embeddings :func:`forward_batch` gives
    on :func:`probe_batch`. Exact, because every sub-model is affine."""
    ids = p.graph.basin_ids
    n, t, k, d_x = len(ids), p.dims.window, p.dims.embedding, p.dims.channels
    e = np.concatenate([embeddings[bid] for bid in ids]).reshape(n, -1, k)  # (n, slots, K)
    zero = e[:, 0]
    inside = _inside(p.graph, d_x)
    response = np.where(inside, e[:, 1 : 1 + n * d_x] - zero[:, None], 0.0)
    heads = np.concatenate([p.head_w[bid] for bid in ids]).reshape(n, t, k)
    # Written straight into the C-ordered weights the batch matmuls read
    # fastest: a transposed copy cost 2 ms more at 63 basins.
    weights = np.empty((t, n * d_x, n))
    np.matmul(heads, response.transpose(0, 2, 1), out=weights.transpose(2, 0, 1))
    weights = weights.reshape(t * n * d_x, n)
    bias = np.sum(heads.sum(axis=1) * zero, axis=1) + np.array([p.head_b[bid] for bid in ids])
    return Filters(ids, zero, response, inside, heads, weights, bias)


def forward_hydronet(p: HydroNetParams, ex: Example) -> ForwardTrace:
    """Single-example forward pass returning the full trace."""
    features = {bid: x[None, :, :] for bid, x in ex.features.items()}
    combined, embeddings, preds = forward_batch(p, features)
    return ForwardTrace(
        combined={b: c[0] for b, c in combined.items()},
        embeddings={b: e[0] for b, e in embeddings.items()},
        preds={b: float(v[0]) for b, v in preds.items()},
    )


def flat_design_matrix(p: FlatLinearParams, features: Mapping[str, np.ndarray] | np.ndarray) -> np.ndarray:
    """(B, D) design matrix of a batch over ``p.included``, lag-major like
    the batch itself: column ``(t * k + j) * d_x + c`` is lag t of channel
    c of the j-th of the k included basins. Its weights are
    ``p.weights[lag_order(p)]``."""
    x = as_batch(p.included, p.dims, features)
    return x.reshape(len(x), -1)


def lag_order(p: FlatLinearParams) -> np.ndarray:
    """Index into ``p.weights``, which run basin by basin, of the weight of
    each lag-major design column."""
    k, t, d_x = len(p.included), p.dims.window, p.dims.channels
    return np.arange(k * t * d_x).reshape(k, t, d_x).transpose(1, 0, 2).ravel()


def forward_flat_batch(p: FlatLinearParams, features: Mapping[str, np.ndarray] | np.ndarray) -> np.ndarray:
    return flat_design_matrix(p, features) @ p.weights[lag_order(p)] + p.bias


def forward_flat_set(p: FlatLinearParams, examples: ExampleSet) -> np.ndarray:
    """The flat forecast (N,) of every example of ``examples``, read from
    its grid one lag at a time."""
    cols = examples.columns(p.included, p.dims.window, p.dims.channels)
    return examples.lagged_dot(cols, p.weights[lag_order(p), None])[:, 0] + p.bias


def param_count(p: HydroNetParams | FlatLinearParams) -> int:
    """Exact number of learnable scalars."""
    return len(p.pack())


# --- checkpoints ---------------------------------------------------------------

def graph_fingerprint(g: RegionGraph) -> str:
    """Content hash of the connectivity structure (sorted ids and edges)."""
    doc = {"basins": sorted(g.basin_ids), "edges": sorted(list(e) for e in g.edges)}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def save_checkpoint(p: HydroNetParams | FlatLinearParams) -> str:
    """Serialize parameters to JSON text; floats round-trip bit-exactly."""
    if isinstance(p, FlatLinearParams):
        doc = {
            "kind": "linear",
            "dims": asdict(p.dims),
            "target": p.target,
            "included": list(p.included),
            "weights": p.weights.tolist(),
            "bias": p.bias,
        }
    else:
        doc = {
            "kind": "hydronets",
            "dims": asdict(p.dims),
            "graph_fingerprint": graph_fingerprint(p.graph),
            "shared_w": p.shared_w.tolist(),
            "shared_b": p.shared_b.tolist(),
            "combiners": {
                bid: {"w": p.combiner_w[bid].tolist(), "b": p.combiner_b[bid].tolist()}
                for bid in sorted(p.combiner_w)
            },
            "heads": {
                bid: {"w": p.head_w[bid].tolist(), "b": p.head_b[bid]}
                for bid in sorted(p.head_w)
            },
        }
    return json.dumps(doc, indent=2) + "\n"


def load_checkpoint(text: str, g: RegionGraph | None = None) -> HydroNetParams | FlatLinearParams:
    """Rebuild parameters from checkpoint text. Tree checkpoints need the
    region graph and verify its fingerprint; every block must have the
    shape :func:`layout` gives for that graph and the checkpoint's dims,
    and every parameter must be a finite JSON number. A linear
    checkpoint's ``included`` basins must be distinct and hold its
    ``target``; given ``g``, the target and every included basin must be
    basins of it."""
    doc = parse_json(text, "bad-checkpoint")
    try:
        try:
            dims = from_doc(Dims, doc["dims"], "dims")
            dims.check()
        except HydroNetsError as e:
            raise HydroNetsError("bad-checkpoint", str(e)) from None
        if doc["kind"] == "linear":
            target, included = doc["target"], doc["included"]
            if not (isinstance(included, list) and all(isinstance(b, str) for b in [target, *included])):
                raise HydroNetsError("bad-checkpoint", "target and included must be basin ids")
            if g is not None and not {target, *included} <= set(g.basin_ids):
                raise HydroNetsError("graph-mismatch", f"{[target, *included]} names basins not in the region")
            if len(set(included)) != len(included) or target not in included:
                raise HydroNetsError("bad-checkpoint", f"included {included} repeats a basin or lacks {target!r}")
            p = FlatLinearParams(
                target=target,
                included=tuple(included),
                dims=dims,
                weights=np.array(_numbers(doc["weights"]), dtype=float),
                bias=float(_numbers(doc["bias"])),
            )
            if p.weights.shape != (len(p.included) * dims.window * dims.channels,):
                raise HydroNetsError("bad-checkpoint", f"weights have shape {p.weights.shape}")
            if not np.all(np.isfinite(p.pack())):
                raise HydroNetsError("bad-checkpoint", "weights or bias are not finite")
            return p
        if doc["kind"] != "hydronets":
            raise HydroNetsError("bad-checkpoint", f"unknown model kind {doc['kind']!r}")
        if g is None:
            raise HydroNetsError("missing-graph", "tree checkpoints need the region graph to load")
        if graph_fingerprint(g) != doc["graph_fingerprint"]:
            raise HydroNetsError("graph-mismatch", "checkpoint was trained on a different region graph")
        blocks = layout(g, dims)
        combiners, heads = doc["combiners"], doc["heads"]
        if set(combiners) != {bid for field, bid, _ in blocks if field == "combiner_w"}:
            raise HydroNetsError("bad-checkpoint", f"combiners for {sorted(combiners)} do not match the region")
        if set(heads) != set(g.basin_ids):
            raise HydroNetsError("bad-checkpoint", f"heads for {sorted(heads)} do not match the region")
        p = HydroNetParams(
            graph=g,
            dims=dims,
            shared_w=np.array(_numbers(doc["shared_w"]), dtype=float),
            shared_b=np.array(_numbers(doc["shared_b"]), dtype=float),
            combiner_w={bid: np.array(_numbers(v["w"]), dtype=float) for bid, v in combiners.items()},
            combiner_b={bid: np.array(_numbers(v["b"]), dtype=float) for bid, v in combiners.items()},
            head_w={bid: np.array(_numbers(v["w"]), dtype=float) for bid, v in heads.items()},
            head_b={bid: float(_numbers(v["b"])) for bid, v in heads.items()},
        )
        for field, bid, shape in blocks:
            got = np.shape(p.block(field, bid))
            if got != shape:
                raise HydroNetsError("bad-checkpoint", f"block {field}/{bid} has shape {got}, want {shape}")
            if not np.all(np.isfinite(p.block(field, bid))):
                raise HydroNetsError("bad-checkpoint", f"block {field}/{bid} is not finite")
        return p
    except KeyError as e:
        raise HydroNetsError("bad-checkpoint", f"checkpoint missing field {e}") from None
    except (TypeError, ValueError, OverflowError) as e:  # overflow: an integer beyond any float
        raise HydroNetsError("bad-checkpoint", f"malformed checkpoint: {e}") from None


def _numbers(value):
    """``value``, once every leaf of its nested lists is a JSON number:
    ``float`` and numpy would quietly convert a string, a boolean or a
    null."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise HydroNetsError("bad-checkpoint", f"parameter {v!r:.40} is not a number")
    return value
