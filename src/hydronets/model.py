"""Linear tree-structured forecasting model and the flat baseline.

Every basin node runs three linear sub-models. A basin-specific combiner
merges the temporal embeddings of its sources step by step; the shared
model (one weight matrix for the whole region) maps each step's features
plus combined upstream state to that basin's embedding; a basin-specific
prediction head reduces the embedding window to the scalar forecast.
Region sources have no combiner: their combined input is zero, which keeps
the shared model's input width uniform.

The flat baseline ignores the tree and regresses the forecast on the
concatenated feature windows of a basin subtree.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .codec import from_doc
from .data import Example
from .errors import HydroNetsError
from .region import RegionGraph, prune_to_depth, topological_order


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
        return np.concatenate([
            np.ravel(self.block(field, bid)) for field, bid, _ in layout(self.graph, self.dims)
        ])

    def unpack(self, vector: np.ndarray) -> "HydroNetParams":
        """Inverse of :meth:`pack`; returns a new parameter container."""
        blocks = layout(self.graph, self.dims)
        ends = np.cumsum([math.prod(shape) for _, _, shape in blocks])
        if len(vector) != ends[-1]:
            raise HydroNetsError("shape-mismatch", f"vector has {len(vector)} entries, expected {ends[-1]}")
        values = [
            chunk.reshape(shape).copy() if shape else float(chunk[0])
            for chunk, (_, _, shape) in zip(np.split(vector, ends[:-1]), blocks)
        ]
        return _from_blocks(self.graph, self.dims, blocks, values)


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
    included = tuple(topological_order(prune_to_depth(g, target, depth)))
    fan_in = len(included) * dims.window * dims.channels
    rng = np.random.default_rng(seed)
    return FlatLinearParams(
        target=target, included=included, dims=dims,
        weights=rng.standard_normal(fan_in) / np.sqrt(fan_in), bias=0.0,
    )


def _check_features(p: HydroNetParams, features: Mapping[str, np.ndarray]) -> int:
    t, d_x = p.dims.window, p.dims.channels
    batch = None
    for bid in p.graph.basin_ids:
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


def forward_batch(
    p: HydroNetParams, features: Mapping[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Evaluate the tree on a batch: ``features[basin]`` is (B, T, d_x).

    Returns (combined, embeddings, preds) keyed by basin in topological
    order, shapes (B, T, K), (B, T, K), (B,).
    """
    batch = _check_features(p, features)
    t, k = p.dims.window, p.dims.embedding
    combined: dict[str, np.ndarray] = {}
    embeddings: dict[str, np.ndarray] = {}
    preds: dict[str, np.ndarray] = {}
    for bid in p.graph.topo_order:
        srcs = p.graph.upstream[bid]
        if srcs:
            stacked = np.concatenate([embeddings[j] for j in srcs], axis=2)
            c = stacked @ p.combiner_w[bid].T + p.combiner_b[bid]
        else:
            c = np.zeros((batch, t, k))
        combined[bid] = c
        u = np.concatenate([features[bid], c], axis=2)
        e = u @ p.shared_w.T + p.shared_b
        embeddings[bid] = e
        preds[bid] = e.reshape(batch, t * k) @ p.head_w[bid] + p.head_b[bid]
    return combined, embeddings, preds


def forward_hydronet(p: HydroNetParams, ex: Example) -> ForwardTrace:
    """Single-example forward pass returning the full trace."""
    features = {bid: x[None, :, :] for bid, x in ex.features.items()}
    combined, embeddings, preds = forward_batch(p, features)
    return ForwardTrace(
        combined={b: c[0] for b, c in combined.items()},
        embeddings={b: e[0] for b, e in embeddings.items()},
        preds={b: float(v[0]) for b, v in preds.items()},
    )


def flat_design_matrix(p: FlatLinearParams, features: Mapping[str, np.ndarray]) -> np.ndarray:
    """Concatenate the included basins' flattened windows into (B, D)."""
    t, d_x = p.dims.window, p.dims.channels
    cols = []
    for bid in p.included:
        if bid not in features:
            raise HydroNetsError("shape-mismatch", f"no features for basin {bid!r}")
        x = features[bid]
        if x.shape[1:] != (t, d_x):
            raise HydroNetsError("shape-mismatch", f"basin {bid!r} features {x.shape}, want (B, {t}, {d_x})")
        cols.append(x.reshape(x.shape[0], t * d_x))
    return np.concatenate(cols, axis=1)


def forward_flat_batch(p: FlatLinearParams, features: Mapping[str, np.ndarray]) -> np.ndarray:
    return flat_design_matrix(p, features) @ p.weights + p.bias


def forward_flat(p: FlatLinearParams, ex: Example) -> float:
    """Flat baseline prediction for one example."""
    features = {bid: ex.features[bid][None, :, :] for bid in p.included if bid in ex.features}
    return float(forward_flat_batch(p, features)[0])


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
    shape :func:`layout` gives for that graph and the checkpoint's dims."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also an integer too long to parse, or nesting too deep
        raise HydroNetsError("bad-checkpoint", f"invalid checkpoint JSON: {e}") from None
    try:
        try:
            dims = from_doc(Dims, doc["dims"], "dims")
            dims.check()
        except HydroNetsError as e:
            raise HydroNetsError("bad-checkpoint", str(e)) from None
        if doc["kind"] == "linear":
            p = FlatLinearParams(
                target=doc["target"],
                included=tuple(doc["included"]),
                dims=dims,
                weights=np.array(doc["weights"], dtype=float),
                bias=float(doc["bias"]),
            )
            if p.weights.shape != (len(p.included) * dims.window * dims.channels,):
                raise HydroNetsError("bad-checkpoint", f"weights have shape {p.weights.shape}")
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
            shared_w=np.array(doc["shared_w"], dtype=float),
            shared_b=np.array(doc["shared_b"], dtype=float),
            combiner_w={bid: np.array(v["w"], dtype=float) for bid, v in combiners.items()},
            combiner_b={bid: np.array(v["b"], dtype=float) for bid, v in combiners.items()},
            head_w={bid: np.array(v["w"], dtype=float) for bid, v in heads.items()},
            head_b={bid: float(v["b"]) for bid, v in heads.items()},
        )
        for field, bid, shape in blocks:
            got = np.shape(p.block(field, bid))
            if got != shape:
                raise HydroNetsError("bad-checkpoint", f"block {field}/{bid} has shape {got}, want {shape}")
        return p
    except KeyError as e:
        raise HydroNetsError("bad-checkpoint", f"checkpoint missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise HydroNetsError("bad-checkpoint", f"malformed checkpoint: {e}") from None
