"""Basin connectivity graphs: parsing, validation, and tree surgery.

:class:`Basin` and :class:`RegionGraph` are the region file's schema:
:func:`parse_region` reads it and :func:`dump_region` writes it through
:mod:`~hydronets.codec`.

A region is an inverted tree of basins: every basin drains into at most one
downstream basin, and exactly one basin (the drain) has no outlet. The graph
shape drives the model's computation graph, so everything here is strictly
deterministic: source lists are sorted, topological order breaks ties
lexicographically, and pruning preserves declaration order.

One walk answers every graph query: the Kahn pass in :func:`validate`,
whose order :attr:`RegionGraph.topo_order` caches once the graph is
valid. The drain is the last basin of that order, and :func:`height` and
:func:`prune_to_depth` count hops to a basin along its reverse. Each query
raises ``invalid-graph`` on a graph :func:`validate` faults.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from functools import cached_property

from .codec import REGION, from_doc, parse_json, to_doc
from .errors import HydroNetsError


@dataclass(frozen=True)
class Basin:
    """One drainage area. ``static`` features are carried but unused by
    the linear models."""

    id: str
    name: str
    static: tuple[float, ...] | None = None


@dataclass(frozen=True)
class RegionGraph:
    """Basins plus directed edges (upstream id -> downstream id).

    Construction does not validate tree-ness; call :func:`validate`.
    Instances are immutable and safe to share across workers.
    """

    basins: tuple[Basin, ...]
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def basin_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.basins)

    @cached_property
    def upstream(self) -> dict[str, tuple[str, ...]]:
        """Basin id -> ids flowing directly into it, sorted ascending.
        This is the canonical combiner input order."""
        ins: dict[str, list[str]] = {b.id: [] for b in self.basins}
        for src, dst in self.edges:
            if dst in ins:
                ins[dst].append(src)
        return {bid: tuple(sorted(srcs)) for bid, srcs in ins.items()}

    @cached_property
    def downstream(self) -> dict[str, tuple[str, ...]]:
        """Basin id -> ids it flows into (a valid tree has at most one)."""
        outs: dict[str, list[str]] = {b.id: [] for b in self.basins}
        for src, dst in self.edges:
            if src in outs:
                outs[src].append(dst)
        return {bid: tuple(v) for bid, v in outs.items()}

    @cached_property
    def topo_order(self) -> tuple[str, ...]:
        """Basin ids with every basin after all of its sources, ties broken
        lexicographically; cached per graph instance. Raises
        ``invalid-graph`` when :func:`validate` reports a fault."""
        report, order = _walk(self)
        if not report.ok:
            raise HydroNetsError("invalid-graph", f"cannot order an invalid graph: {report.codes}")
        return tuple(order)

    def __contains__(self, basin_id: str) -> bool:
        return basin_id in self.upstream


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; ``ok`` iff ``errors`` is empty."""

    errors: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(code for code, _ in self.errors)


def parse_region(text: str) -> RegionGraph:
    """Parse a region file (JSON with "basins" and "edges" arrays).

    Echoes the declared structure exactly; tree invariants are checked by
    :func:`validate`, not here. Besides what the schema states (an
    unknown field is ``unknown-field``, any other misfit ``syntax-error``),
    rejects empty basin lists, ids that are empty or have leading or
    trailing whitespace, duplicate ids and edges naming unknown basins.
    """
    g = from_doc(RegionGraph, parse_json(text, "syntax-error"), codes=REGION)
    if not g.basins:
        raise HydroNetsError("empty-region", "region declares no basins")
    seen: set[str] = set()
    for b in g.basins:
        if not b.id or b.id != b.id.strip():  # series files strip their fields, so no row could name it
            raise HydroNetsError("syntax-error", f"basin id {b.id!r} is empty or has leading or trailing whitespace")
        if b.id in seen:
            raise HydroNetsError("duplicate-id", f"basin id {b.id!r} declared more than once")
        seen.add(b.id)
    for i, edge in enumerate(g.edges):
        for endpoint in edge:
            if endpoint not in seen:
                raise HydroNetsError("unknown-edge-endpoint", f"edge #{i} references unknown basin {endpoint!r}")
    return g


def dump_region(g: RegionGraph) -> str:
    """Region file text of ``g``, which :func:`parse_region` reads back
    to an equal graph; a basin without ``static`` features has no key."""
    return json.dumps(to_doc(g), indent=2) + "\n"


def validate(g: RegionGraph) -> ValidationReport:
    """Check the inverted-tree invariants; one report entry per violation."""
    return _walk(g)[0]


def _walk(g: RegionGraph) -> tuple[ValidationReport, list[str]]:
    """:func:`validate`'s report and the Kahn order its cycle check walks:
    each basin after all of its sources, ties broken lexicographically.
    Basins on a cycle, or downstream of one, are left out of the order."""
    errors: list[tuple[str, str]] = []
    ids = list(g.basin_ids)
    id_set = set(ids)

    if not ids:
        return ValidationReport(errors=(("empty-region", "graph has no basins"),)), []
    if len(id_set) != len(ids):
        dupes = sorted({bid for bid in ids if ids.count(bid) > 1})
        errors.append(("duplicate-id", f"duplicate basin ids: {dupes}"))

    dangling = [e for e in g.edges if e[0] not in id_set or e[1] not in id_set]
    for src, dst in dangling:
        errors.append(("unknown-edge-endpoint", f"edge ({src!r}, {dst!r}) names a missing basin"))
    edges = [e for e in g.edges if e not in dangling]

    indeg = dict.fromkeys(id_set, 0)
    outs: dict[str, list[str]] = {bid: [] for bid in id_set}
    for src, dst in edges:
        indeg[dst] += 1
        outs[src].append(dst)
    for bid in sorted(b for b, v in outs.items() if len(v) > 1):
        errors.append(("multiple-out-edges", f"basin {bid!r} has out-degree {len(outs[bid])}"))

    drains = sorted(b for b, v in outs.items() if not v)
    if len(drains) == 0:
        errors.append(("no-drain", "no basin has out-degree 0"))
    elif len(drains) > 1:
        errors.append(("multiple-drains", f"basins with out-degree 0: {drains}"))

    # Kahn residue detects cycles independently of the drain bookkeeping;
    # on a valid graph the order is RegionGraph.topo_order.
    ready = [bid for bid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        bid = heapq.heappop(ready)
        order.append(bid)
        for nxt in outs[bid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(id_set):
        errors.append(("cycle-detected", "graph contains a directed cycle"))

    # Weak connectivity over the undirected view.
    neighbours: dict[str, set[str]] = {bid: set() for bid in id_set}
    for src, dst in edges:
        neighbours[src].add(dst)
        neighbours[dst].add(src)
    seen = {ids[0]}
    frontier = [ids[0]]
    while frontier:
        for nxt in neighbours[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != len(id_set):
        errors.append(("not-connected", f"{len(id_set) - len(seen)} basin(s) unreachable from {ids[0]!r}"))

    return ValidationReport(errors=tuple(errors)), order


def topological_order(g: RegionGraph) -> list[str]:
    """Basin ids with every basin after all of its sources; lexicographic
    tie-break makes the order unique and stable (see
    :attr:`RegionGraph.topo_order`)."""
    return list(g.topo_order)


def drain_of(g: RegionGraph) -> str:
    """The unique basin with no outlet: the last in topological order."""
    return g.topo_order[-1]


def _hops(g: RegionGraph, target: str) -> dict[str, int]:
    """Hops to ``target`` from ``target`` (0) and from every basin that
    drains into it. One pass suffices: the reverse topological order
    reaches each basin after the one it drains into."""
    hops = {target: 0}
    for bid in reversed(g.topo_order):
        down = g.downstream[bid]
        if down and down[0] in hops:
            hops[bid] = hops[down[0]] + 1
    return hops


def height(g: RegionGraph) -> int:
    """Number of basins on the longest upstream path from the drain,
    counting the drain itself (single basin -> 1)."""
    return 1 + max(_hops(g, drain_of(g)).values())


def prune_to_depth(g: RegionGraph, target: str, depth: int) -> RegionGraph:
    """Sub-tree draining into ``target``: basins whose directed path to
    ``target`` is shorter than ``depth`` steps. depth=1 keeps the target
    alone; the target becomes the drain of the result."""
    if target not in g:
        raise HydroNetsError("unknown-target", f"no basin {target!r} in graph")
    if depth < 1:
        raise HydroNetsError("invalid-depth", f"depth must be >= 1, got {depth}")
    keep = {bid for bid, hops in _hops(g, target).items() if hops < depth}
    basins = tuple(b for b in g.basins if b.id in keep)
    edges = tuple(e for e in g.edges if e[0] in keep and e[1] in keep)
    return RegionGraph(basins=basins, edges=edges)
