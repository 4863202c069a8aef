import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import hydronets
from hydronets.region import Basin, RegionGraph


@pytest.fixture
def fork_graph():
    """b1 and b2 feed b3, which drains into b4."""
    return RegionGraph(
        basins=(
            Basin(id="b1", name="upper left"),
            Basin(id="b2", name="upper right"),
            Basin(id="b3", name="middle"),
            Basin(id="b4", name="drain"),
        ),
        edges=(("b1", "b3"), ("b2", "b3"), ("b3", "b4")),
    )


@pytest.fixture
def chain2():
    return RegionGraph(
        basins=(Basin(id="b1", name="up"), Basin(id="b2", name="down")),
        edges=(("b1", "b2"),),
    )


@pytest.fixture
def cycle_into_outlet():
    """a and b drain into each other and a also into c, the one basin
    without an outlet: a walk upstream from c with no visited set never
    ends."""
    return RegionGraph(
        basins=tuple(Basin(id=bid, name=bid) for bid in "abc"),
        edges=(("a", "b"), ("b", "a"), ("a", "c")),
    )


def run_python(args, timeout=30):
    """``python *args`` in a fresh process that imports this package. A
    hang fails the calling test after ``timeout`` seconds instead of
    stalling the suite."""
    path = [str(Path(hydronets.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env)


def make_series_text(g, n, step=3600, value_fn=None):
    """Uniform-grid series file covering every basin of g.

    value_fn(basin_id, t) -> (precip, level); defaults to a non-constant
    deterministic pattern so normalization never hits a constant channel.
    """
    if value_fn is None:
        def value_fn(bid, t):
            k = sum(map(ord, bid))
            return (t % 5) * 0.5 + (k % 3), math.sin(0.1 * t + k) + 0.01 * t
    lines = ["timestamp,basin_id,precip,level"]
    for t in range(n):
        for b in g.basins:
            p, lv = value_fn(b.id, t)
            lines.append(f"{t * step},{b.id},{p!r},{lv!r}")
    return "\n".join(lines) + "\n"


def tree_from_parents(parents):
    """Build a RegionGraph from parents[i] = index of the basin that
    basin i+1 drains into (a random recursive tree, drain = basin 0)."""
    n = len(parents) + 1
    ids = [f"b{i}" for i in range(n)]
    basins = tuple(Basin(id=bid, name=f"basin {i}") for i, bid in enumerate(ids))
    edges = tuple((ids[i + 1], ids[p]) for i, p in enumerate(parents))
    return RegionGraph(basins=basins, edges=edges)


@st.composite
def random_trees(draw, min_basins=1, max_basins=9):
    n = draw(st.integers(min_basins, max_basins))
    parents = [draw(st.integers(0, i)) for i in range(n - 1)]
    return tree_from_parents(parents)


def reference_forward_batch(p, features):
    """The tree evaluated one basin at a time in topological order, each
    combiner on its sources' concatenated embeddings: the oracle for the
    level-at-a-time :func:`hydronets.model.forward_batch`."""
    batch = next(iter(features.values())).shape[0]
    t, k = p.dims.window, p.dims.embedding
    combined, embeddings, preds = {}, {}, {}
    for bid in p.graph.topo_order:
        srcs = p.graph.upstream[bid]
        if srcs:
            stacked = np.concatenate([embeddings[j] for j in srcs], axis=2)
            c = stacked @ p.block("combiner_w", bid).T + p.block("combiner_b", bid)
        else:
            c = np.zeros((batch, t, k))
        combined[bid] = c
        u = np.concatenate([features[bid], c], axis=2)
        e = u @ p.shared_w.T + p.shared_b
        embeddings[bid] = e
        preds[bid] = e.reshape(batch, t * k) @ p.block("head_w", bid) + p.block("head_b", bid)
    return combined, embeddings, preds


def reference_flat_forecast(p, features):
    """The flat model read basin by basin: the concatenated per-basin
    windows of ``p.included`` times its weights in that order, plus its
    bias. The oracle for its lag-major filter, so it never goes through
    :meth:`~hydronets.model.Filters.apply`."""
    x = np.concatenate([features[bid].reshape(len(features[bid]), -1) for bid in p.included], axis=1)
    return x @ p.weights.swapaxes(0, 1).ravel() + p.bias
