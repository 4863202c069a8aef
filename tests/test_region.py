"""Region graph parsing, validation, and transforms."""

import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hydronets.errors import HydroNetsError
from hydronets.region import (
    Basin,
    RegionGraph,
    drain_of,
    dump_region,
    height,
    parse_region,
    prune_to_depth,
    topological_order,
    validate,
)

from conftest import random_trees, run_python, tree_from_parents


def region_text(basins, edges):
    return json.dumps({
        "basins": [{"id": b, "name": b} for b in basins],
        "edges": [list(e) for e in edges],
    })


class TestParse:
    def test_echoes_declared_structure(self):
        g = parse_region(region_text(
            ["b1", "b2", "b3", "b4"], [("b1", "b3"), ("b2", "b3"), ("b3", "b4")]
        ))
        assert g.basin_ids == ("b1", "b2", "b3", "b4")
        assert drain_of(g) == "b4"
        assert g.upstream["b3"] == ("b1", "b2")

    def test_duplicate_id_rejected(self):
        with pytest.raises(HydroNetsError, match="duplicate-id"):
            parse_region(region_text(["b1", "b1"], []))

    def test_empty_basin_list_rejected(self):
        with pytest.raises(HydroNetsError, match="empty-region"):
            parse_region(region_text([], []))

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(HydroNetsError, match="unknown-edge-endpoint"):
            parse_region(region_text(["b1"], [("b1", "nope")]))

    def test_unknown_field_rejected(self):
        doc = json.loads(region_text(["b1"], []))
        doc["basins"][0]["color"] = "blue"
        with pytest.raises(HydroNetsError):
            parse_region(json.dumps(doc))

    def test_syntax_error_reported_with_position(self):
        with pytest.raises(HydroNetsError, match="syntax-error"):
            parse_region("{not json")

    def test_malformed_json_is_syntax_error(self):
        texts = [
            "[" * 100000,
            "1" * 5000,
            '{"basins": [{"id": "b1", "name": "x", "static": [' + "9" * 400 + ']}], "edges": []}',
            *(
                '{"basins": [{"id": "b1", "name": "x", "static": [1.0, %s]}], "edges": []}' % number
                for number in ("NaN", "Infinity", "-Infinity", "1e400")
            ),
        ]
        for text in texts:
            with pytest.raises(HydroNetsError, match="syntax-error"):
                parse_region(text)

    @pytest.mark.parametrize("bid", [" b0", "b0 ", "\tb0", "b0\n", "  "])
    def test_id_with_outer_whitespace_is_syntax_error(self, bid):
        with pytest.raises(HydroNetsError, match="syntax-error: basin id .* leading or trailing whitespace"):
            parse_region(region_text([bid], []))

    def test_static_features_carried(self):
        doc = {"basins": [{"id": "b1", "name": "x", "static": [1.0, 2.0]}], "edges": []}
        g = parse_region(json.dumps(doc))
        assert g.basins[0].static == (1.0, 2.0)

    def test_round_trip(self, fork_graph):
        assert parse_region(dump_region(fork_graph)) == fork_graph
        # The text a region file is written as reads back and writes out
        # unchanged: static features where a basin has them, no key where
        # it has none, and an id that JSON escapes.
        text = r'''{
  "basins": [
    {
      "id": "up \"north\" \\ \u00e9",
      "name": "upper",
      "static": [
        0.5,
        -2.0,
        1e-300
      ]
    },
    {
      "id": "drain",
      "name": "outlet"
    }
  ],
  "edges": [
    [
      "up \"north\" \\ \u00e9",
      "drain"
    ]
  ]
}
'''
        g = parse_region(text)
        assert g.basin_ids == ('up "north" \\ \u00e9', "drain") and g.basins[0].static == (0.5, -2.0, 1e-300)
        assert dump_region(g) == text


class TestValidate:
    def test_two_cycle(self):
        g = RegionGraph(
            basins=(Basin(id="b1", name="a"), Basin(id="b2", name="b")),
            edges=(("b1", "b2"), ("b2", "b1")),
        )
        assert "cycle-detected" in validate(g).codes

    def test_two_drains(self):
        g = RegionGraph(basins=(Basin(id="b1", name="a"), Basin(id="b2", name="b")), edges=())
        assert "multiple-drains" in validate(g).codes

    def test_chain_ok(self):
        g = tree_from_parents([0, 1])
        report = validate(g)
        assert report.ok and report.errors == ()

    def test_multiple_out_edges(self):
        g = RegionGraph(
            basins=(Basin(id="a", name="a"), Basin(id="b", name="b"), Basin(id="c", name="c")),
            edges=(("a", "b"), ("a", "c")),
        )
        assert "multiple-out-edges" in validate(g).codes

    def test_self_loop_is_cycle(self):
        g = RegionGraph(basins=(Basin(id="a", name="a"),), edges=(("a", "a"),))
        assert "cycle-detected" in validate(g).codes

    def test_disconnected_components(self):
        g = RegionGraph(
            basins=(
                Basin(id="a", name="a"), Basin(id="b", name="b"),
                Basin(id="c", name="c"), Basin(id="d", name="d"),
            ),
            edges=(("a", "b"), ("c", "d")),
        )
        assert "not-connected" in validate(g).codes

    def test_ok_iff_no_errors(self, fork_graph):
        report = validate(fork_graph)
        assert report.ok == (len(report.errors) == 0)


class TestTopologicalOrder:
    def test_fork(self, fork_graph):
        assert topological_order(fork_graph) == ["b1", "b2", "b3", "b4"]

    def test_single(self):
        g = tree_from_parents([])
        assert topological_order(g) == ["b0"]

    def test_reversed_chain(self):
        g = RegionGraph(
            basins=(Basin(id="b3", name="x"), Basin(id="b2", name="y"), Basin(id="b1", name="z")),
            edges=(("b3", "b2"), ("b2", "b1")),
        )
        assert topological_order(g) == ["b3", "b2", "b1"]

    def test_invalid_graph_rejected(self):
        g = RegionGraph(basins=(Basin(id="a", name="a"),), edges=(("a", "a"),))
        with pytest.raises(HydroNetsError, match="invalid-graph"):
            topological_order(g)

    @given(random_trees())
    def test_respects_edges_and_is_stable(self, g):
        order = topological_order(g)
        assert sorted(order) == sorted(g.basin_ids)
        pos = {b: i for i, b in enumerate(order)}
        for src, dst in g.edges:
            assert pos[src] < pos[dst]
        assert topological_order(g) == order


class TestPrune:
    def test_depth_1_is_target_alone(self, fork_graph):
        sub = prune_to_depth(fork_graph, "b4", 1)
        assert sub.basin_ids == ("b4",) and sub.edges == ()

    def test_depth_2(self, fork_graph):
        sub = prune_to_depth(fork_graph, "b4", 2)
        assert sub.basin_ids == ("b3", "b4")
        assert sub.edges == (("b3", "b4"),)

    def test_depth_3_is_full_graph(self, fork_graph):
        assert prune_to_depth(fork_graph, "b4", 3) == fork_graph

    def test_interior_target_becomes_drain(self, fork_graph):
        sub = prune_to_depth(fork_graph, "b3", 2)
        assert drain_of(sub) == "b3"
        assert sub.basin_ids == ("b1", "b2", "b3")

    def test_unknown_target(self, fork_graph):
        with pytest.raises(HydroNetsError, match="unknown-target"):
            prune_to_depth(fork_graph, "zz", 1)

    def test_bad_depth(self, fork_graph):
        with pytest.raises(HydroNetsError, match="invalid-depth"):
            prune_to_depth(fork_graph, "b4", 0)

    @given(random_trees(), st.integers(1, 10))
    def test_nested_in_next_depth(self, g, d):
        target = drain_of(g)
        inner = set(prune_to_depth(g, target, d).basin_ids)
        outer = set(prune_to_depth(g, target, d + 1).basin_ids)
        assert inner <= outer

    @given(random_trees(), st.integers(1, 10))
    def test_pruned_graph_is_valid(self, g, d):
        assert validate(prune_to_depth(g, drain_of(g), d)).ok


class TestQueries:
    def test_sources_sorted(self, fork_graph):
        reordered = RegionGraph(basins=fork_graph.basins, edges=fork_graph.edges[::-1])
        for g in (fork_graph, reordered):
            assert g.upstream["b4"] == ("b3",)
            assert g.upstream["b3"] == ("b1", "b2")
            assert g.upstream["b1"] == ()

    def test_height(self, fork_graph):
        assert height(fork_graph) == 3
        assert height(tree_from_parents([])) == 1

    @pytest.mark.parametrize("query", ["drain_of(g)", "height(g)", "prune_to_depth(g, 'c', 3)"])
    def test_cycle_into_outlet_raises(self, cycle_into_outlet, query):
        # In a subprocess, since a query that walks the cycle never returns.
        script = (
            "import sys\n"
            "from hydronets.region import drain_of, height, parse_region, prune_to_depth\n"
            f"g = parse_region(sys.argv[1])\n{query}\n"
        )
        done = run_python(["-c", script, dump_region(cycle_into_outlet)])
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1].startswith("hydronets.errors.HydroNetsError: invalid-graph: ")


class TestHash:
    def test_equal_graphs_hash_equal(self, fork_graph):
        same = parse_region(dump_region(fork_graph))
        other = RegionGraph(basins=fork_graph.basins, edges=fork_graph.edges[:-1])
        assert same is not fork_graph and same == fork_graph
        assert hash(same) == hash(fork_graph) == hash((fork_graph.basins, fork_graph.edges))
        assert len({fork_graph, same, other}) == 2

    def test_unpickled_graph_hashes_in_its_own_process(self, fork_graph):
        # String hashes differ between processes: a graph must not carry
        # the hash cached where it was pickled.
        hash(fork_graph)
        script = (
            "import pickle, sys\n"
            "from hydronets.region import dump_region, parse_region\n"
            "g = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
            "assert hash(g) == hash(parse_region(dump_region(g)))\n"
        )
        done = run_python(["-c", script, pickle.dumps(fork_graph).hex()])
        assert done.returncode == 0, done.stderr
