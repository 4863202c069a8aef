"""Forward evaluation, parameter containers, and checkpoints."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydronets.data import Example
from hydronets.errors import HydroNetsError
from hydronets.model import (
    Dims,
    FlatLinearParams,
    HydroNetParams,
    flat_design_matrix,
    forward_batch,
    forward_flat,
    forward_hydronet,
    graph_fingerprint,
    init_flat,
    init_hydronet,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from hydronets.region import Basin, RegionGraph, prune_to_depth

from conftest import random_trees, tree_from_parents


def hand_params(chain2):
    """Chain b1 -> b2 with T = K = d_x = 1 and hand-picked weights."""
    dims = Dims(window=1, embedding=1, horizon=1, channels=1)
    return HydroNetParams(
        graph=chain2, dims=dims,
        shared_w=np.array([[0.5, 0.25]]), shared_b=np.zeros(1),
        combiner_w={"b2": np.array([[2.0]])}, combiner_b={"b2": np.zeros(1)},
        head_w={"b1": np.array([1.0]), "b2": np.array([0.4])},
        head_b={"b1": 0.0, "b2": 0.0},
    )


def example_for(g, dims, rng=None, fill=None):
    feats = {}
    for bid in g.basin_ids:
        if rng is not None:
            feats[bid] = rng.standard_normal((dims.window, dims.channels))
        else:
            feats[bid] = np.full((dims.window, dims.channels), fill)
    return Example(
        anchor=0, features=feats,
        labels={b: 0.0 for b in g.basin_ids},
        persist={b: 0.0 for b in g.basin_ids},
    )


class TestForwardHydronet:
    def test_hand_computed_trace(self, chain2):
        p = hand_params(chain2)
        ex = Example(
            anchor=0,
            features={"b1": np.array([[1.0]]), "b2": np.array([[2.0]])},
            labels={"b1": 0.0, "b2": 0.0}, persist={"b1": 0.0, "b2": 0.0},
        )
        trace = forward_hydronet(p, ex)
        assert trace.embeddings["b1"][0, 0] == pytest.approx(0.5, abs=1e-12)
        assert trace.combined["b2"][0, 0] == pytest.approx(1.0, abs=1e-12)
        assert trace.embeddings["b2"][0, 0] == pytest.approx(1.25, abs=1e-12)
        assert trace.preds["b1"] == pytest.approx(0.5, abs=1e-12)
        assert trace.preds["b2"] == pytest.approx(0.5, abs=1e-12)

    def test_zero_params_zero_preds(self, fork_graph):
        dims = Dims(window=3, embedding=2, horizon=1)
        p = init_hydronet(fork_graph, dims, 0)
        zeroed = p.unpack(np.zeros(param_count(p)))
        ex = example_for(fork_graph, dims, rng=np.random.default_rng(0))
        trace = forward_hydronet(zeroed, ex)
        assert all(v == 0.0 for v in trace.preds.values())

    def test_doubling_inputs_doubles_outputs(self, fork_graph):
        # biases are zero at init, so the whole map is linear
        dims = Dims(window=2, embedding=2, horizon=1)
        p = init_hydronet(fork_graph, dims, 3)
        rng = np.random.default_rng(1)
        ex = example_for(fork_graph, dims, rng=rng)
        doubled = Example(
            anchor=0, features={b: 2.0 * x for b, x in ex.features.items()},
            labels=ex.labels, persist=ex.persist,
        )
        t1, t2 = forward_hydronet(p, ex), forward_hydronet(p, doubled)
        for b in fork_graph.basin_ids:
            assert t2.preds[b] == pytest.approx(2.0 * t1.preds[b], rel=1e-12)

    def test_sources_have_zero_combined(self, fork_graph):
        dims = Dims(window=2, embedding=2, horizon=1)
        p = init_hydronet(fork_graph, dims, 3)
        ex = example_for(fork_graph, dims, rng=np.random.default_rng(2))
        trace = forward_hydronet(p, ex)
        assert np.all(trace.combined["b1"] == 0.0)
        assert np.all(trace.combined["b2"] == 0.0)
        assert not np.all(trace.combined["b3"] == 0.0)

    def test_shape_mismatch(self, chain2):
        p = hand_params(chain2)
        bad = Example(
            anchor=0,
            features={"b1": np.ones((2, 1)), "b2": np.ones((1, 1))},
            labels={"b1": 0.0, "b2": 0.0}, persist={"b1": 0.0, "b2": 0.0},
        )
        with pytest.raises(HydroNetsError, match="shape-mismatch"):
            forward_hydronet(p, bad)

    @given(random_trees(min_basins=2, max_basins=6), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_superposition(self, g, seed):
        rng = np.random.default_rng(seed)
        dims = Dims(window=2, embedding=2, horizon=1)
        p = init_hydronet(g, dims, seed)
        x1 = {b: rng.standard_normal((1, 2, 2)) for b in g.basin_ids}
        x2 = {b: rng.standard_normal((1, 2, 2)) for b in g.basin_ids}
        a, b_ = 0.7, -1.3
        mix = {k: a * x1[k] + b_ * x2[k] for k in x1}
        _, _, p1 = forward_batch(p, x1)
        _, _, p2 = forward_batch(p, x2)
        _, _, pm = forward_batch(p, mix)
        for k in p1:
            expect = a * p1[k] + b_ * p2[k]
            assert np.allclose(pm[k], expect, rtol=1e-9, atol=1e-12)


class TestLocality:
    @given(random_trees(min_basins=2, max_basins=8), st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_out_of_subtree_perturbation_is_invisible(self, g, seed):
        rng = np.random.default_rng(seed)
        dims = Dims(window=2, embedding=2, horizon=1)
        p = init_hydronet(g, dims, seed)
        feats = {b: rng.standard_normal((1, 2, 2)) for b in g.basin_ids}
        target = g.basin_ids[int(rng.integers(len(g.basin_ids)))]
        subtree = set(prune_to_depth(g, target, len(g.basins)).basin_ids)
        outside = [b for b in g.basin_ids if b not in subtree]
        if not outside:
            return
        perturbed = dict(feats)
        for b in outside:
            perturbed[b] = feats[b] + rng.standard_normal((1, 2, 2))
        _, emb1, pred1 = forward_batch(p, feats)
        _, emb2, pred2 = forward_batch(p, perturbed)
        # bit-identical, not merely close
        assert np.array_equal(emb1[target], emb2[target])
        assert np.array_equal(pred1[target], pred2[target])

    def test_pruned_forward_matches_zeroed_full_graph(self):
        # running the pruned model equals running the full model with the
        # parameters the pruned model lacks pinned to zero
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(3, 9))
            g = tree_from_parents([int(rng.integers(0, i + 1)) for i in range(n - 1)])
            dims = Dims(window=2, embedding=2, horizon=1)
            depth = int(rng.integers(1, 4))
            sub = prune_to_depth(g, g.basin_ids[0], depth)
            p_full = init_hydronet(g, dims, trial)
            p_sub = init_hydronet(sub, dims, trial + 100)
            # copy the pruned model's parameters into the full container,
            # zero everything it does not have
            p_full.shared_w = p_sub.shared_w.copy()
            p_full.shared_b = p_sub.shared_b.copy()
            for bid in p_full.combiner_w:
                if bid in p_sub.combiner_w:
                    p_full.combiner_w[bid] = p_sub.combiner_w[bid].copy()
                    p_full.combiner_b[bid] = p_sub.combiner_b[bid].copy()
                else:
                    p_full.combiner_w[bid] = np.zeros_like(p_full.combiner_w[bid])
                    p_full.combiner_b[bid] = np.zeros_like(p_full.combiner_b[bid])
            for bid in p_full.head_w:
                if bid in p_sub.head_w:
                    p_full.head_w[bid] = p_sub.head_w[bid].copy()
                    p_full.head_b[bid] = p_sub.head_b[bid]
                else:
                    p_full.head_w[bid] = np.zeros_like(p_full.head_w[bid])
                    p_full.head_b[bid] = 0.0
            feats_sub = {b: rng.standard_normal((2, 2, 2)) for b in sub.basin_ids}
            feats_full = {
                b: feats_sub.get(b, np.zeros((2, 2, 2))) for b in g.basin_ids
            }
            _, emb_sub, pred_sub = forward_batch(p_sub, feats_sub)
            _, emb_full, pred_full = forward_batch(p_full, feats_full)
            for b in sub.basin_ids:
                assert np.allclose(emb_full[b], emb_sub[b], rtol=0, atol=1e-12)
                assert np.allclose(pred_full[b], pred_sub[b], rtol=0, atol=1e-12)


class TestFlat:
    def test_bias_only(self, fork_graph):
        dims = Dims(window=2, embedding=1, horizon=1)
        p = init_flat(fork_graph, "b4", 2, dims, 0)
        p = p.unpack(np.concatenate([np.zeros_like(p.weights), [3.5]]))
        ex = example_for(fork_graph, dims, rng=np.random.default_rng(0))
        assert forward_flat(p, ex) == pytest.approx(3.5)

    def test_single_basin_dot_product(self):
        g = tree_from_parents([])
        dims = Dims(window=1, embedding=1, horizon=1)
        p = FlatLinearParams(
            target="b0", included=("b0",), dims=dims,
            weights=np.array([1.0, -1.0]), bias=0.0,
        )
        ex = Example(
            anchor=0, features={"b0": np.array([[2.0, 5.0]])},
            labels={"b0": 0.0}, persist={"b0": 0.0},
        )
        assert forward_flat(p, ex) == pytest.approx(-3.0)

    def test_linearity(self, fork_graph):
        dims = Dims(window=3, embedding=1, horizon=1)
        p = init_flat(fork_graph, "b4", 3, dims, 5)
        rng = np.random.default_rng(6)
        ex = example_for(fork_graph, dims, rng=rng)
        doubled = Example(
            anchor=0, features={b: 2.0 * x for b, x in ex.features.items()},
            labels=ex.labels, persist=ex.persist,
        )
        assert forward_flat(p, doubled) == pytest.approx(2.0 * forward_flat(p, ex), rel=1e-12)

    def test_included_is_pruned_subtree(self, fork_graph):
        p = init_flat(fork_graph, "b4", 2, Dims(window=2, embedding=1, horizon=1), 0)
        assert p.included == ("b3", "b4")
        p3 = init_flat(fork_graph, "b4", 3, Dims(window=2, embedding=1, horizon=1), 0)
        assert set(p3.included) == {"b1", "b2", "b3", "b4"}

    def test_design_matrix_order(self, fork_graph):
        dims = Dims(window=1, embedding=1, horizon=1)
        p = init_flat(fork_graph, "b4", 3, dims, 0)
        feats = {b: np.full((1, 1, 2), i, dtype=float) for i, b in enumerate(p.included)}
        design = flat_design_matrix(p, feats)
        assert design.shape == (1, len(p.included) * 2)
        # concatenation follows topological order of the included basins
        assert list(design[0, ::2]) == list(range(len(p.included)))


class TestParamCount:
    def test_chain_of_two(self, chain2):
        assert param_count(hand_params(chain2)) == 9

    def test_flat_three_basins(self, fork_graph):
        p = init_flat(fork_graph, "b4", 3, Dims(window=30, embedding=1, horizon=1), 0)
        # prune keeps b3 and b4 at depth 2 but all four basins at depth 3;
        # this config wants exactly 3 included basins
        p = FlatLinearParams(
            target="b4", included=("b1", "b2", "b3"), dims=p.dims,
            weights=np.zeros(3 * 30 * 2), bias=0.0,
        )
        assert param_count(p) == 181

    def test_single_basin_hydronet(self):
        g = tree_from_parents([])
        p = init_hydronet(g, Dims(window=2, embedding=3, horizon=1), 0)
        assert param_count(p) == 25

    @given(random_trees(min_basins=1, max_basins=9))
    @settings(max_examples=25, deadline=None)
    def test_matches_formula(self, g):
        dims = Dims(window=3, embedding=2, horizon=1)
        p = init_hydronet(g, dims, 0)
        t, k, d_x = dims.window, dims.embedding, dims.channels
        expected = k * (d_x + k) + k
        for bid in g.basin_ids:
            n_src = len(g.upstream[bid])
            if n_src:
                expected += k * n_src * k + k
            expected += t * k + 1
        assert param_count(p) == expected
        assert len(p.pack()) == expected


class TestInit:
    def test_deterministic(self, fork_graph):
        dims = Dims(window=2, embedding=2, horizon=1)
        a = init_hydronet(fork_graph, dims, 11)
        b = init_hydronet(fork_graph, dims, 11)
        assert np.array_equal(a.pack(), b.pack())
        assert not np.array_equal(a.pack(), init_hydronet(fork_graph, dims, 12).pack())

    def test_biases_zero(self, fork_graph):
        p = init_hydronet(fork_graph, Dims(window=2, embedding=2, horizon=1), 0)
        assert np.all(p.shared_b == 0.0)
        assert all(np.all(v == 0.0) for v in p.combiner_b.values())
        assert all(v == 0.0 for v in p.head_b.values())

    def test_pack_unpack_round_trip(self, fork_graph):
        p = init_hydronet(fork_graph, Dims(window=3, embedding=2, horizon=2), 4)
        v = p.pack()
        assert np.array_equal(p.unpack(v).pack(), v)
        with pytest.raises(HydroNetsError, match="shape-mismatch"):
            p.unpack(np.zeros(len(v) + 1))


class TestCheckpoints:
    def test_hydronet_round_trip_bit_exact(self, fork_graph):
        p = init_hydronet(fork_graph, Dims(window=3, embedding=2, horizon=2), 8)
        text = save_checkpoint(p)
        q = load_checkpoint(text, fork_graph)
        assert np.array_equal(p.pack(), q.pack())
        assert q.dims == p.dims

    def test_flat_round_trip(self, fork_graph):
        p = init_flat(fork_graph, "b4", 2, Dims(window=3, embedding=1, horizon=2), 8)
        q = load_checkpoint(save_checkpoint(p))
        assert np.array_equal(p.pack(), q.pack())
        assert q.included == p.included and q.target == p.target

    def test_graph_mismatch(self, fork_graph, chain2):
        p = init_hydronet(fork_graph, Dims(window=2, embedding=1, horizon=1), 0)
        with pytest.raises(HydroNetsError, match="graph-mismatch"):
            load_checkpoint(save_checkpoint(p), chain2)

    def test_missing_graph(self, fork_graph):
        p = init_hydronet(fork_graph, Dims(window=2, embedding=1, horizon=1), 0)
        with pytest.raises(HydroNetsError, match="missing-graph"):
            load_checkpoint(save_checkpoint(p))

    def test_bad_checkpoint(self, fork_graph):
        dims = Dims(window=2, embedding=2, horizon=1)
        tree = json.loads(save_checkpoint(init_hydronet(fork_graph, dims, 0)))
        flat = json.loads(save_checkpoint(init_flat(fork_graph, "b4", 2, dims, 0)))

        def edited(doc, edit):
            doc = copy.deepcopy(doc)
            edit(doc)
            return json.dumps(doc)

        bad = [
            "{broken",
            '{"kind": "hydronets"}',
            "[]",
            edited(tree, lambda d: d["combiners"]["b3"].update(b=d["combiners"]["b3"]["b"][:1])),
            edited(tree, lambda d: d.update(shared_w=d["shared_w"][:1])),
            edited(tree, lambda d: d.update(shared_w=[[1.0, 2.0], [3.0]])),
            edited(tree, lambda d: d["heads"].pop("b2")),
            edited(tree, lambda d: d["heads"]["b2"].update(b=[0.0])),
            edited(tree, lambda d: d["heads"]["b2"].update(w=d["heads"]["b2"]["w"][:-1])),
            edited(tree, lambda d: d["combiners"].update(b1=d["combiners"]["b3"])),
            edited(tree, lambda d: d["combiners"].pop("b4")),
            edited(flat, lambda d: d.update(weights=d["weights"][:-1])),
            edited(flat, lambda d: d.update(included=d["included"][:1])),
            edited(tree, lambda d: d["dims"].update(window=2.0)),
            edited(flat, lambda d: d["dims"].update(embedding="2")),
            edited(tree, lambda d: d["dims"].update(window=0)),
            edited(tree, lambda d: d["dims"].update(extra=1)),
            '{"kind": "linear", "dims": ' + "1" * 5000 + "}",
            edited(tree, lambda d: d["heads"]["b2"].update(b=float("nan"))),
            edited(tree, lambda d: d["shared_b"].__setitem__(0, float("inf"))),
            edited(tree, lambda d: d["combiners"]["b3"]["w"][0].__setitem__(1, float("-inf"))),
            edited(tree, lambda d: d["heads"]["b1"].update(b=int("9" * 400))),
            edited(tree, lambda d: d["heads"]["b1"]["w"].__setitem__(0, int("9" * 400))),
            edited(flat, lambda d: d.update(bias=float("nan"))),
            edited(flat, lambda d: d["weights"].__setitem__(0, float("inf"))),
            edited(flat, lambda d: d.update(bias=int("9" * 400))),
            edited(flat, lambda d: d.update(included=[*d["included"][:-1], d["included"][0]])),
            edited(flat, lambda d: d.update(target="b1")),
            edited(flat, lambda d: d.update(included="b4")),
            edited(flat, lambda d: d.update(target=4)),
        ]
        for text in bad:
            with pytest.raises(HydroNetsError, match="bad-checkpoint"):
                load_checkpoint(text, fork_graph)
        foreign = [
            edited(flat, lambda d: d.update(target="zz", included=[*d["included"][:-1], "zz"])),
            edited(flat, lambda d: d["included"].__setitem__(0, "zz")),
            edited(flat, lambda d: d.update(target="zz")),
        ]
        for text in foreign:
            with pytest.raises(HydroNetsError, match="graph-mismatch"):
                load_checkpoint(text, fork_graph)

    def test_fingerprint_ignores_declaration_order(self, fork_graph):
        reordered = RegionGraph(basins=fork_graph.basins[::-1], edges=fork_graph.edges[::-1])
        assert graph_fingerprint(fork_graph) == graph_fingerprint(reordered)
