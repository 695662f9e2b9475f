"""Hierarchical level solving and hierarchy statistics."""

import dataclasses
import logging
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asnkit.hierarchy
from asnkit import (
    GrammaticalRole,
    aggregate,
    demo_corpus_path,
    detect_emergent_heads,
    filter_slice,
    hierarchy_levels,
    hierarchy_stats,
    level_csv,
    load_corpus,
    track,
)
from oracles import (
    _lsqr_min_norm,
    _record,
    dense_levels,
    depth_of_heads,
    exact_levels,
    hierarchy_stats_oracle,
    make_asn,
    mmd_lu_levels,
    nkey,
    nouns,
    parse_corpus,
    random_asn,
    random_tree_heads,
    reverse,
    treebank,
)


def levels_by_lemma(asn, levels):
    return {k.lemma: v for k, v in zip(asn.keys, levels.tolist())}


class TestExactPropagation:
    def test_chain(self):
        asn = make_asn([("a", "b", 1), ("b", "c", 1)])
        both = hierarchy_levels(asn)
        assert levels_by_lemma(asn, both.forward) == {"a": 0.0, "b": 1.0, "c": 2.0}
        assert both.residual <= 1e-12
        assert levels_by_lemma(asn, both.backward) == {"a": 2.0, "b": 1.0, "c": 0.0}

    def test_isolated_node_sits_at_zero(self):
        asn = make_asn([("a", "b", 1)], isolated=["lone"])
        assert levels_by_lemma(asn, hierarchy_levels(asn).forward)["lone"] == 0.0

    def test_weighted_merge(self):
        # c hears from a (weight 3, level 0) and b (weight 1, level 1):
        # level(c) = 1 + (3*0 + 1*1)/4
        asn = make_asn([("a", "b", 1), ("a", "c", 3), ("b", "c", 1)])
        fwd = levels_by_lemma(asn, hierarchy_levels(asn).forward)
        assert fwd["c"] == pytest.approx(1.25, abs=1e-12)

    def test_unweighted_flag_ignores_multiplicity(self):
        asn = make_asn([("a", "b", 1), ("a", "c", 3), ("b", "c", 1)])
        fwd = levels_by_lemma(asn, hierarchy_levels(asn, weighted=False).forward)
        assert fwd["c"] == pytest.approx(1.5, abs=1e-12)

    def test_diamond(self):
        asn = make_asn([("a", "b", 2), ("a", "c", 1),
                        ("b", "d", 1), ("c", "d", 3)])
        fwd = levels_by_lemma(asn, hierarchy_levels(asn).forward)
        assert fwd == {"a": 0.0, "b": 1.0, "c": 1.0, "d": 2.0}

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_tree_levels_equal_depths(self, seed, n):
        rng = np.random.default_rng(seed)
        heads_vec = random_tree_heads(rng, n)
        (corpus_slice,) = parse_corpus(treebank(nouns(heads_vec)))
        asn = aggregate(corpus_slice.trees)
        both = hierarchy_levels(asn)
        assert both.residual <= 1e-12
        depth = {}
        for i, h in enumerate(heads_vec, start=1):
            node, d = i, 0
            while heads_vec[node - 1] != 0:
                node = heads_vec[node - 1]
                d += 1
            depth[f"w{i}"] = d
        assert levels_by_lemma(asn, both.forward) == pytest.approx(depth, abs=1e-12)


class TestLeastSquares:
    def test_two_cycle_levels_tie(self):
        asn = make_asn([("a", "b", 1), ("b", "a", 1)])
        both = hierarchy_levels(asn)
        by = levels_by_lemma(asn, both.forward)
        assert by["a"] == by["b"] == 0.0
        # in each direction both equations miss by exactly 1, so the
        # residual norm is sqrt(2)
        assert both.residual == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_matches_dense_pseudoinverse_on_random_digraphs(self):
        rng = np.random.default_rng(20260813)
        for _ in range(40):
            asn = random_asn(rng, int(rng.integers(2, 9)))
            fwd = hierarchy_levels(asn).forward
            oracle = dense_levels(asn)
            for key, level in oracle.items():
                assert fwd[asn.index[key]] == pytest.approx(level, abs=1e-8)

    def test_backward_is_forward_of_reversed(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            asn = random_asn(rng, int(rng.integers(2, 9)))
            bwd = hierarchy_levels(asn).backward
            fwd_rev = hierarchy_levels(reverse(asn)).forward
            assert np.array_equal(bwd, fwd_rev)

    def test_levels_are_min_shifted_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            asn = random_asn(rng, int(rng.integers(2, 9)))
            values = hierarchy_levels(asn).forward.tolist()
            assert min(values) == 0.0

    def test_levels_record_their_weighting(self):
        asn = make_asn([("a", "b", 1), ("a", "c", 3), ("b", "c", 1)])
        weighted = hierarchy_levels(asn)
        unweighted = hierarchy_levels(asn, weighted=False)
        assert weighted.weighted is True and unweighted.weighted is False
        assert weighted.forward.tolist() == [0.0, 1.0, 1.25]
        assert unweighted.forward.tolist() == [0.0, 1.0, 1.5]

    def test_empty_network_has_no_levels(self):
        asn = make_asn([])
        both = hierarchy_levels(asn)
        assert both.forward.size == 0 and both.residual == 0.0


def refuse(*args, **kwargs):
    raise AssertionError("this solver must not run here")


CYCLIC = {  # nonsingular: every node is reachable from a pinned head
    "two-cycle": [("h", "a", 1), ("a", "b", 2), ("b", "a", 1), ("b", "c", 1)],
    "dag-plus-self-loop": [("h", "a", 1), ("a", "b", 2), ("h", "b", 1),
                           ("b", "b", 1), ("b", "c", 3)],
}

SINGULAR = {  # forward: some node is not reachable from a pinned node, and
    # the number of closed classes that makes it so
    "closed-two-cycle": (1, [("h", "c", 1), ("a", "b", 2), ("b", "a", 1),
                             ("b", "c", 1)]),
    "self-loop-source": (1, [("s", "s", 1), ("s", "a", 1), ("a", "b", 2),
                             ("h", "b", 1)]),
    "no-pinned-node": (1, [("a", "b", 1), ("b", "c", 1), ("c", "a", 1),
                           ("c", "d", 1)]),
    "two-closed-classes": (2, [("a", "b", 1), ("b", "a", 3), ("x", "x", 2),
                               ("b", "c", 1), ("x", "c", 1), ("h", "c", 2)]),
}


def counting(calls, name, function):
    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return counted


def factor_fills(monkeypatch):
    """Patch ``splu`` to record each factorization's matrix nnz and fill
    (``L.nnz + U.nnz``), in call order, in the returned list."""
    fills = []
    factor = asnkit.hierarchy.splu

    def recorded(matrix, **options):
        lu = factor(matrix, **options)
        fills.append((matrix.nnz, lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(asnkit.hierarchy, "splu", recorded)
    return fills


class TestSolverChoice:
    """Acyclic graphs are propagated exactly; every other system is solved
    by one sparse LU factorization, with one anchor per closed class."""

    @pytest.mark.parametrize("edges", CYCLIC.values(), ids=CYCLIC)
    def test_cyclic_graph_is_never_propagated(self, monkeypatch, edges):
        monkeypatch.setattr(asnkit.hierarchy, "_propagate_exact", refuse)
        asn = make_asn(edges)
        both = hierarchy_levels(asn)
        for backward, levels in ((False, both.forward), (True, both.backward)):
            for key, level in dense_levels(asn, backward=backward).items():
                assert levels[asn.index[key]] == pytest.approx(level, abs=1e-8)

    @pytest.mark.parametrize("edges", CYCLIC.values(), ids=CYCLIC)
    def test_nonsingular_cyclic_graph_has_no_closed_class(self, monkeypatch, caplog,
                                                          edges):
        fills = factor_fills(monkeypatch)
        asn = make_asn(edges)
        with caplog.at_level(logging.DEBUG, logger="asnkit.hierarchy"):
            both = hierarchy_levels(asn)
        assert both.forward[asn.index[nkey("h")]] == 0.0
        assert both.backward[asn.index[nkey("c")]] == 0.0
        size = f"{asn.node_count} nodes, {asn.edge_count} edges"
        assert [r.getMessage() for r in caplog.records] == [
            f"forward levels: LU on {size}, 0 closed classes, fill {fills[0][1]}",
            f"backward levels: LU on {size}, 0 closed classes, fill {fills[1][1]}"]
        for backward, levels in ((False, both.forward), (True, both.backward)):
            for key, level in dense_levels(asn, backward=backward).items():
                assert levels[asn.index[key]] == pytest.approx(level, abs=1e-8)

    @pytest.mark.parametrize("closed, edges", SINGULAR.values(), ids=SINGULAR)
    def test_singular_graph_anchors_each_closed_class(self, monkeypatch, caplog,
                                                      closed, edges):
        fills = factor_fills(monkeypatch)
        asn = make_asn(edges)
        with caplog.at_level(logging.DEBUG, logger="asnkit.hierarchy"):
            fwd = hierarchy_levels(asn).forward
        (_nnz, fill), *_backward = fills
        assert caplog.records[0].getMessage() == (
            f"forward levels: LU on {asn.node_count} nodes, {asn.edge_count} "
            f"edges, {closed} closed classes, fill {fill}")
        for key, level in dense_levels(asn).items():
            assert fwd[asn.index[key]] == pytest.approx(level, abs=1e-8)

    def test_random_graphs_reach_both_kinds_of_lu_solve(self, monkeypatch):
        closed = Counter()
        solve = asnkit.hierarchy._lu_min_norm

        def counted(matrix, b, anchors, src, dst):
            closed[min(anchors.size, 1)] += 1
            return solve(matrix, b, anchors, src, dst)

        monkeypatch.setattr(asnkit.hierarchy, "_lu_min_norm", counted)
        rng = np.random.default_rng(913)  # the draws of criterion 3
        done = 0
        while done < 200:
            asn = random_asn(rng, int(rng.integers(2, 9)))
            if asn.edge_count:
                done += 1
                hierarchy_levels(asn)
        assert closed[0] >= 1 and closed[1] >= 1

    def test_acyclic_graph_is_never_factored(self, monkeypatch):
        monkeypatch.setattr(asnkit.hierarchy, "splu", refuse)
        asn = make_asn([("a", "b", 2), ("a", "c", 1), ("b", "c", 1),
                        ("b", "d", 1), ("c", "d", 3)], isolated=["lone"])
        both = hierarchy_levels(asn)
        assert both.residual <= 1e-12
        # b = 1, c = 1 + (0 + 1) / 2, d = 1 + (1 * b + 3 * c) / 4, exactly
        assert levels_by_lemma(asn, both.forward)["d"] == 2.375

    def test_each_direction_logs_its_solver(self, monkeypatch, caplog):
        # forward: the closed 2-cycle a <-> b and the self-loop-only node d;
        # backward: c is pinned and feeds the 2-cycle, d is closed alone
        singular = make_asn([("a", "b", 2), ("b", "a", 1), ("b", "c", 1),
                             ("d", "d", 1)])
        fills = factor_fills(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="asnkit.hierarchy"):
            hierarchy_levels(make_asn([("a", "b", 1), ("b", "c", 1)],
                                      isolated=["lone"]))
            both = hierarchy_levels(singular)
        assert [r.getMessage() for r in caplog.records] == [
            "forward levels: exact propagation on 4 nodes, 2 edges",
            "backward levels: exact propagation on 4 nodes, 2 edges",
            f"forward levels: LU on 4 nodes, 4 edges, 2 closed classes, "
            f"fill {fills[0][1]}",
            f"backward levels: LU on 4 nodes, 4 edges, 1 closed classes, "
            f"fill {fills[1][1]}",
        ]
        for backward, levels in ((False, both.forward), (True, both.backward)):
            for key, level in dense_levels(singular, backward=backward).items():
                assert levels[singular.index[key]] == pytest.approx(level, abs=1e-8)


def nonsingular_cyclic_edges(rng, n):
    """Random weighted digraph on n >= 3 lemmas with a 2-cycle, in which every
    node is reachable from one of 1 to n // 10 + 1 pinned heads."""
    order = [f"n{i}" for i in rng.permutation(n)]
    heads = int(rng.integers(1, min(n - 2, n // 10 + 1) + 1))
    edges = [(order[int(rng.integers(0, i))], order[i], int(rng.integers(1, 6)))
             for i in range(heads, n)]  # each non-head hears from an earlier node
    edges += [(order[heads], order[heads + 1], 1), (order[heads + 1], order[heads], 2)]
    for _ in range(n):  # extra edges, self-loops included, never into a head
        edges.append((order[int(rng.integers(0, n))],
                      order[int(rng.integers(heads, n))], int(rng.integers(1, 6))))
    return edges


class TestLuMatchesLsqr:
    """The LU path gives the levels of minimum-norm LSQR, the oracle."""

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_seeded_nonsingular_cyclic_graphs(self, monkeypatch, weighted):
        calls = Counter()
        monkeypatch.setattr(asnkit.hierarchy, "splu",
                            counting(calls, "LU", asnkit.hierarchy.splu))
        rng = np.random.default_rng(1013)
        for case in range(40):
            n = int(rng.integers(3, 12 if case % 2 else 301))
            asn = make_asn(nonsingular_cyclic_edges(rng, n),
                           isolated=[f"n{i}" for i in range(n)])
            fwd = hierarchy_levels(asn, weighted=weighted).forward
            # the 2-cycle makes both directions cyclic
            assert calls["LU"] == 2 * (case + 1)

            src, dst, wgt = asnkit.hierarchy._edge_arrays(asn, "forward", weighted)
            w_in = np.bincount(dst, weights=wgt, minlength=n)
            matrix, b = asnkit.hierarchy._system_matrix(n, src, dst, wgt, w_in)
            lsqr_levels = _lsqr_min_norm(matrix, b)
            assert np.abs(fwd - (lsqr_levels - lsqr_levels.min())).max() <= 1e-9
            assert np.all(fwd[w_in == 0.0] == 0.0)
            if n <= 40:
                for key, level in dense_levels(asn, weighted=weighted).items():
                    assert fwd[asn.index[key]] == pytest.approx(level, abs=1e-9)


class TestExactLevels:
    """Float levels agree with exact rational ones, and the level ranks order
    every pair of nodes whose exact levels differ as those levels do."""

    def test_seeded_nonsingular_cyclic_graphs(self):
        rng = np.random.default_rng(2028)
        for _ in range(12):
            n = int(rng.integers(3, 31))
            asn = make_asn(nonsingular_cyclic_edges(rng, n),
                           isolated=[f"n{i}" for i in range(n)])
            for weighted in (True, False):
                levels = hierarchy_levels(asn, weighted=weighted)
                exact = exact_levels(asn, weighted=weighted)
                tolerance = 1e-12 * max(1.0, float(max(exact)))
                for level, truth in zip(levels.forward.tolist(), exact):
                    assert abs(level - float(truth)) <= tolerance
                rank = levels.rank.tolist()
                for i in range(n):  # exact ties are left to the tie-break
                    for j in range(n):
                        if exact[i] < exact[j]:
                            assert rank[i] < rank[j]

    def test_a_singular_system_is_refused(self):
        asn = make_asn([("a", "b", 1), ("b", "a", 2)])
        with pytest.raises(ValueError, match="singular"):
            exact_levels(asn)


def singular_edges(rng, n):
    """Random weighted digraph on n >= 4 lemmas with 1 to 3 closed classes,
    rings of 1 to 5 nodes (a 1-ring is a self-loop) that no other node
    feeds, 0 to 2 pinned heads, and every other node hearing from an
    earlier one; returns the edges and the number of classes."""
    order = [f"n{i}" for i in rng.permutation(n)]
    sizes = rng.integers(1, min(5, n // 4) + 1, int(rng.integers(1, 4)))
    edges, start = [], 0
    for size in sizes.tolist():
        ring = order[start:start + size]
        edges += [(u, ring[(i + 1) % size], int(rng.integers(1, 6)))
                  for i, u in enumerate(ring)]
        start += size
    fed = start + int(rng.integers(0, 3))  # nodes before this hear from no other
    edges += [(order[int(rng.integers(0, i))], order[i], int(rng.integers(1, 6)))
              for i in range(fed, n)]
    for _ in range(n):  # extra edges, self-loops included, into fed nodes only
        edges.append((order[int(rng.integers(0, n))],
                      order[int(rng.integers(fed, n))], int(rng.integers(1, 6))))
    return edges, sizes.size


class TestMinNormMatchesOracles:
    """On singular systems the anchored LU gives the minimum-norm levels of
    LSQR and of the dense pseudoinverse, in both directions."""

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_seeded_singular_graphs(self, caplog, weighted):
        rng = np.random.default_rng(2020)
        for case in range(40):
            n = int(rng.integers(4, 12 if case % 2 else 301))
            edges, closed = singular_edges(rng, n)
            asn = make_asn(edges, isolated=[f"n{i}" for i in range(n)])
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="asnkit.hierarchy"):
                both = hierarchy_levels(asn, weighted=weighted)
            assert f", {closed} closed classes, " in caplog.records[0].getMessage()
            for direction, levels in (("forward", both.forward),
                                      ("backward", both.backward)):
                src, dst, wgt = asnkit.hierarchy._edge_arrays(asn, direction, weighted)
                w_in = np.bincount(dst, weights=wgt, minlength=n)
                matrix, b = asnkit.hierarchy._system_matrix(n, src, dst, wgt, w_in)
                expected = _lsqr_min_norm(matrix, b)
                assert np.abs(levels - (expected - expected.min())).max() <= 1e-9
                if n <= 40:
                    oracle = dense_levels(asn, weighted=weighted,
                                          backward=direction == "backward")
                    for key, level in oracle.items():
                        assert levels[asn.index[key]] == pytest.approx(level, abs=1e-8)


class TestHubsLastLu:
    """The LU path orders the nodes hubs last itself: the same levels as
    SuperLU's minimum-degree order, and little fill around a hub."""

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_matches_the_mmd_ordered_solve(self, monkeypatch, weighted):
        fills = factor_fills(monkeypatch)
        rng = np.random.default_rng(1414)
        for case in range(12):
            n = int(rng.integers(3, 40 if case % 3 else 2001))
            asn = make_asn(nonsingular_cyclic_edges(rng, n))
            # every node of the reversed network reaches a pinned sink, so
            # its backward direction takes the LU path too
            for net, backward in ((asn, False), (reverse(asn), True)):
                both = hierarchy_levels(net, weighted=weighted)
                levels = both.backward if backward else both.forward
                # each solve factors both directions, both cyclic
                assert len(fills) == 2 * (2 * case + 1 + backward)
                expected = mmd_lu_levels(net, weighted=weighted, backward=backward)
                assert np.abs(levels - expected).max() <= 1e-10
                pinned = (net.out_weight() if backward else net.in_weight()) == 0
                assert np.all(levels[pinned] == 0.0)

    def test_hub_first_star_has_little_fill(self, monkeypatch):
        # hub "a" is node 0 and trades edges with 1,998 leaves; head "z" is
        # pinned and feeds the hub.  In node order the hub's row and column
        # fill in the whole factor (4,000,001 entries).
        n = 2000
        leaves = [f"n{i:04d}" for i in range(n - 2)]
        asn = make_asn([("a", leaf, 1) for leaf in leaves]
                       + [(leaf, "a", 1) for leaf in leaves] + [("z", "a", 1)])
        assert asn.node_count == n and asn.keys[0] == nkey("a")
        fills = factor_fills(monkeypatch)
        levels = hierarchy_levels(asn).forward
        (nnz, fill), _backward = fills
        assert fill <= 2 * (nnz + n)
        # hub: s = 1 + (1998 (1 + s) + 0) / 1999, so s = 3997; leaves 3998
        assert levels[asn.index[nkey("z")]] == 0.0
        exact = [3997.0] + [3998.0] * (n - 2)
        assert levels[:-1].tolist() == pytest.approx(exact, rel=1e-9)


class TestHierarchyStats:
    def test_layered_graph_is_maximally_hierarchical(self):
        asn = make_asn([("a", "b", 2), ("a", "c", 1),
                        ("b", "d", 1), ("c", "d", 3)])
        stats = hierarchy_stats(asn, hierarchy_levels(asn))
        assert stats.democracy == 0.0
        assert stats.incoherence == 0.0

    def test_two_cycle_is_maximally_democratic(self):
        asn = make_asn([("a", "b", 1), ("b", "a", 1)])
        stats = hierarchy_stats(asn, hierarchy_levels(asn))
        assert stats.democracy == 1.0
        assert stats.incoherence == 0.0

    def test_skip_edge_creates_incoherence(self):
        # a->b->c plus the shortcut a->c: differences 1, 0.5, 1.5
        asn = make_asn([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        levels = hierarchy_levels(asn)
        stats = hierarchy_stats(asn, levels)
        assert stats.democracy == pytest.approx(0.0, abs=1e-12)
        assert stats.incoherence == pytest.approx(1.0 / 6.0, abs=1e-12)
        diffs = {  # spelled out, the three edge differences
            (asn.keys[u].lemma, asn.keys[v].lemma): levels.forward[v] - levels.forward[u]
            for u, v in zip(asn.src.tolist(), asn.dst.tolist())
        }
        assert diffs == pytest.approx(
            {("a", "b"): 1.0, ("b", "c"): 0.5, ("a", "c"): 1.5}, abs=1e-12
        )

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_matches_loop_oracle_on_random_graphs(self, weighted):
        rng = np.random.default_rng(99)
        for _ in range(25):
            asn = random_asn(rng, int(rng.integers(2, 9)))
            if not asn.edge_count:
                continue
            levels = hierarchy_levels(asn, weighted=weighted)
            stats = hierarchy_stats(asn, levels)
            demo, inco = hierarchy_stats_oracle(asn, levels.forward, weighted=weighted)
            assert stats.democracy == pytest.approx(demo, abs=1e-10)
            assert stats.incoherence == pytest.approx(inco, abs=1e-10)

    def test_is_shift_invariant(self):
        asn = make_asn([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        base = hierarchy_levels(asn)
        shifted = dataclasses.replace(base, forward=base.forward + 17.5)
        one = hierarchy_stats(asn, base)
        other = hierarchy_stats(asn, shifted)
        assert other.democracy == pytest.approx(one.democracy, abs=1e-12)
        assert other.incoherence == pytest.approx(one.incoherence, abs=1e-12)

    def test_weighted_flag_changes_the_averaging(self):
        asn = make_asn([("a", "b", 9), ("b", "c", 1), ("a", "c", 1)])
        set_by_hand = np.array([0.0, 1.0, 1.0])  # a, b, c
        levels = dataclasses.replace(hierarchy_levels(asn), forward=set_by_hand)
        assert levels.weighted is True
        weighted = hierarchy_stats(asn, levels)
        unweighted = hierarchy_stats(asn, dataclasses.replace(levels, weighted=False))
        # weighted mean = (9*1 + 1*0 + 1*1)/11, unweighted = 2/3
        assert weighted.democracy == pytest.approx(1 - 10 / 11, abs=1e-12)
        assert unweighted.democracy == pytest.approx(1 - 2 / 3, abs=1e-12)

    def test_edgeless_network_rejected(self):
        asn = make_asn([], isolated=["a"])
        with pytest.raises(ValueError, match="edgeless"):
            hierarchy_stats(asn, hierarchy_levels(asn))


#: Every entry that reads a network together with its levels.
LEVEL_READERS = {
    "hierarchy_stats": hierarchy_stats,
    "level_csv": level_csv,
    "track": lambda asn, levels: track([nkey("a")], [(asn, levels)]),
    "detect_emergent_heads": lambda asn, levels: detect_emergent_heads([(asn, levels)]),
}


class TestMisalignedLevels:
    """Levels of another network are refused by every entry, those of
    another size naming both sizes, instead of giving wrong numbers or a
    numpy error."""

    @pytest.mark.parametrize("read", LEVEL_READERS.values(), ids=LEVEL_READERS)
    def test_levels_of_another_network_are_refused(self, read):
        three = make_asn([("a", "b", 1), ("b", "c", 1)], century=14)
        seven = make_asn([("a", "b", 1), ("a", "c", 2), ("c", "d", 1), ("d", "e", 1),
                          ("e", "c", 1), ("b", "f", 3), ("f", "g", 1)], century=14)
        for asn, other in ((three, seven), (seven, three)):
            read(asn, hierarchy_levels(asn))
            with pytest.raises(ValueError, match=(
                    f"^levels hold {other.node_count} nodes, "
                    f"the network has {asn.node_count}$")):
                read(asn, hierarchy_levels(other))

    @pytest.mark.parametrize("read", LEVEL_READERS.values(), ids=LEVEL_READERS)
    def test_levels_of_another_network_of_the_same_size_are_refused(self, read):
        c14, c15 = (aggregate(filter_slice(s, "drop-adjacent-to-target")[0].trees)
                    for s in load_corpus(demo_corpus_path())[:2])
        assert (c14.century, c15.century, c14.node_count, c15.node_count) == (14, 15, 37, 37)
        read(c14, hierarchy_levels(c14))
        with pytest.raises(ValueError, match="^levels are of another network of 37 nodes$"):
            read(c14, hierarchy_levels(c15))


class TestLevelsEquality:
    """Levels compare by content, as a network does."""

    def test_equal_exactly_when_every_field_is(self):
        asn = make_asn([("a", "b", 3), ("b", "c", 1), ("c", "b", 2)])
        other = make_asn([("a", "b", 3), ("b", "c", 1), ("c", "b", 1)])
        levels = hierarchy_levels(asn)
        assert levels == hierarchy_levels(asn)
        assert levels != hierarchy_levels(asn, weighted=False)
        assert levels != hierarchy_levels(other)
        assert levels != dataclasses.replace(levels, rank=levels.rank[::-1])


class TestRankingAndHistogram:
    def test_ranking_orders_by_level_then_out_weight_then_name(self):
        asn = make_asn([("a", "x", 5), ("b", "y", 1), ("b", "z", 1),
                        ("c", "w", 2)])
        levels = hierarchy_levels(asn)
        order = np.argsort(levels.rank)
        lemmas = [asn.keys[i].lemma for i in order]
        # heads first (level 0): a (out 5), b and c tie at 2 -> lexicographic
        assert lemmas[:3] == ["a", "b", "c"]
        assert all(level == 0.0 for level in levels.forward[order[:3]])
        assert set(lemmas[3:]) == {"w", "x", "y", "z"}

    def test_level_zero_band_is_ordered_by_out_weight_on_a_cyclic_graph(self):
        # five pinned heads feed a 30-node strongly connected core; the
        # system is nonsingular, so the heads sit at exactly 0 and their band
        # is ordered by out-weight, then (role, lemma)
        rng = np.random.default_rng(0)
        heads = [(nkey("zeta"), 7), (nkey("alpha", GrammaticalRole.MODAL_VERB), 4),
                 (nkey("alpha"), 4), (nkey("beta"), 4), (nkey("omega"), 1)]
        core = [nkey(f"c{i:02d}", GrammaticalRole.VERB) for i in range(30)]
        edges = {}
        for i, node in enumerate(core):  # a ring closes the core
            edges[node, core[(i + 1) % 30]] = [int(rng.integers(1, 6)), set()]
        for _ in range(60):
            u, v = rng.choice(30, 2, replace=False)
            edges.setdefault((core[u], core[v]), [0, set()])[0] += int(rng.integers(1, 6))
        for head, out in heads:
            for target in rng.choice(30, out):
                edges.setdefault((head, core[target]), [0, set()])[0] += 1
        asn = _record(15, dict.fromkeys([k for k, _ in heads] + core, 1), edges)
        levels = hierarchy_levels(asn)
        assert [levels.forward[asn.index[k]] for k, _ in heads] == [0.0] * 5

        order = np.argsort(levels.rank)[:5].tolist()
        out_weight = asn.out_weight()
        assert [(asn.keys[i], levels.forward[i], out_weight[i]) for i in order] == [
            (k, 0.0, out) for k, out in heads]
        trajectories = track([k for k, _ in heads], [(asn, levels)])
        assert [(t.points[0].level, t.points[0].level_rank, t.points[0].is_head)
                for t in trajectories] == [(0.0, rank, True) for rank in range(1, 6)]

    def test_rank_one_is_a_head_on_acyclic_graphs(self):
        asn = make_asn([("a", "b", 3), ("b", "c", 1)])
        first = np.argsort(hierarchy_levels(asn).rank)[0]
        assert asn.in_weight()[first] == 0


class TestLevelCsv:
    def test_structure_and_values(self):
        asn = make_asn([("a", "b", 2)])
        text = level_csv(asn, hierarchy_levels(asn), metadata={"seed": 5})
        lines = text.splitlines()
        assert lines[0].startswith("# ") and "seed=5" in lines[0]
        assert "axis=inverted" in lines[0]
        assert lines[1] == ("role,lemma,forward_level,backward_level,"
                            "frequency,in_weight,out_weight")
        assert lines[2] == "N,a,0.0,1.0,1,0,2"
        assert lines[3] == "N,b,1.0,0.0,1,2,0"

    def test_a_line_break_in_metadata_names_its_key(self):
        asn = make_asn([("a", "b", 2)])
        with pytest.raises(ValueError, match="'note'"):
            level_csv(asn, hierarchy_levels(asn), metadata={"note": "a\nb"})
