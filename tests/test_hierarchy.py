"""Hierarchical level solving and hierarchy statistics."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import lsqr

import asnkit.hierarchy
from asnkit import (
    GrammaticalRole,
    Token,
    aggregate,
    backward_levels,
    forward_levels,
    heads,
    hierarchy_levels,
    hierarchy_stats,
    influence_ranking,
    level_csv,
    validate_tree,
)
from oracles import (
    dense_levels,
    depth_of_heads,
    hierarchy_stats_oracle,
    make_asn,
    nkey,
    random_asn,
    random_tree_heads,
    reverse,
)


def levels_by_lemma(solution):
    return {k.lemma: v for k, v in solution.levels.items()}


class TestExactPropagation:
    def test_chain(self):
        asn = make_asn([("a", "b", 1), ("b", "c", 1)])
        fwd = forward_levels(asn)
        assert levels_by_lemma(fwd) == {"a": 0.0, "b": 1.0, "c": 2.0}
        assert fwd.residual <= 1e-12
        bwd = backward_levels(asn)
        assert levels_by_lemma(bwd) == {"a": 2.0, "b": 1.0, "c": 0.0}

    def test_isolated_node_sits_at_zero(self):
        asn = make_asn([("a", "b", 1)], isolated=["lone"])
        assert levels_by_lemma(forward_levels(asn))["lone"] == 0.0

    def test_weighted_merge(self):
        # c hears from a (weight 3, level 0) and b (weight 1, level 1):
        # level(c) = 1 + (3*0 + 1*1)/4
        asn = make_asn([("a", "b", 1), ("a", "c", 3), ("b", "c", 1)])
        fwd = levels_by_lemma(forward_levels(asn))
        assert fwd["c"] == pytest.approx(1.25, abs=1e-12)

    def test_unweighted_flag_ignores_multiplicity(self):
        asn = make_asn([("a", "b", 1), ("a", "c", 3), ("b", "c", 1)])
        fwd = levels_by_lemma(forward_levels(asn, weighted=False))
        assert fwd["c"] == pytest.approx(1.5, abs=1e-12)

    def test_diamond(self):
        asn = make_asn([("a", "b", 2), ("a", "c", 1),
                        ("b", "d", 1), ("c", "d", 3)])
        fwd = levels_by_lemma(forward_levels(asn))
        assert fwd == {"a": 0.0, "b": 1.0, "c": 1.0, "d": 2.0}

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_tree_levels_equal_depths(self, seed, n):
        rng = np.random.default_rng(seed)
        heads_vec = random_tree_heads(rng, n)
        tokens = [
            Token(index=i, surface=f"w{i}", lemma=f"w{i}",
                  role=GrammaticalRole.NOUN, head=h)
            for i, h in enumerate(heads_vec, start=1)
        ]
        tree = validate_tree(tokens, sentence_id="s", century=14)
        asn = aggregate([tree])
        fwd = forward_levels(asn)
        assert fwd.residual <= 1e-12
        depth = {}
        for i, h in enumerate(heads_vec, start=1):
            node, d = i, 0
            while heads_vec[node - 1] != 0:
                node = heads_vec[node - 1]
                d += 1
            depth[f"w{i}"] = d
        assert levels_by_lemma(fwd) == pytest.approx(depth, abs=1e-12)


class TestLeastSquares:
    def test_two_cycle_levels_tie(self):
        asn = make_asn([("a", "b", 1), ("b", "a", 1)])
        fwd = forward_levels(asn)
        by = levels_by_lemma(fwd)
        assert by["a"] == by["b"] == 0.0
        # both equations miss by exactly 1, so the residual norm is sqrt(2)
        assert fwd.residual == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_matches_dense_pseudoinverse_on_random_digraphs(self):
        rng = np.random.default_rng(20260813)
        for _ in range(40):
            asn = random_asn(rng, int(rng.integers(2, 9)))
            fwd = forward_levels(asn)
            oracle = dense_levels(asn)
            for key, level in oracle.items():
                assert fwd.levels[key] == pytest.approx(level, abs=1e-8)

    def test_backward_is_forward_of_reversed(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            asn = random_asn(rng, int(rng.integers(2, 9)))
            bwd = backward_levels(asn)
            fwd_rev = forward_levels(reverse(asn))
            assert bwd.levels == fwd_rev.levels

    def test_levels_are_min_shifted_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            asn = random_asn(rng, int(rng.integers(2, 9)))
            values = list(forward_levels(asn).levels.values())
            assert min(values) == 0.0

    def test_hierarchy_levels_bundles_both_directions(self):
        asn = make_asn([("a", "b", 1), ("b", "c", 1)])
        both = hierarchy_levels(asn)
        assert both.forward == forward_levels(asn).levels
        assert both.backward == backward_levels(asn).levels
        assert both.residual >= 0.0

    def test_iteration_limit_is_logged_as_a_warning(self, monkeypatch, caplog):
        asn = make_asn([("h", "a", 2), ("a", "b", 1), ("b", "c", 3),
                        ("c", "a", 1), ("c", "d", 1), ("d", "b", 2)])
        with caplog.at_level(logging.WARNING, logger="asnkit.hierarchy"):
            forward_levels(asn)
        assert not caplog.records

        def starved(*args, **kwargs):
            return lsqr(*args, **{**kwargs, "iter_lim": 2})

        monkeypatch.setattr(asnkit.hierarchy, "lsqr", starved)
        with caplog.at_level(logging.WARNING, logger="asnkit.hierarchy"):
            forward_levels(asn)
        assert caplog.records
        assert all("iteration limit (2 iterations)" in r.getMessage()
                   for r in caplog.records)

    def test_empty_network_has_no_levels(self):
        asn = make_asn([])
        both = hierarchy_levels(asn)
        assert both.forward == {} and both.residual == 0.0


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
        stats = hierarchy_stats(asn, hierarchy_levels(asn))
        assert stats.democracy == pytest.approx(0.0, abs=1e-12)
        assert stats.incoherence == pytest.approx(1.0 / 6.0, abs=1e-12)
        diffs = {  # spelled out, the three edge differences
            (u.lemma, v.lemma): d
            for (u, v), d in stats.edge_differences.items()
        }
        assert diffs == pytest.approx(
            {("a", "b"): 1.0, ("b", "c"): 0.5, ("a", "c"): 1.5}, abs=1e-12
        )

    def test_matches_loop_oracle_on_random_graphs(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            asn = random_asn(rng, int(rng.integers(2, 9)))
            if not asn.edges:
                continue
            levels = hierarchy_levels(asn)
            stats = hierarchy_stats(asn, levels)
            demo, inco = hierarchy_stats_oracle(asn, levels.forward)
            assert stats.democracy == pytest.approx(demo, abs=1e-10)
            assert stats.incoherence == pytest.approx(inco, abs=1e-10)

    def test_accepts_plain_mapping_and_is_shift_invariant(self):
        asn = make_asn([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        base = hierarchy_levels(asn).forward
        shifted = {k: v + 17.5 for k, v in base.items()}
        one = hierarchy_stats(asn, base)
        other = hierarchy_stats(asn, shifted)
        assert other.democracy == pytest.approx(one.democracy, abs=1e-12)
        assert other.incoherence == pytest.approx(one.incoherence, abs=1e-12)

    def test_weighted_flag_changes_the_averaging(self):
        asn = make_asn([("a", "b", 9), ("b", "c", 1), ("a", "c", 1)])
        levels = {nkey("a"): 0.0, nkey("b"): 1.0, nkey("c"): 1.0}
        weighted = hierarchy_stats(asn, levels, weighted=True)
        unweighted = hierarchy_stats(asn, levels, weighted=False)
        # weighted mean = (9*1 + 1*0 + 1*1)/11, unweighted = 2/3
        assert weighted.democracy == pytest.approx(1 - 10 / 11, abs=1e-12)
        assert unweighted.democracy == pytest.approx(1 - 2 / 3, abs=1e-12)

    def test_edgeless_network_rejected(self):
        asn = make_asn([], isolated=["a"])
        with pytest.raises(ValueError, match="edgeless"):
            hierarchy_stats(asn, {nkey("a"): 0.0})


class TestRankingAndHistogram:
    def test_ranking_orders_by_level_then_out_weight_then_name(self):
        asn = make_asn([("a", "x", 5), ("b", "y", 1), ("b", "z", 1),
                        ("c", "w", 2)])
        ranked = influence_ranking(asn, hierarchy_levels(asn))
        lemmas = [k.lemma for k, _level, _w in ranked]
        # heads first (level 0): a (out 5), b and c tie at 2 -> lexicographic
        assert lemmas[:3] == ["a", "b", "c"]
        assert all(level == 0.0 for _k, level, _w in ranked[:3])
        assert set(lemmas[3:]) == {"w", "x", "y", "z"}

    def test_rank_one_is_a_head_on_acyclic_graphs(self):
        asn = make_asn([("a", "b", 3), ("b", "c", 1)])
        ranked = influence_ranking(asn, hierarchy_levels(asn))
        assert ranked[0][0] in set(heads(asn))


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
