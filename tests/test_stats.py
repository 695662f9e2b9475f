"""Topology summaries and degree sequences."""

import math
from pathlib import Path

import numpy as np
import pytest

from asnkit import (
    aggregate,
    degree_sequences,
    demo_corpus_path,
    summarize,
)
from asnkit.stats import (
    _BATCH,
    _largest_component,
    _path_lengths,
    _projection,
    _triangles,
)
from oracles import (
    local_clustering,
    make_asn,
    parse_corpus,
    random_asn,
    reference_path_lengths,
    reference_twice_triangles,
    shuffled_treebank,
    summary_oracle,
)


def sparse_asn(rng: np.random.Generator, n: int, arcs: int, hubs: int = 0):
    """Network on lemmas n0..n{n-1} with ``arcs`` uniform random arcs (self-loops
    and 2-cycles allowed), plus ``hubs`` nodes each pointing at a random third
    of the nodes; nodes left without an arc stay as isolated nodes."""
    src = [rng.integers(0, n, arcs)]
    dst = [rng.integers(0, n, arcs)]
    for hub in rng.choice(n, hubs, replace=False):
        src.append(np.full(n // 3, hub))
        dst.append(rng.choice(n, n // 3, replace=False))
    arcs = zip(np.concatenate(src).tolist(), np.concatenate(dst).tolist())
    return make_asn([(f"n{u}", f"n{v}", 1) for u, v in arcs],
                    isolated=[f"n{i}" for i in range(n)])


class TestSummarize:
    def test_triangle(self):
        asn = make_asn([("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
        s = summarize(asn)
        assert s.node_count == 3
        assert s.edge_count == 3
        assert s.average_degree == 2.0
        assert s.clustering == 1.0
        assert s.average_path_length == 1.0
        assert s.diameter == 1
        assert s.component_count == 1
        assert s.lcc_fraction == 1.0

    def test_four_chain(self):
        asn = make_asn([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)])
        s = summarize(asn)
        assert s.edge_count == 3
        assert s.average_degree == 1.5
        assert s.clustering == 0.0
        assert s.average_path_length == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert s.diameter == 3

    def test_two_cycle_projects_to_one_edge(self):
        asn = make_asn([("a", "b", 4), ("b", "a", 1)])
        s = summarize(asn)
        assert s.edge_count == 1
        assert s.average_degree == 1.0
        assert s.diameter == 1

    def test_self_loops_are_dropped_from_the_projection(self):
        asn = make_asn([("a", "a", 2), ("a", "b", 1)])
        s = summarize(asn)
        assert s.edge_count == 1
        assert s.average_degree == 1.0

    def test_average_degree_identity_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            asn = random_asn(rng, int(rng.integers(1, 12)))
            s = summarize(asn)
            assert s.average_degree == 2.0 * s.edge_count / s.node_count

    def test_components_and_lcc_fraction(self):
        asn = make_asn(
            [("a", "b", 1), ("b", "c", 1), ("x", "y", 1)], isolated=["z"]
        )
        s = summarize(asn)
        assert s.component_count == 3
        assert s.lcc_fraction == pytest.approx(3.0 / 6.0)
        assert s.diameter == 2  # measured on {a, b, c}

    def test_lcc_size_tie_breaks_to_smallest_key(self):
        # two 2-node components: {m, n} and {a, b}; the tie goes to {a, b}
        asn = make_asn([("m", "n", 1), ("a", "b", 1)])
        s = summarize(asn)
        assert s.lcc_fraction == 0.5 and s.diameter == 1

    def test_singleton_network(self):
        asn = make_asn([], isolated=["a"])
        s = summarize(asn)
        assert s.node_count == 1
        assert s.edge_count == 0
        assert s.average_path_length == 0.0
        assert s.diameter == 0
        assert s.lcc_fraction == 1.0

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="no nodes"):
            summarize(make_asn([]))

    def test_matches_brute_force_oracle_on_random_graphs(self):
        rng = np.random.default_rng(20260813)
        for _ in range(40):
            asn = random_asn(rng, int(rng.integers(1, 14)), p=0.25)
            s = summarize(asn)
            expected = summary_oracle(asn)
            assert s.node_count == expected["node_count"]
            assert s.edge_count == expected["edge_count"]
            assert s.component_count == expected["component_count"]
            assert s.diameter == expected["diameter"]
            assert s.average_degree == expected["average_degree"]
            assert s.lcc_fraction == pytest.approx(
                expected["lcc_fraction"], abs=1e-12)
            assert s.clustering == pytest.approx(
                expected["clustering"], abs=1e-12)
            assert s.average_path_length == pytest.approx(
                expected["average_path_length"], abs=1e-12)

    def test_clustering_is_summed_exactly(self):
        # The mean of the brute-force ratios, summed without rounding error,
        # so it is the same for any node order and on any Python version.
        rng = np.random.default_rng(1025)
        for _ in range(400):
            asn = random_asn(rng, int(rng.integers(1, 41)), p=0.18)
            ratios = local_clustering(asn)
            assert summarize(asn).clustering == math.fsum(ratios) / len(ratios)

    def test_path_longer_than_two_source_batches(self):
        # the largest component is a path whose sources fill two search
        # batches and 70 more, so the last batch crosses a 64-bit word
        # boundary; a self-loop and a 2-cycle sit on it, and a second
        # component and two isolated nodes sit beside it
        m = 2 * _BATCH + 70
        path = [(f"p{i}", f"p{i + 1}", 1) for i in range(m - 1)]
        extras = [("p1", "p0", 3), ("p5", "p5", 2), ("x", "y", 1), ("y", "z", 1)]
        s = summarize(make_asn(path + extras, isolated=["i1", "i2"]))
        n = m + 5
        assert s.node_count == n
        assert s.edge_count == (m - 1) + 2
        assert s.diameter == m - 1
        assert s.average_path_length == (m + 1) / 3
        assert s.component_count == 4
        assert s.lcc_fraction == m / n
        assert s.clustering == 0.0

    def test_matches_brute_force_oracle_on_larger_random_graphs(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            n = int(rng.integers(26, 61))
            asn = random_asn(rng, n, p=float(rng.uniform(0.005, 0.08)))
            s = summarize(asn)
            expected = summary_oracle(asn)
            assert s.node_count == expected["node_count"]
            assert s.edge_count == expected["edge_count"]
            assert s.component_count == expected["component_count"]
            assert s.diameter == expected["diameter"]
            assert s.average_degree == expected["average_degree"]
            for field in ("clustering", "average_path_length", "lcc_fraction"):
                assert getattr(s, field) == pytest.approx(
                    expected[field], abs=1e-12), field


class TestKernelsAgainstReferences:
    """The bit-parallel search and the oriented triangle counts give exactly
    the block-wise ``shortest_path`` distances and the ``A * (A @ A)`` row
    sums they replaced."""

    @staticmethod
    def check_kernels(asn):
        """Check both kernels against their references on ``asn``; return its
        projection, component count and largest component's size."""
        adjacency = _projection(asn)
        assert np.array_equal(2 * _triangles(adjacency),
                              reference_twice_triangles(adjacency))
        count, lcc = _largest_component(adjacency)
        component = adjacency[lcc][:, lcc]
        assert _path_lengths(component) == reference_path_lengths(component)
        return adjacency, count, lcc.size

    @pytest.mark.parametrize("seed", range(4))
    def test_graphs_spanning_several_batches(self, seed):
        rng = np.random.default_rng([20261020, seed])
        n = int(rng.integers(600, 1501))
        asn = sparse_asn(rng, n, arcs=int(n * rng.uniform(1.5, 3.0)))
        _, _, m = self.check_kernels(asn)
        assert m > _BATCH and m % 64  # several batches, a partial last word

    @pytest.mark.parametrize("seed", range(3))
    def test_hub_heavy_graphs(self, seed):
        rng = np.random.default_rng([20261021, seed])
        n = int(rng.integers(600, 1501))
        asn = sparse_asn(rng, n, arcs=n, hubs=int(rng.integers(2, 7)))
        adjacency, _, m = self.check_kernels(asn)
        degrees = np.diff(adjacency.indptr)
        assert m > _BATCH and degrees.max() > 10 * np.median(degrees)

    def test_component_filling_whole_batches(self):
        # a random tree on 2 * _BATCH nodes plus random chords, so the last
        # batch is full and ends on a whole 64-bit word; a second component
        # and isolated nodes sit beside it
        rng = np.random.default_rng(20261023)
        m = 2 * _BATCH
        parent = (rng.random(m - 1) * np.arange(1, m)).astype(np.int64)
        src = np.concatenate([np.arange(1, m), rng.integers(0, m, m // 2)])
        dst = np.concatenate([parent, rng.integers(0, m, m // 2)])
        arcs = [(f"n{u}", f"n{v}", 1) for u, v in zip(src.tolist(), dst.tolist())]
        arcs += [("x", "y", 1), ("y", "z", 1)]
        _, count, size = self.check_kernels(make_asn(arcs, isolated=["i1", "i2"]))
        assert (count, size) == (4, m)

    def test_two_node_largest_component(self):
        asn = make_asn([("a", "b", 1), ("b", "a", 2), ("a", "a", 1),
                        ("x", "y", 1)], isolated=["z"])
        adjacency, count, m = self.check_kernels(asn)
        assert (count, m) == (3, 2)
        assert _path_lengths(adjacency[:2][:, :2]) == (2, 1)
        assert not _triangles(adjacency).any()

    def test_disconnected_graph(self):
        # forty random clusters of 2-40 nodes, no arc between two of them,
        # and ten isolated nodes
        rng = np.random.default_rng(20261022)
        arcs = []
        for cluster in range(40):
            size = int(rng.integers(2, 41))
            src, dst = rng.integers(0, size, (2, 2 * size))
            arcs += [(f"c{cluster}.{u}", f"c{cluster}.{v}", 1)
                     for u, v in zip(src.tolist(), dst.tolist())]
        asn = make_asn(arcs, isolated=[f"i{k}" for k in range(10)])
        adjacency, count, m = self.check_kernels(asn)
        assert count > 40 and 2 < m < 0.1 * asn.node_count
        assert _triangles(adjacency).any()


class TestSentenceOrder:
    """A century's network and summary depend on its sentences alone."""

    def test_shuffled_demo_gives_equal_networks_and_summaries(self):
        text = Path(demo_corpus_path()).read_text(encoding="utf-8")
        want = [aggregate(s.trees) for s in parse_corpus(text)]
        want_summaries = [summarize(asn) for asn in want]
        for seed in range(20):
            (shuffled,) = shuffled_treebank(text, seed)
            got = [aggregate(s.trees) for s in parse_corpus(shuffled)]
            assert got == want, seed
            assert [summarize(asn) for asn in got] == want_summaries, seed


class TestDegreeSequences:
    def test_small_example(self):
        asn = make_asn([("a", "b", 9), ("a", "c", 1), ("b", "c", 1)])
        seqs = degree_sequences(asn)
        assert seqs["in"] == [0, 1, 2]
        assert seqs["out"] == [0, 1, 2]
        assert seqs["total"] == [2, 2, 2]

    def test_weights_do_not_matter(self):
        light = make_asn([("a", "b", 1)])
        heavy = make_asn([("a", "b", 50)])
        assert degree_sequences(light) == degree_sequences(heavy)

    def test_handshake_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            asn = random_asn(rng, int(rng.integers(1, 12)))
            seqs = degree_sequences(asn)
            assert sum(seqs["in"]) == sum(seqs["out"]) == asn.edge_count
            assert sum(seqs["total"]) == 2 * asn.edge_count
