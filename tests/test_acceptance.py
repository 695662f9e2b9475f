"""Acceptance suite: ten end-to-end guarantees, one test per criterion.

Each test states its tolerance and wall-clock budget inline, and the hook in
``conftest.py`` prints one pass/fail line per criterion after the run.  All
random draws are frozen by explicit seeds, so every run checks the same
instances.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from asnkit import (
    GrammaticalRole,
    NodeKey,
    aggregate,
    audit_corpus,
    bootstrap_pvalue,
    detect_emergent_heads,
    fit_power_law,
    hierarchy_levels,
    hierarchy_stats,
    summarize,
    track,
)
from asnkit.cli import main as cli_main
from corpora import crosslink_corpus, takeover_corpus
from oracles import (
    dense_levels,
    heads_form_tree,
    make_asn,
    nouns,
    parse_corpus,
    random_asn,
    random_tree_heads,
    sample_discrete_powerlaw,
    summary_oracle,
    treebank,
)

MOGEN = NodeKey(lemma="mogen", role=GrammaticalRole.MODAL_VERB)
KONNEN = NodeKey(lemma="konnen", role=GrammaticalRole.MODAL_VERB)


#: The kinds of issue a sentence whose heads form no tree is reported under.
TREE_CONSTRAINTS = {"no root", "multiple roots", "head out of range", "head cycle"}


def test_criterion_01_tree_validation_matches_enumeration_oracle():
    """The reader accepts exactly the single-rooted, acyclic, fully reachable
    head vectors — checked exactly against a brute-force walk over every
    vector with entries 0..n+1 for n <= 4, out-of-range and self-pointing
    heads included, each a sentence of one treebank that is audited once;
    a self-head is a malformed token, every other rejection a tree
    constraint (< 1 s).
    """
    start = time.perf_counter()
    vectors = [heads for n in range(1, 5)
               for heads in itertools.product(range(n + 2), repeat=n)]
    texts = [treebank(nouns(heads), sent_id=f"v{k}") for k, heads in enumerate(vectors)]
    kinds = {}
    for issue in audit_corpus([("".join(texts), "<input>")]):
        kinds.setdefault(issue.sentence_id, set()).add(issue.kind)
    for k, heads in enumerate(vectors):
        found = kinds.get(f"v{k}", set())
        assert (not found) == heads_form_tree(list(heads))
        if any(h == i for i, h in enumerate(heads, start=1)):
            assert found == {"malformed token"}
        else:
            assert found <= TREE_CONSTRAINTS
    accepted = [text for k, text in enumerate(texts) if f"v{k}" not in kinds]
    (corpus_slice,) = parse_corpus("".join(accepted))
    assert len(vectors) == 1440 and len(corpus_slice.trees) == len(accepted) == 76
    assert time.perf_counter() - start < 1.0


def test_criterion_02_forward_levels_equal_depths_on_random_trees():
    """On a single tree the forward level of every node equals its depth:
    |level - depth| <= 1e-9 over 500 random trees with n <= 50 (< 5 s).
    """
    rng = np.random.default_rng(20260813)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(1, 51))
        heads = random_tree_heads(rng, n)
        (corpus_slice,) = parse_corpus(treebank(nouns(heads), sent_id="t"))
        asn = aggregate(corpus_slice.trees)
        levels = hierarchy_levels(asn).forward
        for position in range(1, n + 1):
            depth, node = 0, heads[position - 1]
            while node != 0:
                depth += 1
                node = heads[node - 1]
            key = NodeKey(lemma=f"w{position}", role=GrammaticalRole.NOUN)
            assert abs(levels[asn.index[key]] - depth) <= 1e-9
    assert time.perf_counter() - start < 5.0


def test_criterion_03_solver_matches_dense_minimum_norm_oracle():
    """Forward levels agree with a dense pseudoinverse minimum-norm solve to
    1e-8 on 200 random weighted digraphs with n <= 8, cycles allowed (< 10 s).
    """
    rng = np.random.default_rng(913)
    start = time.perf_counter()
    done = 0
    while done < 200:
        asn = random_asn(rng, int(rng.integers(2, 9)))
        if not asn.edge_count:
            continue
        done += 1
        levels = hierarchy_levels(asn).forward
        for key, expected in dense_levels(asn).items():
            assert abs(levels[asn.index[key]] - expected) <= 1e-8
    assert time.perf_counter() - start < 10.0


def _random_layered_asn(rng):
    """Random DAG whose edges all span adjacent layers, every non-source
    node keeping at least one parent; integer weights 1..9."""
    sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 6)))]
    labels = [[f"l{i}n{j}" for j in range(size)]
              for i, size in enumerate(sizes)]
    edges = []
    for i in range(1, len(sizes)):
        for child in labels[i]:
            parents = {labels[i - 1][int(rng.integers(0, sizes[i - 1]))]}
            parents.update(p for p in labels[i - 1] if rng.random() < 0.4)
            for parent in sorted(parents):
                edges.append((parent, child, int(rng.integers(1, 10))))
    return make_asn(edges, isolated=[lab for layer in labels for lab in layer])


def test_criterion_04_layered_graphs_pin_the_zero_point():
    """Perfectly layered graphs score democracy == 0.0 and incoherence == 0.0
    exactly (every edge difference is exactly 1), and a pure 2-cycle scores
    democracy == 1.0 exactly; 50 random layered instances, no tolerance.
    """
    rng = np.random.default_rng(424)
    for _ in range(50):
        asn = _random_layered_asn(rng)
        stats = hierarchy_stats(asn, hierarchy_levels(asn))
        assert stats.democracy == 0.0
        assert stats.incoherence == 0.0
    two_cycle = make_asn([("a", "b", 1), ("b", "a", 1)])
    stats = hierarchy_stats(two_cycle, hierarchy_levels(two_cycle))
    assert stats.democracy == 1.0


def test_criterion_05_crosslinks_lift_diameter_past_tree_depth():
    """Network diameter and average path length exceed the deepest tree only
    from the slice that introduces cross-sentence lemma sharing onward;
    earlier slices stay at or below it (< 10 s).
    """
    start = time.perf_counter()
    slices = parse_corpus(crosslink_corpus())
    assert [s.century for s in slices] == [14, 15, 16, 17]
    for s in slices:
        depth = int(s.trees.depth.max())
        summary = summarize(aggregate(s.trees))
        if s.century < 16:  # before any cross-links exist
            assert summary.diameter <= depth
            assert summary.average_path_length <= depth
        else:
            assert summary.diameter > depth
            assert summary.average_path_length > depth
    assert time.perf_counter() - start < 10.0


def test_criterion_06_power_law_recovery_across_seeds():
    """Fitting n = 10,000 samples drawn at alpha = 2.5, xmin = 5 recovers
    alpha in [2.45, 2.55] and xmin in {4, 5, 6} in >= 19 of 20 seeded runs
    (>= 95%; < 60 s).
    """
    start = time.perf_counter()
    hits = 0
    for seed in range(20):
        data = sample_discrete_powerlaw(2.5, 5, 10_000, seed=seed)
        fit = fit_power_law(data)
        hits += 2.45 <= fit.alpha <= 2.55 and fit.xmin in (4, 5, 6)
    assert hits >= 19
    assert time.perf_counter() - start < 60.0


def test_criterion_07_bootstrap_calibration_and_rejection():
    """Calibration under the null: on power-law samples (n = 5,000, 1,000
    replicates) p_value > 0.1 in >= 18 of 20 seeded runs (>= 90%).  Power
    against a lookalike: on rounded lognormal data of equal size the median
    p_value across the same 20 seeds is < 0.1 (< 10 min total).
    """
    start = time.perf_counter()
    null_keeps = 0
    for seed in range(20):
        data = sample_discrete_powerlaw(2.5, 1, 5_000, seed=seed)
        fit = fit_power_law(data)
        result = bootstrap_pvalue(fit, data, replicates=1000, seed=seed)
        null_keeps += result.p_value > 0.1
    assert null_keeps >= 18

    lognormal_ps = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        raw = rng.lognormal(mean=2.5, sigma=0.35, size=5_000)
        data = np.maximum(np.rint(raw).astype(int), 1)
        fit = fit_power_law(data)
        result = bootstrap_pvalue(fit, data, replicates=1000, seed=seed)
        lognormal_ps.append(result.p_value)
    assert float(np.median(lognormal_ps)) < 0.1
    assert time.perf_counter() - start < 600.0


def test_criterion_08_takeover_emergence_and_rank_frequency_split():
    """On the scripted modal-takeover corpus the incoming modal is flagged at
    exactly the takeover slice (and nothing else is), while the displaced
    modal's frequency falls monotonically yet its level rank never leaves
    the top band (< 5 s).
    """
    start = time.perf_counter()
    pairs = []
    for corpus_slice in parse_corpus(takeover_corpus()):
        asn = aggregate(corpus_slice.trees)
        pairs.append((asn, hierarchy_levels(asn)))

    events = detect_emergent_heads(pairs, band=10, min_gain=5)
    assert [(e.key, e.century) for e in events] == [(KONNEN, 16)]
    assert events[0].prior_rank is None
    assert events[0].new_rank <= 10

    (trajectory,) = track([MOGEN], pairs)
    frequencies = [p.frequency for p in trajectory.points]
    assert all(a > b for a, b in zip(frequencies, frequencies[1:]))
    assert all(p.level_rank <= 10 for p in trajectory.points)
    assert all(p.is_head for p in trajectory.points)
    assert time.perf_counter() - start < 5.0


def test_criterion_09_analyze_is_byte_identical(tmp_path):
    """Running ``analyze`` twice with identical configuration and seed writes
    bundles whose file lists and file bytes match exactly.
    """
    source = tmp_path / "takeover.tb"
    source.write_text(takeover_corpus(), encoding="utf-8")
    args = ("analyze", str(source), "--seed", "7", "--replicates", "100")
    one, two = tmp_path / "one", tmp_path / "two"
    assert cli_main([*args, "--out", str(one)]) == 0
    assert cli_main([*args, "--out", str(two)]) == 0
    names_one = sorted(p.name for p in one.iterdir())
    names_two = sorted(p.name for p in two.iterdir())
    assert names_one == names_two
    for name in names_one:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_criterion_10_summarize_matches_brute_force_oracles():
    """Graph statistics agree with explicit BFS / triangle-counting oracles on
    200 random graphs with n <= 25: counts and diameter exactly, degree,
    clustering, path length, and LCC fraction to 1e-12 (< 10 s).
    """
    rng = np.random.default_rng(1025)
    start = time.perf_counter()
    for _ in range(200):
        asn = random_asn(rng, int(rng.integers(1, 26)), p=0.18)
        got = summarize(asn)
        want = summary_oracle(asn)
        assert got.node_count == want["node_count"]
        assert got.edge_count == want["edge_count"]
        assert got.component_count == want["component_count"]
        assert got.diameter == want["diameter"]
        for field in ("average_degree", "clustering",
                      "average_path_length", "lcc_fraction"):
            assert abs(getattr(got, field) - want[field]) <= 1e-12, field
    assert time.perf_counter() - start < 10.0
