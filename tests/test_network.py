"""Aggregation of dependency trees into weighted directed networks."""

import csv
import io
import logging
import re
from xml.dom import minidom
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asnkit import (
    MISSING_LEMMAS,
    PHRASE_RULES,
    Asn,
    GrammaticalRole,
    NodeKey,
    aggregate,
    edge_csv,
    hierarchy_levels,
    level_csv,
    to_dot,
    to_graphml,
    track,
)
from oracles import (
    edge_map,
    frequency_map,
    make_asn,
    nkey,
    parse_corpus,
    random_tree_heads,
    reference_aggregate,
    reference_edge_csv,
    reference_level_csv,
    reference_parse,
    reference_to_dot,
    reference_to_graphml,
    reverse,
    treebank,
)

R = GrammaticalRole


def trees(*texts):
    """The trees of the one slice the joined treebank ``texts`` parse to."""
    (corpus_slice,) = parse_corpus("".join(texts))
    return corpus_slice.trees


DOG = treebank([("der", R.ARTICLE, 2), ("hunt", R.NOUN, 3),
                ("louft", R.VERB, 0)], sent_id="dog")
MAN = treebank([("der", R.ARTICLE, 2), ("man", R.NOUN, 3),
                ("louft", R.VERB, 0)], sent_id="man")


class TestAggregate:
    def test_two_sentences_share_nodes_and_split_edges(self):
        asn = aggregate(trees(DOG, MAN))
        assert asn.century == 14
        assert asn.node_count == 4  # der, hunt, man, louft
        assert asn.edge_count == 4
        v = nkey("louft", R.VERB)
        d = nkey("der", R.ARTICLE)
        h = nkey("hunt", R.NOUN)
        m = nkey("man", R.NOUN)
        assert frequency_map(asn) == {v: 2, d: 2, h: 1, m: 1}
        weights = {e: weight for e, (weight, _rules) in edge_map(asn).items()}
        assert weights == {(v, h): 1, (v, m): 1, (h, d): 1, (m, d): 1}
        assert asn.in_weight()[asn.index[d]] == 2
        assert asn.out_weight()[asn.index[v]] == 2

    def test_same_sentence_twice_doubles_weights(self):
        twin = treebank([("der", R.ARTICLE, 2), ("hunt", R.NOUN, 3),
                         ("louft", R.VERB, 0)], sent_id="dog2")
        asn = aggregate(trees(DOG, twin))
        for weight, _rules in edge_map(asn).values():
            assert weight == 2
        assert frequency_map(asn)[nkey("louft", R.VERB)] == 2

    def test_repeated_lemma_inside_one_sentence_merges(self):
        biter = treebank([("hunt", R.NOUN, 2), ("bizt", R.VERB, 0),
                          ("hunt", R.NOUN, 2)], sent_id="bite")
        asn = aggregate(trees(biter))
        assert asn.node_count == 2
        assert frequency_map(asn)[nkey("hunt", R.NOUN)] == 2
        assert edge_map(asn)[(nkey("bizt", R.VERB),
                              nkey("hunt", R.NOUN))][0] == 2

    def test_same_lemma_different_role_is_a_different_node(self):
        wit = treebank([("wil", R.MODAL_VERB, 0), ("wil", R.NOUN, 1)],
                       sent_id="pun")
        asn = aggregate(trees(wit))
        assert asn.node_count == 2

    def test_order_invariance(self):
        assert aggregate(trees(DOG, MAN)) == aggregate(trees(MAN, DOG))

    def test_weight_conservation(self):
        rain = treebank([("ez", R.PERSONAL_PRONOUN, 2), ("regent", R.VERB, 0)],
                        sent_id="rain")
        asn = aggregate(trees(DOG, MAN, rain))
        assert asn.total_weight() == 2 + 2 + 1  # one unit per non-root token

    def test_empty_columns_give_no_century(self):
        asn = aggregate(trees(DOG).take([]))
        assert asn.century is None and asn.node_count == 0

    def test_rule_tags_collected_on_edges(self):
        text = ("# century = 14\n"
                "1\tder\tder\tAR\t2\t_\n"
                "2\thunt\thunt\tN\t3\t_\n"
                "3\tlouft\tlouft\tV\t0\t_\n")
        asn = aggregate(parse_corpus(text)[0].trees)
        _weight, rules = edge_map(asn)[(nkey("hunt", R.NOUN), nkey("der", R.ARTICLE))]
        assert rules == {"NP"}  # article hanging off a noun

    def test_logs_one_debug_line_per_network(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="asnkit.network"):
            aggregate(trees(DOG, MAN))
        assert [r.getMessage() for r in caplog.records] == [
            "century 14: 2 trees, 4 nodes, 4 edges, total weight 4"
        ]

    def test_record_rejects_unsorted_or_duplicate_edges(self):
        keys = (nkey("a"), nkey("b"))
        for src, dst in (([1, 0], [0, 1]), ([0, 0], [1, 1])):
            with pytest.raises(ValueError, match="sorted"):
                Asn(century=14, keys=keys, frequency=[1, 1], src=src, dst=dst,
                    weight=[1, 1], rules=[0, 0])

    @pytest.mark.parametrize("bad, message", [
        ({"frequency": [1]}, "frequency must align with keys"),
        ({"dst": [1, 0]}, "src, dst, weight and rules must have equal lengths"),
        ({"weight": []}, "src, dst, weight and rules must have equal lengths"),
        ({"rules": [0, 0]}, "src, dst, weight and rules must have equal lengths"),
    ], ids=["frequency", "dst", "weight", "rules"])
    def test_record_rejects_misaligned_arrays(self, bad, message):
        arrays = {"frequency": [1, 1], "src": [0], "dst": [1], "weight": [1],
                  "rules": [0]}
        with pytest.raises(ValueError, match=f"^{message}$"):
            Asn(century=14, keys=(nkey("a"), nkey("b")), **{**arrays, **bad})

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_tree_weight_matches_token_count(self, seed):
        rng = np.random.default_rng(seed)
        heads_vec = random_tree_heads(rng, int(rng.integers(1, 20)))
        rows = [(f"w{i % 5}", R.NOUN, h) for i, h in enumerate(heads_vec, start=1)]
        asn = aggregate(trees(treebank(rows)))
        assert asn.total_weight() == len(rows) - 1
        assert sum(frequency_map(asn).values()) == len(rows)


def tracked_heads(asn):
    """The lemmas of the nodes that ``track`` reports as heads, in key order."""
    trajectories = track(asn.keys, [(asn, hierarchy_levels(asn))])
    return [t.key.lemma for t in trajectories if t.points[0].is_head]


class TestHeads:
    def test_roots_of_a_chain(self):
        asn = make_asn([("a", "b", 3), ("b", "c", 1)], century=14)
        assert tracked_heads(asn) == ["a"]

    def test_cycle_has_no_heads(self):
        asn = make_asn([("a", "b", 1), ("b", "a", 1)], century=14)
        assert tracked_heads(asn) == []

    def test_self_loop_is_an_in_neighbour(self):
        asn = make_asn([("a", "a", 1), ("a", "b", 1)], century=14)
        assert tracked_heads(asn) == []

    def test_isolated_node_is_a_head(self):
        asn = make_asn([("a", "b", 1)], isolated=["lone"], century=14)
        assert set(tracked_heads(asn)) == {"a", "lone"}


class TestSubnetworkAndReverse:
    def test_reverse_twice_is_identity(self):
        asn = aggregate(trees(DOG, MAN))
        assert reverse(reverse(asn)) == asn

    def test_reverse_swaps_weights(self):
        asn = make_asn([("a", "b", 3)])
        rev = reverse(asn)
        assert edge_map(rev)[(nkey("b"), nkey("a"))][0] == 3
        assert rev.in_weight()[rev.index[nkey("a")]] == 3


class TestExports:
    def test_edge_csv_parses_back(self):
        asn = aggregate(trees(DOG, MAN))
        text = edge_csv(asn, metadata={"seed": 0})
        lines = text.splitlines()
        assert lines[0] == "# seed=0"
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert len(rows) == 4
        rebuilt = {
            (r["source_role"], r["source_lemma"],
             r["target_role"], r["target_lemma"]): int(r["weight"])
            for r in rows
        }
        assert rebuilt[("V", "louft", "N", "hunt")] == 1
        assert rebuilt[("N", "man", "AR", "der")] == 1

    def test_edge_csv_quotes_awkward_lemmas(self):
        tricky = treebank([('sa"ge', R.NOUN, 2), ("comma,lemma", R.VERB, 0)],
                          sent_id="q")
        text = edge_csv(aggregate(trees(tricky)))
        row = next(csv.reader(io.StringIO(text.splitlines()[-1])))
        assert row[1] == "comma,lemma" and row[3] == 'sa"ge'

    def test_dot_output_shape(self):
        asn = aggregate(trees(DOG))
        dot = to_dot(asn, metadata={"century": 14})
        assert dot.startswith("// century=14\n")
        assert "digraph asn {" in dot
        assert '"V louft" -> "N hunt" [weight=1];' in dot
        assert dot.rstrip().endswith("}")

    def test_graphml_is_well_formed_and_complete(self):
        asn = aggregate(trees(DOG, MAN))
        doc = minidom.parseString(to_graphml(asn, metadata={"seed": 1}))
        nodes = doc.getElementsByTagName("node")
        edges = doc.getElementsByTagName("edge")
        assert len(nodes) == 4 and len(edges) == 4
        assert "seed=1" in to_graphml(asn, metadata={"seed": 1})

    @pytest.mark.parametrize("writer", [edge_csv, to_dot])
    @pytest.mark.parametrize("value", ["a\nb", "a\rb"])
    def test_a_line_break_in_metadata_names_its_key(self, writer, value):
        with pytest.raises(ValueError, match="'note'"):
            writer(aggregate(trees(DOG)), metadata={"seed": 0, "note": value})

    @pytest.mark.parametrize("value", ["a--b", "a\x0cb", "a\nb", "\ud800"])
    def test_graphml_refuses_metadata_its_comment_cannot_hold(self, value):
        with pytest.raises(ValueError, match="'note'"):
            to_graphml(aggregate(trees(DOG)), metadata={"note": value})

    def test_graphml_comment_keeps_a_single_dash(self):
        text = to_graphml(aggregate(trees(DOG)), metadata={"note": "a-b-"})
        assert text.splitlines()[1] == "<!-- note=a-b- -->"
        ElementTree.fromstring(text)

    def test_deterministic_output_order(self):
        one = edge_csv(aggregate(trees(DOG, MAN)))
        other = edge_csv(aggregate(trees(MAN, DOG)))
        assert one == other


class TestNodeKey:
    def test_display_and_sort_key(self):
        key = nkey("werden", R.AUXILIARY)
        assert key.display() == "AX werden"
        assert key.sort_key == ("AX", "werden")

    def test_missing_role_renders_underscore(self):
        key = NodeKey(lemma="!", role=None)
        assert key.role_code == "_" and key.display() == "_ !"

    def test_missing_tokens_become_network_nodes(self):
        text = ("# century = 14\n"
                "1\tunbekannt\tunbekannt\t_\t2\t_\n"
                "2\tkumt\tkumen\tV\t0\t_\n")
        asn = aggregate(parse_corpus(text)[0].trees)
        assert NodeKey(lemma="unbekannt", role=None) in asn.keys


GRAPHML = "{http://graphml.graphdrawing.org/xmlns}"

#: Characters that every writer must escape or quote, plus a line separator
#: and a character outside the Basic Multilingual Plane.
AWKWARD = 'ab,"\\<>&\'\r\u2028\U0001F600'
ROLES = (R.NOUN, R.VERB, R.ARTICLE, None)


@st.composite
def treebanks(draw):
    """Treebank text of a few valid trees of one century over a small pool
    of awkward lemmas.

    The small pools make self-loops (one lemma and role heading itself) and
    edges that collect several rules common; ``None`` roles give sentinel
    tokens with missing annotation, and a ``_`` rule is resolved by the
    reader.
    """
    pool = draw(st.lists(st.text(AWKWARD, min_size=1, max_size=3),
                         min_size=1, max_size=4))
    texts = []
    for number in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, 7))
        parent = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, size)]
        position = draw(st.permutations(range(size)))
        head_of = [0] * size
        for label in range(size):
            if parent[label] >= 0:
                head_of[position[label]] = position[parent[label]] + 1
        rows = []
        for head in head_of:
            role = draw(st.sampled_from(ROLES))
            if role is None:
                lemma = draw(st.sampled_from(sorted(MISSING_LEMMAS)))
            else:
                lemma = draw(st.sampled_from(pool))
            rows.append((lemma, role, head, draw(st.sampled_from(("_",) + PHRASE_RULES))))
        texts.append(treebank(rows, sent_id=f"s{number}"))
    return "".join(texts)


class TestArrayCoreMatchesReference:
    """The array record and its writers against the dict-based reference."""

    @given(treebanks())
    @settings(max_examples=150, deadline=None)
    def test_writers_and_weights_match(self, text):
        asn = aggregate(trees(text))
        (ref_slice,) = reference_parse([(text, "<input>")])
        ref = reference_aggregate(ref_slice.trees)
        meta = {"century": 14, "seed": 3}
        assert edge_csv(asn, metadata=meta) == reference_edge_csv(ref, meta)
        assert to_dot(asn, metadata=meta) == reference_to_dot(ref, meta)
        assert to_graphml(asn, metadata=meta) == reference_to_graphml(ref, meta)
        levels = hierarchy_levels(asn)
        forward = dict(zip(asn.keys, levels.forward.tolist()))
        backward = dict(zip(asn.keys, levels.backward.tolist()))
        assert level_csv(asn, levels, metadata=meta) == reference_level_csv(
            ref, forward, backward, meta
        )
        assert frequency_map(asn) == ref.frequency
        assert edge_map(asn) == {
            edge: (data.weight, data.rules) for edge, data in ref.edges.items()
        }
        assert dict(zip(asn.keys, asn.in_weight().tolist())) == ref.in_weight()
        assert dict(zip(asn.keys, asn.out_weight().tolist())) == ref.out_weight()

    def test_edge_csv_row_survives_a_carriage_return(self):
        tricky = treebank([("a\rb", R.NOUN, 2), ("c", R.NOUN, 0)], sent_id="cr")
        rows = list(csv.reader(io.StringIO(edge_csv(aggregate(trees(tricky))), newline="")))
        assert rows[1:] == [["N", "c", "N", "a\rb", "1"]]


class TestGraphmlRoundTrip:
    """GraphML keeps every lemma it writes, or refuses the lemma."""

    @given(treebanks())
    @example(treebank([("a\rb", R.NOUN, 2), ("c", R.NOUN, 0)], sent_id="cr"))
    @settings(max_examples=100, deadline=None)
    def test_element_tree_reads_back_every_key_and_edge(self, text):
        asn = aggregate(trees(text))
        graph = ElementTree.fromstring(to_graphml(asn)).find(f"{GRAPHML}graph")
        nodes = {}
        for node in graph.iter(f"{GRAPHML}node"):
            data = {d.get("key"): d.text for d in node.iter(f"{GRAPHML}data")}
            nodes[node.get("id")] = (data["d1"], data["d0"])
        assert list(nodes) == [key.display() for key in asn.keys]
        assert list(nodes.values()) == [key.sort_key for key in asn.keys]
        edges = [(e.get("source"), e.get("target"))
                 for e in graph.iter(f"{GRAPHML}edge")]
        assert edges == [(asn.keys[u].display(), asn.keys[v].display())
                         for u, v in zip(asn.src.tolist(), asn.dst.tolist())]

    @pytest.mark.parametrize("char", ["\x0c", "\x00", "\ud800", "\ufffe"])
    def test_a_character_xml_cannot_carry_names_its_node(self, char):
        tricky = treebank([(f"a{char}b", R.NOUN, 2), ("c", R.NOUN, 0)],
                          sent_id="ff")
        with pytest.raises(ValueError, match=re.escape(repr(f"N a{char}b"))):
            to_graphml(aggregate(trees(tricky)))
