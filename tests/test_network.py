"""Aggregation of dependency trees into weighted directed networks."""

import csv
import io
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asnkit import (
    GrammaticalRole,
    NodeKey,
    Token,
    aggregate,
    edge_csv,
    heads,
    parse_corpus,
    to_dot,
    to_graphml,
    validate_tree,
)
from oracles import make_asn, nkey, random_tree_heads, reverse

R = GrammaticalRole


def sentence(rows, sentence_id="s", century=14):
    """rows: (lemma, role, head) triples."""
    tokens = [
        Token(index=i, surface=lemma, lemma=lemma, role=role, head=head)
        for i, (lemma, role, head) in enumerate(rows, start=1)
    ]
    return validate_tree(tokens, sentence_id=sentence_id, century=century)


DOG = sentence([("der", R.ARTICLE, 2), ("hunt", R.NOUN, 3),
                ("louft", R.VERB, 0)], sentence_id="dog")
MAN = sentence([("der", R.ARTICLE, 2), ("man", R.NOUN, 3),
                ("louft", R.VERB, 0)], sentence_id="man")


class TestAggregate:
    def test_two_sentences_share_nodes_and_split_edges(self):
        asn = aggregate([DOG, MAN])
        assert asn.century == 14
        assert asn.node_count == 4  # der, hunt, man, louft
        assert asn.edge_count == 4
        v = nkey("louft", R.VERB)
        d = nkey("der", R.ARTICLE)
        h = nkey("hunt", R.NOUN)
        m = nkey("man", R.NOUN)
        assert asn.frequency == {v: 2, d: 2, h: 1, m: 1}
        weights = {e: data.weight for e, data in asn.edges.items()}
        assert weights == {(v, h): 1, (v, m): 1, (h, d): 1, (m, d): 1}
        assert asn.in_weight()[d] == 2
        assert asn.out_weight()[v] == 2

    def test_same_sentence_twice_doubles_weights(self):
        twin = sentence([("der", R.ARTICLE, 2), ("hunt", R.NOUN, 3),
                         ("louft", R.VERB, 0)], sentence_id="dog2")
        asn = aggregate([DOG, twin])
        for data in asn.edges.values():
            assert data.weight == 2
        assert asn.frequency[nkey("louft", R.VERB)] == 2

    def test_repeated_lemma_inside_one_sentence_merges(self):
        biter = sentence([("hunt", R.NOUN, 2), ("bizt", R.VERB, 0),
                          ("hunt", R.NOUN, 2)], sentence_id="bite")
        asn = aggregate([biter])
        assert asn.node_count == 2
        assert asn.frequency[nkey("hunt", R.NOUN)] == 2
        assert asn.edges[(nkey("bizt", R.VERB),
                          nkey("hunt", R.NOUN))].weight == 2

    def test_same_lemma_different_role_is_a_different_node(self):
        wit = sentence([("wil", R.MODAL_VERB, 0), ("wil", R.NOUN, 1)],
                       sentence_id="pun")
        asn = aggregate([wit])
        assert asn.node_count == 2

    def test_order_invariance(self):
        assert aggregate([DOG, MAN]) == aggregate([MAN, DOG])

    def test_weight_conservation(self):
        trees = [DOG, MAN,
                 sentence([("ez", R.PERSONAL_PRONOUN, 2),
                           ("regent", R.VERB, 0)], sentence_id="rain")]
        asn = aggregate(trees)
        assert asn.total_weight() == sum(len(t.tokens) - 1 for t in trees)

    def test_century_mismatch_rejected(self):
        late = sentence([("daz", R.ARTICLE, 2), ("kint", R.NOUN, 0)],
                        sentence_id="late", century=15)
        with pytest.raises(ValueError, match="centuries"):
            aggregate([DOG, late])
        with pytest.raises(ValueError, match="centuries"):
            aggregate([DOG], century=16)

    def test_empty_aggregate_keeps_explicit_century(self):
        asn = aggregate([], century=14)
        assert asn.century == 14 and asn.node_count == 0

    def test_rule_tags_collected_on_edges(self):
        text = ("# century = 14\n"
                "1\tder\tder\tAR\t2\t_\n"
                "2\thunt\thunt\tN\t3\t_\n"
                "3\tlouft\tlouft\tV\t0\t_\n")
        asn = aggregate(parse_corpus(text)[0].trees)
        data = asn.edges[(nkey("hunt", R.NOUN), nkey("der", R.ARTICLE))]
        assert data.rules == {"NP"}  # article hanging off a noun

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_tree_weight_matches_token_count(self, seed):
        rng = np.random.default_rng(seed)
        heads_vec = random_tree_heads(rng, int(rng.integers(1, 20)))
        tokens = [
            Token(index=i, surface=f"w{i}", lemma=f"w{i % 5}",
                  role=R.NOUN, head=h)
            for i, h in enumerate(heads_vec, start=1)
        ]
        tree = validate_tree(tokens, sentence_id="s", century=14)
        asn = aggregate([tree])
        assert asn.total_weight() == len(tokens) - 1
        assert sum(asn.frequency.values()) == len(tokens)


class TestHeads:
    def test_roots_of_a_chain(self):
        asn = make_asn([("a", "b", 3), ("b", "c", 1)])
        assert [k.lemma for k in heads(asn)] == ["a"]

    def test_cycle_has_no_heads(self):
        asn = make_asn([("a", "b", 1), ("b", "a", 1)])
        assert heads(asn) == []

    def test_sorted_by_out_weight_then_name(self):
        asn = make_asn([("big", "x", 5), ("small", "x", 1),
                        ("tied", "x", 1)])
        assert [k.lemma for k in heads(asn)] == ["big", "small", "tied"]

    def test_self_loop_is_an_in_neighbour(self):
        asn = make_asn([("a", "a", 1), ("a", "b", 1)])
        assert [k.lemma for k in heads(asn)] == []

    def test_isolated_node_is_a_head(self):
        asn = make_asn([("a", "b", 1)], isolated=["lone"])
        assert {k.lemma for k in heads(asn)} == {"a", "lone"}


class TestSubnetworkAndReverse:
    def test_reverse_twice_is_identity(self):
        asn = aggregate([DOG, MAN])
        assert reverse(reverse(asn)) == asn

    def test_reverse_swaps_weights(self):
        asn = make_asn([("a", "b", 3)])
        rev = reverse(asn)
        assert rev.edges[(nkey("b"), nkey("a"))].weight == 3
        assert rev.in_weight()[nkey("a")] == 3


class TestExports:
    def test_edge_csv_parses_back(self):
        asn = aggregate([DOG, MAN])
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
        tricky = sentence([('sa"ge', R.NOUN, 2), ("comma,lemma", R.VERB, 0)],
                          sentence_id="q")
        text = edge_csv(aggregate([tricky]))
        row = next(csv.reader(io.StringIO(text.splitlines()[-1])))
        assert row[1] == "comma,lemma" and row[3] == 'sa"ge'

    def test_dot_output_shape(self):
        asn = aggregate([DOG])
        dot = to_dot(asn, metadata={"century": 14})
        assert dot.startswith("// century=14\n")
        assert "digraph asn {" in dot
        assert '"V louft" -> "N hunt" [weight=1];' in dot
        assert dot.rstrip().endswith("}")

    def test_graphml_is_well_formed_and_complete(self):
        asn = aggregate([DOG, MAN])
        doc = minidom.parseString(to_graphml(asn, metadata={"seed": 1}))
        nodes = doc.getElementsByTagName("node")
        edges = doc.getElementsByTagName("edge")
        assert len(nodes) == 4 and len(edges) == 4
        assert "seed=1" in to_graphml(asn, metadata={"seed": 1})

    def test_deterministic_output_order(self):
        one = edge_csv(aggregate([DOG, MAN]))
        other = edge_csv(aggregate([MAN, DOG]))
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
        assert NodeKey(lemma="unbekannt", role=None) in asn.frequency
