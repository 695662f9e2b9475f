"""Treebank parsing, tree validation, and missing-annotation policies."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asnkit import (
    MISSING_LEMMAS,
    PHRASE_RULES,
    CorpusFormatError,
    CorpusSlice,
    GrammaticalRole,
    MissingPolicy,
    Token,
    TreeValidationError,
    audit_corpus,
    classify_phrase_rule,
    demo_corpus_path,
    filter_missing,
    filter_slice,
    load_corpus,
    parse_corpus,
    render_corpus,
    tree_depth,
    tree_violations,
    validate_tree,
)
from oracles import depth_of_heads, heads_form_tree, random_tree_heads

ALL_CODES = [
    "AD", "AJ", "AR", "AX", "CJ", "DM", "IV", "MV", "N", "PK",
    "PR", "PP", "PS", "PCPR", "PCPS", "RX", "RPO", "SC", "V",
]


def toks(heads, roles=None, lemmas=None):
    """Quick token list: default nouns w1..wn, explicit head vector."""
    out = []
    for i, head in enumerate(heads, start=1):
        role = roles[i - 1] if roles else GrammaticalRole.NOUN
        lemma = lemmas[i - 1] if lemmas else f"w{i}"
        out.append(
            Token(index=i, surface=lemma, lemma=lemma, role=role, head=head)
        )
    return out


class TestRoles:
    def test_all_nineteen_codes_round_trip(self):
        assert len(ALL_CODES) == 19
        assert len(GrammaticalRole) == 19
        for code in ALL_CODES:
            assert GrammaticalRole.from_code(code).code == code

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown grammatical role"):
            GrammaticalRole.from_code("XX")

    def test_codes_are_exactly_the_closed_set(self):
        assert sorted(r.code for r in GrammaticalRole) == sorted(ALL_CODES)


class TestPhraseRules:
    def test_nominal_heads(self):
        for code in ("N", "PP", "PS", "DM", "RX", "RPO"):
            assert classify_phrase_rule(GrammaticalRole.from_code(code)) == "NP"

    def test_verbal_heads(self):
        for code in ("V", "IV", "MV", "AX", "PCPR", "PCPS"):
            assert classify_phrase_rule(GrammaticalRole.from_code(code)) == "VP"

    def test_prepositional_head(self):
        assert classify_phrase_rule(GrammaticalRole.PREPOSITION) == "PP"

    def test_everything_else(self):
        for code in ("AD", "AJ", "AR", "CJ", "PK", "SC"):
            assert classify_phrase_rule(GrammaticalRole.from_code(code)) == "OTHER"


class TestToken:
    def test_basic_fields(self):
        t = Token(index=2, surface="wirt", lemma="werden",
                  role=GrammaticalRole.AUXILIARY, head=0, rule="VP")
        assert t.head == 0 and t.rule == "VP" and not t.missing

    def test_self_head_rejected(self):
        with pytest.raises(ValueError):
            Token(index=1, surface="a", lemma="a",
                  role=GrammaticalRole.NOUN, head=1)

    def test_roleless_token_must_be_missing(self):
        with pytest.raises(ValueError):
            Token(index=1, surface="a", lemma="a", role=None, head=0)

    def test_missing_token_needs_sentinel_lemma(self):
        with pytest.raises(ValueError):
            Token(index=1, surface="a", lemma="a", role=None, head=0,
                  missing=True)
        t = Token(index=1, surface="!", lemma="!", role=None, head=0,
                  missing=True)
        assert t.missing and t.role is None

    def test_bad_rule_rejected(self):
        with pytest.raises(ValueError):
            Token(index=1, surface="a", lemma="a",
                  role=GrammaticalRole.NOUN, head=0, rule="XP")


class TestTreeViolations:
    def test_valid_chain(self):
        assert tree_violations(toks([0, 1, 1])) == []

    def test_multiple_roots(self):
        found = tree_violations(toks([0, 0, 1]))
        assert [v.constraint for v in found] == ["multiple roots"]
        assert found[0].token_index == 2

    def test_rootless_cycle(self):
        found = tree_violations(toks([2, 3, 2]))
        constraints = sorted(v.constraint for v in found)
        assert constraints == ["head cycle", "no root"]
        cycle = next(v for v in found if v.constraint == "head cycle")
        assert cycle.token_index == 2  # smallest index on the cycle

    def test_head_out_of_range(self):
        found = tree_violations(toks([0, 5, 1]))
        assert [v.constraint for v in found] == ["head out of range"]
        assert found[0].token_index == 2

    def test_every_problem_reported_at_once(self):
        found = tree_violations(toks([0, 0, 9, 5, 4]))
        constraints = sorted(v.constraint for v in found)
        assert constraints == ["head cycle", "head out of range",
                               "multiple roots"]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force_on_arbitrary_head_vectors(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        heads = [
            data.draw(st.integers(min_value=0, max_value=n))
            for _ in range(n)
        ]
        # Self-heads are rejected at the Token level, not the tree level.
        heads = [0 if h == i + 1 else h for i, h in enumerate(heads)]
        assert (tree_violations(toks(heads)) == []) == heads_form_tree(heads)


class TestValidateAndDepth:
    def test_validate_returns_tree(self):
        tree = validate_tree(toks([2, 0, 2]), sentence_id="s1", century=14)
        assert tree.root.index == 2
        assert tree.children()[2] == [1, 3]

    def test_violations_raise_with_sentence_id(self):
        with pytest.raises(TreeValidationError, match="s9"):
            validate_tree(toks([0, 0]), sentence_id="s9", century=14)

    def test_non_contiguous_indices_rejected(self):
        bad = toks([0, 1])
        bad = [bad[0], Token(index=3, surface="x", lemma="x",
                             role=GrammaticalRole.NOUN, head=1)]
        with pytest.raises(ValueError, match="contiguous"):
            validate_tree(bad, sentence_id="s1", century=14)

    def test_flight_sentence_depth(self):
        # "I prefer the morning flight to Denver" — depth 3 via
        # prefer -> flight -> Denver -> to.
        roles = [GrammaticalRole.from_code(c)
                 for c in ("PP", "V", "AR", "N", "N", "PR", "N")]
        lemmas = ["I", "prefer", "the", "morning", "flight", "to", "Denver"]
        tree = validate_tree(
            toks([2, 0, 5, 5, 2, 7, 5], roles=roles, lemmas=lemmas),
            sentence_id="flight", century=14,
        )
        assert tree_depth(tree) == 3

    def test_single_token_tree_depth_zero(self):
        tree = validate_tree(toks([0]), sentence_id="s1", century=14)
        assert tree_depth(tree) == 0

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_random_trees_validate_and_match_oracle_depth(self, seed, n):
        rng = np.random.default_rng(seed)
        heads = random_tree_heads(rng, n)
        tree = validate_tree(toks(heads), sentence_id="s", century=15)
        assert tree_depth(tree) == depth_of_heads(heads)


MINI = """\
# century = 14
# doc_id = docA
# target = werden
# sent_id = first
1\ter\ter\tPP\t2\t_
2\twirt\twerden\tAX\t0\t_
3\tgeborn\tgeborn\tPCPS\t2\t_

## a comment line, ignored
1\tdaz\tdaz\tAR\t2\tNP
2\tkint\tkint\tN\t0\t_
"""


class TestParsing:
    def test_mini_corpus_shape(self):
        slices = parse_corpus(MINI)
        assert len(slices) == 1
        s = slices[0]
        assert s.century == 14 and len(s.trees) == 2
        assert s.trees[0].sentence_id == "first"
        assert s.trees[1].sentence_id == "docA:1"
        assert s.trees[0].target_lemma == "werden"

    def test_rules_resolved_from_head_role(self):
        first, second = parse_corpus(MINI)[0].trees
        # er and geborn hang off the auxiliary -> VP; the root gets OTHER.
        assert [t.rule for t in first.tokens] == ["VP", "OTHER", "VP"]
        # explicit rule is kept verbatim; computed root rule is OTHER.
        assert [t.rule for t in second.tokens] == ["NP", "OTHER"]

    def test_accepts_bytes_and_file_objects(self):
        assert parse_corpus(MINI.encode()) == parse_corpus(io.StringIO(MINI))

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085", "\x0c"])
    def test_only_newline_ends_a_line(self, separator, tmp_path):
        lemma = f"ab{separator}c"
        text = MINI + f"\n# century = 12\n1\t{lemma}\t{lemma}\tN\t0\t_\n"
        path = tmp_path / "t.tb"
        path.write_text(text, encoding="utf-8", newline="")
        loaded = load_corpus(path)
        assert loaded[0].trees[0].tokens[0].lemma == lemma
        assert parse_corpus(text.replace("\n", "\r\n")) == parse_corpus(text)

    def test_centuries_sorted_ascending(self):
        text = MINI + "\n# century = 12\n1\tdaz\tdaz\tAR\t0\t_\n"
        slices = parse_corpus(text)
        assert [s.century for s in slices] == [12, 14]

    def test_sentence_before_century_header(self):
        with pytest.raises(CorpusFormatError, match="century"):
            parse_corpus("1\ta\ta\tN\t0\t_\n")

    def test_header_inside_sentence(self):
        text = "# century = 14\n1\ta\ta\tN\t0\t_\n# doc_id = x\n"
        with pytest.raises(CorpusFormatError, match="inside a sentence"):
            parse_corpus(text)

    def test_unknown_header_key(self):
        with pytest.raises(CorpusFormatError, match="unknown header key"):
            parse_corpus("# century = 14\n# speaker = anon\n")

    def test_malformed_header(self):
        with pytest.raises(CorpusFormatError, match="malformed header"):
            parse_corpus("# century fourteen\n")

    def test_non_integer_century(self):
        with pytest.raises(CorpusFormatError, match="century must be"):
            parse_corpus("# century = high\n")

    def test_wrong_column_count(self):
        with pytest.raises(CorpusFormatError, match="6 tab-separated"):
            parse_corpus("# century = 14\n1\ta\ta\tN\t0\n")

    def test_non_integer_head(self):
        with pytest.raises(CorpusFormatError, match="head must be an integer"):
            parse_corpus("# century = 14\n1\ta\ta\tN\tx\t_\n")

    def test_negative_head(self):
        with pytest.raises(CorpusFormatError, match="head must be >= 0"):
            parse_corpus("# century = 14\n1\ta\ta\tN\t-1\t_\n")

    def test_non_contiguous_index(self):
        text = "# century = 14\n1\ta\ta\tN\t0\t_\n3\tb\tb\tN\t1\t_\n"
        with pytest.raises(CorpusFormatError, match="not contiguous"):
            parse_corpus(text)

    def test_empty_lemma(self):
        with pytest.raises(CorpusFormatError, match="non-empty"):
            parse_corpus("# century = 14\n1\ta\t\tN\t0\t_\n")

    def test_role_underscore_requires_missing_lemma(self):
        with pytest.raises(CorpusFormatError, match="missing-annotation"):
            parse_corpus("# century = 14\n1\ta\ta\t_\t0\t_\n")
        slices = parse_corpus("# century = 14\n1\t!\t!\t_\t0\t_\n")
        token = slices[0].trees[0].tokens[0]
        assert token.missing and token.role is None

    def test_unknown_role_code(self):
        with pytest.raises(CorpusFormatError, match="unknown grammatical role"):
            parse_corpus("# century = 14\n1\ta\ta\tZZ\t0\t_\n")

    def test_bad_rule_column(self):
        with pytest.raises(CorpusFormatError, match="RULE must be"):
            parse_corpus("# century = 14\n1\ta\ta\tN\t0\tXP\n")

    def test_self_head(self):
        with pytest.raises(CorpusFormatError, match="points at itself"):
            parse_corpus("# century = 14\n1\ta\ta\tN\t1\t_\n")

    def test_invalid_tree_carries_sentence_id(self):
        text = ("# century = 14\n# sent_id = bad-one\n"
                "1\ta\ta\tN\t0\t_\n2\tb\tb\tN\t0\t_\n")
        with pytest.raises(TreeValidationError, match="bad-one"):
            parse_corpus(text)

    def test_duplicate_sentence_ids_rejected(self):
        block = "# sent_id = s1\n1\ta\ta\tN\t0\t_\n\n"
        with pytest.raises(CorpusFormatError, match="duplicate"):
            parse_corpus("# century = 14\n" + block + block)

    def test_error_message_carries_provenance_and_line(self):
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus("# century = 14\n1\ta\ta\tN\t0\n", provenance="f.tb")
        assert str(exc.value).startswith("f.tb:2:")


class TestAudit:
    def test_clean_corpus_has_no_issues(self):
        assert audit_corpus(MINI) == []

    def test_collects_tree_violations_without_stopping(self):
        text = (
            "# century = 14\n"
            "1\ta\ta\tN\t0\t_\n2\tb\tb\tN\t0\t_\n"  # two roots
            "\n"
            "1\tc\tc\tN\t2\t_\n2\td\td\tN\t1\t_\n"  # cycle, no root
            "\n"
            "1\te\te\tN\t0\t_\n"  # fine
        )
        issues = audit_corpus(text)
        assert len(issues) == 3
        assert {"multiple roots", "head cycle", "no root"} == {
            i.kind for i in issues
        }

    def test_structural_error_ends_audit(self):
        issues = audit_corpus("# century = 14\n1\ta\ta\tN\t0\n")
        assert len(issues) == 1
        assert issues[0].kind == "format error"


class TestMissingPolicies:
    def _tree(self, with_adjacent_missing):
        rows = [
            ("unbekannt", None, 2) if with_adjacent_missing else ("er", GrammaticalRole.PERSONAL_PRONOUN, 2),
            ("werden", GrammaticalRole.AUXILIARY, 0),
            ("!", None, 2),  # missing, but attached to the target's head slot
        ]
        # third token: attach far from target for the "distant" variant
        tokens = []
        for i, (lemma, role, head) in enumerate(rows, start=1):
            tokens.append(
                Token(index=i, surface=lemma, lemma=lemma, role=role,
                      head=head, missing=role is None)
            )
        return validate_tree(tokens, sentence_id="s", century=14,
                             target_lemma="werden")

    def test_keep_all_keeps_everything(self):
        tree = self._tree(True)
        decision = filter_missing(tree, MissingPolicy.KEEP_ALL)
        assert decision.keep

    def test_drop_any_drops_on_any_missing(self):
        tree = self._tree(True)
        assert not filter_missing(tree, MissingPolicy.DROP_ANY).keep
        clean = validate_tree(toks([0, 1]), sentence_id="c", century=14)
        assert filter_missing(clean, MissingPolicy.DROP_ANY).keep

    def test_drop_adjacent_drops_neighbor_of_target(self):
        tree = self._tree(True)
        decision = filter_missing(tree, MissingPolicy.DROP_ADJACENT_TO_TARGET)
        assert not decision.keep
        assert "adjacent" in decision.reason

    def test_drop_adjacent_keeps_distant_missing(self):
        # missing token hangs off a full verb, nowhere near the target
        tokens = [
            Token(index=1, surface="er", lemma="er",
                  role=GrammaticalRole.PERSONAL_PRONOUN, head=2),
            Token(index=2, surface="wil", lemma="werden",
                  role=GrammaticalRole.AUXILIARY, head=0),
            Token(index=3, surface="sehen", lemma="sehen",
                  role=GrammaticalRole.VERB, head=2),
            Token(index=4, surface="!", lemma="!", role=None, head=3,
                  missing=True),
        ]
        tree = validate_tree(tokens, sentence_id="s", century=14,
                             target_lemma="werden")
        decision = filter_missing(tree, MissingPolicy.DROP_ADJACENT_TO_TARGET)
        assert decision.keep

    def test_drop_adjacent_needs_target(self):
        tokens = [
            Token(index=1, surface="!", lemma="!", role=None, head=2,
                  missing=True),
            Token(index=2, surface="kint", lemma="kint",
                  role=GrammaticalRole.NOUN, head=0),
        ]
        tree = validate_tree(tokens, sentence_id="s", century=14)
        with pytest.raises(ValueError, match="target"):
            filter_missing(tree, MissingPolicy.DROP_ADJACENT_TO_TARGET)

    def test_policy_names_round_trip(self):
        for policy in MissingPolicy:
            assert MissingPolicy.from_name(policy.value) is policy
        with pytest.raises(ValueError):
            MissingPolicy.from_name("drop-sometimes")

    def test_filter_slice_reports_drops(self):
        slices = load_corpus([demo_corpus_path()])
        kept, dropped = filter_slice(slices[0],
                                     MissingPolicy.DROP_ADJACENT_TO_TARGET)
        assert len(kept.trees) + len(dropped) == len(slices[0].trees)
        assert dropped, "demo corpus plants one adjacent-missing sentence"
        for _tree, decision in dropped:
            assert not decision.keep


def _structure(slices):
    """Slice contents minus provenance, which naturally differs on reparse."""
    return [(s.century, s.trees) for s in slices]


class TestRoundTrip:
    def test_render_parse_fixed_point(self):
        slices = load_corpus([demo_corpus_path()])
        text = render_corpus(slices)
        reparsed = parse_corpus(text)
        assert _structure(reparsed) == _structure(slices)
        assert render_corpus(reparsed) == text

    def test_render_is_canonical_for_mini(self):
        slices = parse_corpus(MINI)
        text = render_corpus(slices)
        assert _structure(parse_corpus(text)) == _structure(slices)
        # canonical text is a fixed point even though MINI itself is not
        assert render_corpus(parse_corpus(text)) == text


# Any Unicode but what the format cannot carry: a tab or "\n" inside a
# field, and (in headers) surrounding whitespace, which the parser strips.
_FIELD_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n")
_LEMMAS = st.one_of(st.sampled_from(sorted(MISSING_LEMMAS)),
                    st.text(_FIELD_CHARS, min_size=1))
_HEADER_VALUES = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n")
).filter(lambda v: v == v.strip())


@st.composite
def treebanks(draw):
    """Treebank text with arbitrary lemmas and header values, and the
    (headers, lemmas) each sentence should parse to, in file order.

    Centuries never decrease, so parsing keeps the sentences in file order.
    """
    lines, expected = [], []
    meta = {"century": None, "doc_id": "", "dialect": None, "target": None}
    century = draw(st.integers(min_value=-20, max_value=20))
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        if i == 0 or draw(st.booleans()):
            century += draw(st.integers(min_value=0, max_value=2))
            lines.append(f"# century = {century}")
            meta["century"] = century
        for key in ("doc_id", "dialect", "target"):
            if draw(st.booleans()):
                meta[key] = draw(_HEADER_VALUES)
                lines.append(f"# {key} = {meta[key]}")
        sent_id = f"{i}:{draw(_HEADER_VALUES)}"
        lines.append(f"# sent_id = {sent_id}")
        lemmas = draw(st.lists(_LEMMAS, min_size=1, max_size=4))
        for index, lemma in enumerate(lemmas, start=1):
            surface = draw(st.text(_FIELD_CHARS, min_size=1))
            missing = lemma in MISSING_LEMMAS
            role = draw(st.sampled_from(ALL_CODES + ["_"] * missing))
            head = 0
            if index > 1:
                head = draw(st.integers(min_value=1, max_value=index - 1))
            rule = draw(st.sampled_from(("_",) + PHRASE_RULES))
            lines.append(f"{index}\t{surface}\t{lemma}\t{role}\t{head}\t{rule}")
        lines.append("")
        expected.append((dict(meta, sent_id=sent_id), lemmas))
    return "\n".join(lines), expected


class TestRoundTripProperty:
    @given(treebanks())
    @settings(max_examples=300, deadline=None)
    def test_render_after_parse_keeps_every_field(self, case):
        text, expected = case
        slices = parse_corpus(text)
        trees = [tree for s in slices for tree in s.trees]
        assert [
            ({"century": t.century, "doc_id": t.doc_id, "dialect": t.dialect,
              "target": t.target_lemma, "sent_id": t.sentence_id},
             [tok.lemma for tok in t.tokens])
            for t in trees
        ] == expected
        rendered = render_corpus(slices)
        assert _structure(parse_corpus(rendered)) == _structure(slices)
        assert render_corpus(parse_corpus(rendered)) == rendered

    @pytest.mark.parametrize("lemma", ["a\tb", "a\nb", "\n", ""])
    def test_unwritable_lemma_is_rejected(self, lemma):
        token = Token(index=1, surface="w", lemma=lemma,
                      role=GrammaticalRole.NOUN, head=0)
        tree = validate_tree([token], sentence_id="s1", century=14)
        slices = [CorpusSlice(century=14, trees=(tree,))]
        with pytest.raises(ValueError, match="token 1: lemma .* cannot be written"):
            render_corpus(slices)

    @pytest.mark.parametrize("doc_id", ["a\nb", " a", "a\u2028"])
    def test_unwritable_header_value_is_rejected(self, doc_id):
        tree = validate_tree(toks([0]), sentence_id="s1", century=14, doc_id=doc_id)
        slices = [CorpusSlice(century=14, trees=(tree,))]
        with pytest.raises(ValueError, match="header doc_id = .* cannot be written"):
            render_corpus(slices)

    def test_header_that_would_need_clearing_is_rejected(self):
        # Grouping by century puts the 14th-century sentence, which set a
        # dialect, before the 15th-century one that had none: the rendered
        # file would hand that dialect on to it.
        slices = parse_corpus(
            "# century = 15\n# sent_id = a\n1\tx\tx\tN\t0\t_\n\n"
            "# century = 14\n# dialect = bair\n# sent_id = b\n1\ty\ty\tN\t0\t_\n"
        )
        with pytest.raises(ValueError, match="'a': dialect cannot be unset"):
            render_corpus(slices)
