"""Treebank parsing, tree validation, and missing-annotation policies.

Every corpus here is treebank text, read by the reader production uses.
"""

import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asnkit.corpus
from asnkit import (
    MISSING_LEMMAS,
    PHRASE_RULES,
    CorpusFormatError,
    CorpusSlice,
    FilterDecision,
    GrammaticalRole,
    MissingPolicy,
    TreeValidationError,
    aggregate,
    audit_corpus,
    demo_corpus_path,
    filter_slice,
    load_corpus,
)
from asnkit.cli import main as cli_main
from oracles import (
    MUTATIONS,
    columns_of,
    depth_of_heads,
    edge_map,
    frequency_map,
    heads_form_tree,
    mutated_treebanks,
    noisy_treebanks,
    nouns,
    parse_corpus,
    random_tree_heads,
    reference_aggregate,
    reference_audit,
    reference_columns,
    reference_filter_slice,
    reference_parse,
    reference_tree_violations,
    treebank,
)

R = GrammaticalRole

ALL_CODES = [
    "AD", "AJ", "AR", "AX", "CJ", "DM", "IV", "MV", "N", "PK",
    "PR", "PP", "PS", "PCPR", "PCPS", "RX", "RPO", "SC", "V",
]


def parsed(slices):
    """Each slice's century and columns."""
    return [(s.century, columns_of(s.trees)) for s in slices]


def columns(text):
    """The columns of the one slice ``text`` parses to."""
    (corpus_slice,) = parse_corpus(text)
    return columns_of(corpus_slice.trees)


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


def resolved(code):
    """The rules of a root of role ``code`` (``_``: no role) and of a noun
    under it, both written ``_``."""
    role = None if code == "_" else R.from_code(code)
    rows = [("!" if role is None else "h", role, 0), ("d", R.NOUN, 1)]
    return tuple(columns(treebank(rows))["rule"])


class TestPhraseRules:
    """How the reader resolves a ``_`` RULE from the role of the head; the
    root has no head and resolves to ``OTHER``."""

    def test_nominal_heads(self):
        for code in ("N", "PP", "PS", "DM", "RX", "RPO"):
            assert resolved(code) == ("OTHER", "NP"), code

    def test_verbal_heads(self):
        for code in ("V", "IV", "MV", "AX", "PCPR", "PCPS"):
            assert resolved(code) == ("OTHER", "VP"), code

    def test_prepositional_head(self):
        assert resolved("PR") == ("OTHER", "PP")

    def test_everything_else(self):
        for code in ("AD", "AJ", "AR", "CJ", "PK", "SC"):
            assert resolved(code) == ("OTHER", "OTHER"), code

    def test_a_head_without_a_role_resolves_other(self):
        assert resolved("_") == ("OTHER", "OTHER")


def token_error(line):
    """What ``parse_corpus`` raises for a one-token sentence ``line``, and
    what the audit lists for it."""
    text = f"# century = 14\n# sent_id = s1\n{line}\n"
    with pytest.raises(CorpusFormatError) as info:
        parse_corpus(text, provenance="f.tb")
    return str(info.value), [str(i) for i in audit_corpus([(text, "f.tb")])]


class TestToken:
    """The rules one token line keeps on its own, read by the reader."""

    def test_basic_fields(self):
        got = columns("# century = 14\n1\ter\ter\tPP\t2\t_\n2\twirt\twerden\tAX\t0\tVP\n")
        assert {k: got[k] for k in ("lemma", "role", "head", "rule", "missing",
                                    "line")} == {
            "lemma": ["er", "werden"], "role": ["PP", "AX"],
            "head": [2, 0], "rule": ["VP", "VP"], "missing": [False, False],
            "line": [2, 3],
        }

    def test_surface_forms_are_not_kept(self):
        # SURFACE is checked, but no stage reads it, so only lemmas (and
        # target lemmas) enter the shared string table.
        (corpus_slice,) = parse_corpus("# century = 14\n1\ter\ter\tPP\t2\t_\n"
                                       "2\twirt\twerden\tAX\t0\tVP\n")
        assert "werden" in corpus_slice.trees.strings
        assert "wirt" not in corpus_slice.trees.strings

    def test_self_head_rejected(self):
        assert token_error("1\ta\ta\tN\t1\t_") == (
            "f.tb:3: token 1 points at itself as head",
            ["f.tb:3: sentence 's1' malformed token: token 1 points at itself as head"])
        # A self-head spoils only its sentence: the audit reads on.
        text = ("# century = 14\n# sent_id = s1\n1\ta\ta\tN\t0\t_\n2\tb\tb\tN\t2\t_\n\n"
                "# sent_id = s2\n1\tc\tc\tN\t0\t_\n2\td\td\tN\t0\t_\n")
        issues = audit_corpus([(text, "f.tb")])
        assert [(i.line, i.sentence_id, i.kind) for i in issues] == [
            (4, "s1", "malformed token"), (7, "s2", "multiple roots")]

    @pytest.mark.parametrize("lemma", ["a", "!!", "Unbekannt", "unbekannt "])
    def test_roleless_token_must_be_missing(self, lemma):
        message = "ROLE '_' is only allowed for missing-annotation lemmas"
        assert token_error(f"1\t!\t{lemma}\t_\t0\t_") == (
            f"f.tb:3: {message}", [f"f.tb:3: format error: {message}"])

    def test_missing_token_needs_sentinel_lemma(self):
        # ``missing`` follows the lemma alone, not the surface or the role.
        got = columns("# century = 14\n1\t!\ta\tN\t0\t_\n2\tx\t!\tN\t1\t_\n"
                      "3\tx\tunbekannt\t_\t1\t_\n")
        assert got["missing"] == [False, True, True]
        assert got["role"] == ["N", "N", "_"]
        assert set(got["lemma"][1:]) == set(MISSING_LEMMAS) == {"!", "unbekannt"}

    @pytest.mark.parametrize("rule", ["XP", "np", "NP ", "", "__"])
    def test_bad_rule_rejected(self, rule):
        message = f"RULE must be one of NP, VP, PP, OTHER or '_', got {rule!r}"
        assert token_error(f"1\ta\ta\tN\t0\t{rule}") == (
            f"f.tb:3: {message}", [f"f.tb:3: format error: {message}"])


def violations_of(heads):
    """The violations ``parse_corpus`` raises for a sentence of nouns with
    these heads, ``[]`` if it parses."""
    try:
        parse_corpus(treebank(nouns(heads)))
    except TreeValidationError as exc:
        return list(exc.violations)
    return []


class TestTreeViolations:
    def test_valid_chain(self):
        assert violations_of([0, 1, 1]) == []

    def test_multiple_roots(self):
        found = violations_of([0, 0, 1])
        assert [v.constraint for v in found] == ["multiple roots"]
        assert found[0].token_index == 2

    def test_rootless_cycle(self):
        found = violations_of([2, 3, 2])
        constraints = sorted(v.constraint for v in found)
        assert constraints == ["head cycle", "no root"]
        cycle = next(v for v in found if v.constraint == "head cycle")
        assert cycle.token_index == 2  # smallest index on the cycle

    def test_head_out_of_range(self):
        found = violations_of([0, 5, 1])
        assert [v.constraint for v in found] == ["head out of range"]
        assert found[0].token_index == 2

    def test_every_problem_reported_at_once(self):
        found = violations_of([0, 0, 9, 5, 4])
        constraints = sorted(v.constraint for v in found)
        assert constraints == ["head cycle", "head out of range",
                               "multiple roots"]

    def test_messages_match_the_reference_on_every_small_head_vector(self):
        checked = 0
        for n in range(1, 5):
            for heads in itertools.product(range(n + 2), repeat=n):
                # A self-head is a malformed token, not a tree violation.
                if all(h != i for i, h in enumerate(heads, start=1)):
                    assert violations_of(heads) == reference_tree_violations(heads)
                    checked += 1
        assert checked == 700

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force_on_arbitrary_head_vectors(self, n, seed, cycles):
        rng = np.random.default_rng(seed)
        heads = rng.integers(0, n + 2, size=n).tolist()
        # Plant cycles on disjoint runs of a shuffle of the tokens.
        order = (rng.permutation(n) + 1).tolist()
        for length in rng.integers(2, 7, size=cycles).tolist():
            cycle, order = order[:length], order[length:]
            for k, token in enumerate(cycle):
                heads[token - 1] = cycle[(k + 1) % len(cycle)]
        # A self-head is a malformed token, not a tree violation.
        heads = [0 if h == i + 1 else h for i, h in enumerate(heads)]
        found = violations_of(heads)
        assert found == reference_tree_violations(heads)
        assert (found == []) == heads_form_tree(heads)


class TestValidateAndDepth:
    def test_validate_returns_tree(self):
        assert columns(treebank(nouns([2, 0, 2]), sent_id="s1")) == {
            "sentence_id": ["s1"], "century": [14], "target": [None],
            "length": [3], "depth": [1], "line": [3, 4, 5],
            "lemma": ["w1", "w2", "w3"], "role": ["N", "N", "N"], "head": [2, 0, 2],
            "rule": ["NP", "OTHER", "NP"], "missing": [False, False, False],
        }

    def test_violations_raise_with_sentence_id(self):
        with pytest.raises(TreeValidationError, match="s9"):
            parse_corpus(treebank(nouns([0, 0]), sent_id="s9"))

    def test_flight_sentence_depth(self):
        # "I prefer the morning flight to Denver" — depth 3 via
        # prefer -> flight -> Denver -> to.
        roles = [R.from_code(c) for c in ("PP", "V", "AR", "N", "N", "PR", "N")]
        lemmas = ["I", "prefer", "the", "morning", "flight", "to", "Denver"]
        rows = list(zip(lemmas, roles, [2, 0, 5, 5, 2, 7, 5]))
        assert columns(treebank(rows, sent_id="flight"))["depth"] == [3]

    @pytest.mark.parametrize("indices, bad", [
        ([2], 0), ([0, 1], 0), ([1, 3], 1), ([1, 1], 1), ([1, 2, 4, 3], 2),
    ])
    def test_non_contiguous_indices_rejected(self, indices, bad):
        rows = [f"{k}\tw\tw\tN\t{0 if k == 1 else 1}\t_" for k in indices]
        text = "# century = 14\n# sent_id = s1\n" + "\n".join(rows) + "\n"
        message = (f"f.tb:{3 + bad}: token index {indices[bad]} is not contiguous "
                   f"(expected {bad + 1})")
        with pytest.raises(CorpusFormatError) as info:
            parse_corpus(text, provenance="f.tb")
        assert str(info.value) == message
        assert [str(i) for i in audit_corpus([(text, "f.tb")])] == [
            message.replace(": token", ": format error: token", 1)]

    def test_single_token_tree_depth_zero(self):
        assert columns(treebank(nouns([0])))["depth"] == [0]

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_random_trees_validate_and_match_oracle_depth(self, seed, n):
        rng = np.random.default_rng(seed)
        heads = random_tree_heads(rng, n)
        assert columns(treebank(nouns(heads), century=15))["depth"] == [
            depth_of_heads(heads)]

    def test_column_depths_match_the_oracle(self):
        rng = np.random.default_rng(12)
        heads = [random_tree_heads(rng, int(rng.integers(1, 40))) for _ in range(60)]
        text = "".join(treebank(nouns(h), sent_id=f"s{i}", century=15)
                       for i, h in enumerate(heads))
        assert columns(text)["depth"] == [depth_of_heads(h) for h in heads]

    def test_a_long_chain_takes_many_jumping_rounds(self):
        chain = list(range(1500))  # token i + 1 hangs off token i
        (parsed_slice,) = parse_corpus(treebank(nouns(chain), sent_id="chain", century=15))
        assert parsed_slice.trees.depth.tolist() == [depth_of_heads(chain)] == [1499]
        assert int(parsed_slice.trees.depth.max()) == 1499


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


# INDEX, HEAD and the century header are ASCII ``-?[0-9]+``; ``int`` alone
# would read each of these.
NON_FORMAT_INTEGERS = [
    ("# doc_id = d\n# century = \u0661\u0664\n",
     "century must be an integer, got '\u0661\u0664'"),
    ("# century = 14\n1_0\ta\ta\tN\t0\t_\n",
     "token index must be an integer, got '1_0'"),
    ("# century = 14\n 1\ta\ta\tN\t0\t_\n",
     "token index must be an integer, got ' 1'"),
    ("# century = 14\n1\ta\ta\tN\t+0\t_\n",
     "head must be an integer, got '+0'"),
]


class TestParsing:
    def test_mini_corpus_shape(self):
        slices = parse_corpus(MINI)
        assert len(slices) == 1
        s = slices[0]
        assert s.century == 14 and len(s.trees) == 2
        got = columns_of(s.trees)
        assert got["sentence_id"] == ["first", "docA:1"]
        assert got["target"] == ["werden", "werden"]

    def test_rules_resolved_from_head_role(self):
        # er and geborn hang off the auxiliary -> VP; the root gets OTHER.
        # In the second sentence the explicit rule is kept verbatim.
        assert columns(MINI)["rule"] == ["VP", "OTHER", "VP", "NP", "OTHER"]

    def test_accepts_bytes_and_strings(self):
        assert parsed(parse_corpus(MINI.encode())) == parsed(parse_corpus(MINI))

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085", "\x0c"])
    def test_only_newline_ends_a_line(self, separator, tmp_path):
        lemma = f"ab{separator}c"
        text = MINI + f"\n# century = 12\n1\t{lemma}\t{lemma}\tN\t0\t_\n"
        path = tmp_path / "t.tb"
        path.write_text(text, encoding="utf-8", newline="")
        loaded = load_corpus(path)
        assert columns_of(loaded[0].trees)["lemma"] == [lemma]
        assert parsed(parse_corpus(text.replace("\n", "\r\n"))) == parsed(parse_corpus(text))

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

    @pytest.mark.parametrize("value", [" a ", "a ", "a\t"])
    def test_header_values_are_stripped(self, value):
        # The doc_id shows in the generated id of the second sentence.
        text = (f"# century = 14\n# doc_id ={value}\n# sent_id = {value}\n"
                "1\tx\tx\tN\t0\t_\n\n1\ty\ty\tN\t0\t_\n")
        got = columns(text)
        assert got["sentence_id"] == ["a", "a:1"]

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

    @pytest.mark.parametrize("text, message", NON_FORMAT_INTEGERS)
    def test_integers_are_ascii_digits_only(self, text, message):
        with pytest.raises(CorpusFormatError) as info:
            parse_corpus(text, provenance="f.tb")
        assert str(info.value) == f"f.tb:2: {message}"
        assert [str(i) for i in audit_corpus([(text, "f.tb")])] == [
            f"f.tb:2: format error: {message}"
        ]

    def test_role_underscore_requires_missing_lemma(self):
        with pytest.raises(CorpusFormatError, match="missing-annotation"):
            parse_corpus("# century = 14\n1\ta\ta\t_\t0\t_\n")
        got = columns("# century = 14\n1\t!\t!\t_\t0\t_\n")
        assert got["missing"] == [True] and got["role"] == ["_"]

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

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        data = b"# century = 14\n# sent_id = s1\n1\ta\ta\xff\tN\t0\t_\n"
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus(data, provenance="f.tb")
        assert str(exc.value) == "f.tb:3: not UTF-8: byte 0xff (invalid start byte)"
        path = tmp_path / "bad.tb"
        path.write_bytes(data)
        with pytest.raises(CorpusFormatError, match=r"bad\.tb:3: not UTF-8"):
            load_corpus(path)

    def test_leading_byte_order_mark_is_accepted(self, tmp_path):
        path = tmp_path / "bom.tb"
        path.write_bytes(b"\xef\xbb\xbf" + MINI.encode())
        assert columns_of(load_corpus(path)[0].trees) == columns(MINI)
        assert parsed(parse_corpus("\ufeff" + MINI)) == parsed(parse_corpus(MINI))
        assert audit_corpus([(path.read_bytes(), "<input>")]) == []

    def test_duplicate_across_files_names_its_line(self, tmp_path):
        block = "# century = 14\n# sent_id = s1\n1\ta\ta\tN\t0\t_\n"
        first, second = tmp_path / "d1.tb", tmp_path / "d2.tb"
        first.write_text(block, encoding="utf-8")
        second.write_text("## note\n" + block, encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus([first, second])
        assert str(exc.value) == (
            f"{second}:4: duplicate sentence id 's1' in document '' "
            f"(also in {first})"
        )


    def test_generated_ids_number_on_across_files(self, tmp_path):
        block = "# century = 14\n1\ta\ta\tN\t0\t_\n"
        first, second = tmp_path / "d1.tb", tmp_path / "d2.tb"
        first.write_text(block, encoding="utf-8")
        second.write_text(block, encoding="utf-8")
        (corpus_slice,) = load_corpus([first, second])
        assert corpus_slice.trees.sentence_id.tolist() == [":1", ":2"]
        # An explicit id equal to a generated one is still a duplicate.
        second.write_text(block + "\n# sent_id = :1\n1\ta\ta\tN\t0\t_\n",
                          encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus([first, second])
        assert str(exc.value) == (
            f"{second}:5: duplicate sentence id ':1' in document '' "
            f"(also in {first})"
        )

    def test_sentences_after_a_bad_line_take_no_generated_id(self):
        # The second sentence holds the bad line; the third is never read.
        bad = "# century = 14\n1\ta\ta\tN\t0\t_\n\n1\ta\n\n1\ta\ta\tN\t0\t_\n"
        roots = "# century = 14\n1\ta\ta\tN\t0\t_\n2\tb\tb\tN\t0\t_\n"
        issues = audit_corpus([(bad, "d1.tb"), (roots, "d2.tb")])
        assert [(i.provenance, i.sentence_id, i.kind) for i in issues] == [
            ("d1.tb", None, "format error"), ("d2.tb", ":3", "multiple roots")]


class TestAudit:
    def test_clean_corpus_has_no_issues(self):
        assert audit_corpus([(MINI, "<input>")]) == []

    def test_collects_tree_violations_without_stopping(self):
        text = (
            "# century = 14\n"
            "1\ta\ta\tN\t0\t_\n2\tb\tb\tN\t0\t_\n"  # two roots
            "\n"
            "1\tc\tc\tN\t2\t_\n2\td\td\tN\t1\t_\n"  # cycle, no root
            "\n"
            "1\te\te\tN\t0\t_\n"  # fine
        )
        issues = audit_corpus([(text, "<input>")])
        assert len(issues) == 3
        assert {"multiple roots", "head cycle", "no root"} == {
            i.kind for i in issues
        }

    def test_structural_error_ends_audit(self):
        issues = audit_corpus([("# century = 14\n1\ta\ta\tN\t0\n", "<input>")])
        assert len(issues) == 1
        assert issues[0].kind == "format error"

    def test_bytes_that_are_not_utf8_are_an_issue(self):
        issues = audit_corpus([(b"# century = 14\n\xff\n", "f.tb")])
        assert [str(i) for i in issues] == [
            "f.tb:2: format error: not UTF-8: byte 0xff (invalid start byte)"
        ]


class TestAuditAgreesWithParse:
    """One reader: the audit is clean exactly when parsing succeeds."""

    @given(noisy_treebanks())
    @settings(max_examples=400, deadline=None)
    @example(b"# century = 14\n1\ta\ta\rb\tN\t0\t_\n")
    @example("# century = 14\n1\ta\ta\u2028b\tN\t0\t_\r\n".encode())
    def test_audit_is_clean_exactly_when_parse_succeeds(self, data):
        try:
            parse_corpus(data)
        except (CorpusFormatError, TreeValidationError):
            parsed = False
        else:
            parsed = True
        assert (audit_corpus([(data, "<input>")]) == []) == parsed


def _bulk_read(sources, chunk_lines):
    """Slices (or the error), and audit issues, of the columnar reader, reading
    ``chunk_lines`` token lines at a time."""
    with mock.patch.object(asnkit.corpus, "_CHUNK_LINES", chunk_lines):
        issues = audit_corpus(sources)
        try:
            return asnkit.corpus._parse(sources), None, issues
        except (CorpusFormatError, TreeValidationError) as exc:
            return None, exc, issues


def _outcome(decide, *args):
    """What ``decide(*args)`` returns, or the text of the ``ValueError`` it raises."""
    try:
        return decide(*args)
    except ValueError as exc:
        return str(exc)


def filter_one(text, policy):
    """``filter_slice`` on the one-sentence slice of ``text``: ``None`` if
    the policy keeps the sentence, else the decision that drops it."""
    (corpus_slice,) = parse_corpus(text)
    kept, dropped = filter_slice(corpus_slice, policy)
    assert len(kept.trees) + len(dropped) == 1
    return dropped[0] if dropped else None


def _check_filter(corpus_slice, ref_trees, policy, each_tree=True):
    """``filter_slice`` keeps, drops and raises as the per-tree reference
    does on the reference reader's trees, on the slice and on each of its
    sentences alone."""
    want = _outcome(reference_filter_slice, ref_trees, policy)
    got = _outcome(filter_slice, corpus_slice, policy)
    if isinstance(got, tuple):
        kept, dropped = got
        assert kept.century == corpus_slice.century
        got = (columns_of(kept.trees), dropped)
    if isinstance(want, tuple):
        want = (reference_columns(want[0]), want[1])
    assert got == want
    for i, tree in enumerate(ref_trees if each_tree else ()):
        one = CorpusSlice(corpus_slice.century, corpus_slice.trees.take([i]))
        _check_filter(one, [tree], policy, each_tree=False)


class TestBulkReaderMatchesReference:
    """The columnar reader, filter and aggregation against the line-by-line
    reference reader (``tests/oracles.py``), the per-tree filter and the
    dict-based aggregation, on valid and mutated treebanks of one or two
    files; small chunks put sentences and errors in later chunks."""

    @staticmethod
    def check(files, chunk_lines):
        sources = [(data, f"f{i}.tb") for i, data in enumerate(files)]
        slices, error, issues = _bulk_read(sources, chunk_lines)
        try:
            want, want_error = reference_parse(sources), None
        except (CorpusFormatError, TreeValidationError) as exc:
            want, want_error = None, exc
        assert (type(error), str(error)) == (type(want_error), str(want_error))
        assert issues == reference_audit(sources)
        assert (None if slices is None else parsed(slices)) == (None if want is None else [
            (ref.century, reference_columns(ref.trees)) for ref in want])
        for got, ref in zip(slices or (), want or ()):
            asn, ref_asn = aggregate(got.trees), reference_aggregate(ref.trees)
            assert frequency_map(asn) == ref_asn.frequency
            assert edge_map(asn) == {
                edge: (data.weight, data.rules) for edge, data in ref_asn.edges.items()
            }
            # The columns equal the reference's at every chunk size (checked
            # above), so one chunk size covers the one-sentence slices.
            for policy in MissingPolicy:
                _check_filter(got, ref.trees, policy, each_tree=chunk_lines == 4096)

    @pytest.mark.parametrize("chunk_lines", [1, 3, 4096])
    @pytest.mark.parametrize("mutation", (None, *MUTATIONS))
    def test_seeded_mutations(self, mutation, chunk_lines):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            files = mutated_treebanks(rng, [mutation] if mutation else [])
            self.check(files, chunk_lines)

    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(MUTATIONS), max_size=3),
           st.sampled_from([1, 2, 5, 4096]))
    @settings(max_examples=120, deadline=None)
    def test_mutated_treebanks(self, seed, mutations, chunk_lines):
        files = mutated_treebanks(np.random.default_rng(seed), mutations)
        self.check(files, chunk_lines)

    @given(noisy_treebanks(), noisy_treebanks(), st.sampled_from([1, 4096]))
    @settings(max_examples=120, deadline=None)
    def test_noisy_treebanks(self, first, second, chunk_lines):
        self.check([first, second], chunk_lines)

    @pytest.mark.parametrize("line, message", [
        ("1\ta\ta\tN\t0\t_\n2\ta\ta\tN\t" + "9" * 25 + "\t_",
         "head " + "9" * 25 + " exceeds"),
        ("0" * 25 + "1\ta\ta\tN\t0\t_", None),
        ("9" * 25 + "\ta\ta\tN\t0\t_", "token index " + "9" * 25 + " is not"),
        ("1\ta\ta\tN\t-" + "9" * 25 + "\t_", "head must be >= 0, got -" + "9" * 25),
        ("-" + "9" * 25 + "\ta\ta\tN\t0\t_", "token index -" + "9" * 25 + " is not"),
    ])
    def test_integers_beyond_int64_keep_their_value(self, line, message):
        data = f"# century = 14\n{line}\n".encode()
        self.check([data], 4096)
        issues = audit_corpus([(data, "<input>")])
        expected = [message] if message else []
        assert [i.message[:len(message)] for i in issues] == expected

    @pytest.mark.parametrize("chunk_lines", [1, 4096])
    def test_text_with_a_lone_surrogate(self, chunk_lines):
        self.check(["# century = 14\n1\ta\ud800\ta\tN\t0\t_\n"], chunk_lines)

    def test_trees_are_columns_that_take_selects_from(self):
        trees = parse_corpus(MINI)[0].trees
        assert len(trees) == 2
        both, back = columns_of(trees), columns_of(trees.take([1, 0]))
        assert back["sentence_id"] == ["docA:1", "first"]
        assert back["lemma"] == both["lemma"][3:] + both["lemma"][:3]
        assert back["line"] == both["line"][3:] + both["line"][:3]
        assert len(trees.take([])) == 0

    def test_a_tree_of_another_century_is_refused(self):
        text = treebank(nouns([0]), sent_id="s1") + treebank(nouns([0]), sent_id="s2",
                                                             century=15)
        _, fifteen = parse_corpus(text)
        with pytest.raises(ValueError, match="^tree 's2' has century 15, slice has 14$"):
            CorpusSlice(century=14, trees=fifteen.trees)

    def test_trees_that_are_not_a_slice_s_columns_are_refused(self):
        with pytest.raises(TypeError, match=r"^trees must be the columns of a parsed "
                           r"slice \(CorpusSlice\.trees\), got tuple$"):
            CorpusSlice(century=14, trees=())


class TestMissingPolicies:
    def _text(self, with_adjacent_missing):
        first = (("unbekannt", None, 2) if with_adjacent_missing
                 else ("er", R.PERSONAL_PRONOUN, 2))
        # The third token is missing and hangs off the target.
        return treebank([first, ("werden", R.AUXILIARY, 0), ("!", None, 2)],
                        target="werden")

    def test_keep_all_keeps_everything(self):
        assert filter_one(self._text(True), MissingPolicy.KEEP_ALL) is None

    def test_drop_any_drops_on_any_missing(self):
        decision = filter_one(self._text(True), MissingPolicy.DROP_ANY)
        assert decision == FilterDecision("s", "tree contains 2 missing annotation(s)")
        clean = treebank(nouns([0, 1]), sent_id="c")
        assert filter_one(clean, MissingPolicy.DROP_ANY) is None

    def test_drop_adjacent_drops_neighbor_of_target(self):
        decision = filter_one(self._text(True), MissingPolicy.DROP_ADJACENT_TO_TARGET)
        assert decision == FilterDecision(
            "s", "missing neighbor of target: token 1 is adjacent to 'werden' at token 2")

    def test_drop_adjacent_keeps_distant_missing(self):
        # missing token hangs off a full verb, nowhere near the target
        text = treebank([("er", R.PERSONAL_PRONOUN, 2), ("werden", R.AUXILIARY, 0),
                         ("sehen", R.VERB, 2), ("!", None, 3)], target="werden")
        assert filter_one(text, MissingPolicy.DROP_ADJACENT_TO_TARGET) is None

    def test_drop_adjacent_needs_target(self):
        text = treebank([("!", None, 2), ("kint", R.NOUN, 0)])
        with pytest.raises(ValueError, match="target"):
            filter_one(text, MissingPolicy.DROP_ADJACENT_TO_TARGET)

    def test_policy_names_round_trip(self):
        for policy in MissingPolicy:
            assert MissingPolicy.from_name(policy.value) is policy
        with pytest.raises(ValueError):
            MissingPolicy.from_name("drop-sometimes")

    def test_policy_names_are_accepted_and_unknown_names_raise(self):
        texts = (self._text(True), treebank(nouns([0, 1]), sent_id="c"))
        corpus_slice = load_corpus([demo_corpus_path()])[0]

        def outcome(policy):
            kept, dropped = filter_slice(corpus_slice, policy)
            return columns_of(kept.trees), dropped

        for policy in MissingPolicy:
            for text in texts:
                assert filter_one(text, policy.value) == filter_one(text, policy)
            assert outcome(policy.value) == outcome(policy)
        for text in texts:
            with pytest.raises(ValueError, match="unknown missing policy 'adjacent'"):
                filter_one(text, "adjacent")
        with pytest.raises(ValueError, match="unknown missing policy 'adjacent'"):
            filter_slice(corpus_slice, "adjacent")

    def test_filter_slice_raises_for_the_first_unjudged_tree(self):
        ok = "# century = 14\n# sent_id = ok\n1\ta\ta\tN\t0\t_\n\n"
        no_target = "# sent_id = bare\n1\t!\t!\t_\t2\t_\n2\tb\tb\tN\t0\t_\n\n"
        absent = ("# target = zzz\n# sent_id = absent\n"
                  "1\t!\t!\t_\t2\t_\n2\tb\tb\tN\t0\t_\n")
        policy = MissingPolicy.DROP_ADJACENT_TO_TARGET
        for text, message in (
            (ok + no_target + absent,
             "sentence 'bare': policy 'drop-adjacent-to-target' needs a target lemma"),
            (ok + absent + "\n" + no_target,
             "sentence 'absent': target lemma 'zzz' does not occur"),
        ):
            (corpus_slice,) = parse_corpus(text)
            (ref,) = reference_parse([(text, "<input>")])
            with pytest.raises(ValueError, match=message):
                filter_slice(corpus_slice, policy)
            for each in MissingPolicy:
                _check_filter(corpus_slice, ref.trees, each)

    def test_filter_slice_reports_drops(self, tmp_path):
        assert cli_main(["analyze", demo_corpus_path(), "--replicates", "100",
                         "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        lines = []
        for corpus_slice in load_corpus([demo_corpus_path()]):
            kept, dropped = filter_slice(corpus_slice, MissingPolicy.DROP_ADJACENT_TO_TARGET)
            ids = corpus_slice.trees.sentence_id.tolist()
            gone = {d.sentence_id for d in dropped}
            assert len(gone) == len(dropped), "demo sentence ids are unique"
            assert [d.sentence_id for d in dropped] == [i for i in ids if i in gone]
            assert kept.trees.sentence_id.tolist() == [i for i in ids if i not in gone]
            lines += [f"century {corpus_slice.century} sentence {d.sentence_id!r}: "
                      f"{d.reason}" for d in dropped]
        assert lines, "demo corpus plants one adjacent-missing sentence a century"
        assert manifest["dropped_sentences"] == lines


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
    (kept headers, lemmas) each sentence should parse to, in file order.

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
        kept = {key: meta[key] for key in ("century", "target")}
        expected.append((dict(kept, sent_id=sent_id), lemmas))
    return "\n".join(lines), expected


class TestEveryField:
    @given(treebanks())
    @settings(max_examples=300, deadline=None)
    def test_parse_keeps_every_field(self, case):
        text, expected = case
        got = []
        for corpus_slice in parse_corpus(text):
            found = columns_of(corpus_slice.trees)
            lemmas = iter(found["lemma"])
            for i, length in enumerate(found["length"]):
                meta = {key: found[key][i] for key in ("century", "target")}
                got.append((dict(meta, sent_id=found["sentence_id"][i]),
                            [next(lemmas) for _ in range(length)]))
        assert got == expected
