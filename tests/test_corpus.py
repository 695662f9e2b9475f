"""Treebank parsing, tree validation, and missing-annotation policies."""

import io
import itertools
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
    DependencyTree,
    FilterDecision,
    GrammaticalRole,
    MissingPolicy,
    Token,
    TreeValidationError,
    aggregate,
    audit_corpus,
    classify_phrase_rule,
    demo_corpus_path,
    depth_vs_diameter,
    filter_slice,
    load_corpus,
    parse_corpus,
    render_corpus,
    summarize,
    tree_depth,
    tree_violations,
    validate_tree,
)
from oracles import (
    MUTATIONS,
    depth_of_heads,
    edge_map,
    frequency_map,
    heads_form_tree,
    mutated_treebanks,
    noisy_treebanks,
    random_tree_heads,
    reference_aggregate,
    reference_audit,
    reference_filter_slice,
    reference_parse,
    reference_tree_violations,
)

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

    def test_messages_match_the_reference_on_every_small_head_vector(self):
        for n in range(1, 5):
            for heads in itertools.product(range(n + 2), repeat=n):
                # Self-heads are rejected at the Token level, not the tree level.
                if all(h != i for i, h in enumerate(heads, start=1)):
                    tokens = toks(heads)
                    assert tree_violations(tokens) == reference_tree_violations(tokens)

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
        # Self-heads are rejected at the Token level, not the tree level.
        heads = [0 if h == i + 1 else h for i, h in enumerate(heads)]
        found = tree_violations(toks(heads))
        assert found == reference_tree_violations(toks(heads))
        assert (found == []) == heads_form_tree(heads)


class TestValidateAndDepth:
    def test_validate_returns_tree(self):
        tree = validate_tree(toks([2, 0, 2]), sentence_id="s1", century=14)
        assert tree == DependencyTree("s1", 14, tuple(toks([2, 0, 2])))

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

    def test_column_depths_match_the_oracle(self):
        rng = np.random.default_rng(12)
        heads = [random_tree_heads(rng, int(rng.integers(1, 40))) for _ in range(60)]
        built = CorpusSlice(century=15, trees=tuple(
            validate_tree(toks(h), sentence_id=f"s{i}", century=15)
            for i, h in enumerate(heads)
        ))
        parsed = parse_corpus(render_corpus([built]))[0]
        want = [depth_of_heads(h) for h in heads]
        assert built.trees.depth.tolist() == parsed.trees.depth.tolist() == want
        assert [tree_depth(t) for t in parsed.trees] == want

    def test_a_long_chain_takes_many_jumping_rounds(self):
        chain = list(range(1500))  # token i + 1 hangs off token i
        tree = validate_tree(toks(chain), sentence_id="chain", century=15)
        assert tree_depth(tree) == depth_of_heads(chain) == 1499
        (parsed,) = parse_corpus(render_corpus([CorpusSlice(15, (tree,))]))
        assert parsed.trees.depth.tolist() == [1499]
        summary = summarize(aggregate(parsed.trees))
        (row,) = depth_vs_diameter([parsed], {15: summary})
        assert row["max_tree_depth"] == 1499


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

    @pytest.mark.parametrize("text, message", NON_FORMAT_INTEGERS)
    def test_integers_are_ascii_digits_only(self, text, message):
        with pytest.raises(CorpusFormatError) as info:
            parse_corpus(text, provenance="f.tb")
        assert str(info.value) == f"f.tb:2: {message}"
        assert [str(i) for i in audit_corpus(text, provenance="f.tb")] == [
            f"f.tb:2: format error: {message}"
        ]

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
        assert load_corpus(path)[0].trees == parse_corpus(MINI)[0].trees
        assert parse_corpus("\ufeff" + MINI) == parse_corpus(MINI)
        assert audit_corpus(path.read_bytes()) == []

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

    def test_bytes_that_are_not_utf8_are_an_issue(self):
        issues = audit_corpus(b"# century = 14\n\xff\n", provenance="f.tb")
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
        assert (audit_corpus(data) == []) == parsed


def _bulk_read(sources, chunk_lines):
    """Slices (or the error), and audit issues, of the columnar reader, reading
    ``chunk_lines`` token lines at a time."""
    with mock.patch.object(asnkit.corpus, "_CHUNK_LINES", chunk_lines):
        issues = asnkit.corpus._issues(asnkit.corpus._sentences(sources))
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


def filter_one(tree, policy):
    """``filter_slice`` on a one-tree slice: ``None`` if the policy keeps the
    tree, else the decision that drops it."""
    kept, dropped = filter_slice(CorpusSlice(tree.century, [tree]), policy)
    assert [*kept.trees, *(dropped_tree for dropped_tree, _ in dropped)] == [tree]
    return dropped[0][1] if dropped else None


def _check_filter(corpus_slice, policy, each_tree=True):
    """``filter_slice`` keeps, drops and raises as the per-tree reference,
    on the slice and on each of its trees alone."""
    want = _outcome(reference_filter_slice, corpus_slice, policy)
    got = _outcome(filter_slice, corpus_slice, policy)
    if isinstance(got, tuple):
        kept, dropped = got
        assert (kept.century, kept.provenance) == (
            corpus_slice.century, corpus_slice.provenance)
        got = (list(kept.trees), dropped)
    assert got == want
    for tree in corpus_slice.trees if each_tree else ():
        one = CorpusSlice(corpus_slice.century, [tree], corpus_slice.provenance)
        _check_filter(one, policy, each_tree=False)


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
        assert slices == want
        for got, ref in zip(slices or (), want or ()):
            trees = list(ref.trees)
            asn, ref_asn = aggregate(got.trees), reference_aggregate(trees)
            assert asn == aggregate(trees)
            assert asn.first_seen.tolist() == aggregate(trees).first_seen.tolist()
            assert frequency_map(asn) == ref_asn.frequency
            seen = [asn.keys[i] for i in asn.first_seen.tolist()]
            assert seen == list(ref_asn.frequency)
            assert edge_map(asn) == {
                edge: (data.weight, data.rules) for edge, data in ref_asn.edges.items()
            }
            assert got.trees.depth.tolist() == [
                depth_of_heads([t.head for t in tree.tokens]) for tree in trees
            ]
            # A one-tree slice holds columns built from the tree, not the
            # reader's, so one chunk size covers it.
            for policy in MissingPolicy:
                _check_filter(got, policy, each_tree=chunk_lines == 4096)

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
        issues = audit_corpus(data)
        expected = [message] if message else []
        assert [i.message[:len(message)] for i in issues] == expected

    @pytest.mark.parametrize("chunk_lines", [1, 4096])
    def test_text_with_a_lone_surrogate(self, chunk_lines):
        self.check(["# century = 14\n1\ta\ud800\ta\tN\t0\t_\n"], chunk_lines)

    def test_trees_read_back_as_a_lazy_sequence(self):
        trees = parse_corpus(MINI)[0].trees
        assert len(trees) == 2 and trees == tuple(trees) == trees[:]
        assert isinstance(trees[-1], DependencyTree) and trees[-1] == trees[1]
        assert trees[::-1] == (trees[1], trees[0]) and hash(trees) == hash(tuple(trees))
        with pytest.raises(IndexError):
            trees[2]

    def test_hand_built_trees_need_contiguous_indices(self):
        token = Token(index=2, surface="a", lemma="a",
                      role=GrammaticalRole.NOUN, head=0)
        tree = DependencyTree("s1", 14, (token,))
        with pytest.raises(ValueError, match="'s1': token indices must be contiguous"):
            CorpusSlice(century=14, trees=(tree,))

    def test_a_tree_of_another_century_is_refused(self):
        token = Token(index=1, surface="a", lemma="a",
                      role=GrammaticalRole.NOUN, head=0)
        trees = (DependencyTree("s1", 14, (token,)), DependencyTree("s2", 15, (token,)))
        with pytest.raises(ValueError, match="^tree 's2' has century 15, slice has 14$"):
            CorpusSlice(century=14, trees=trees)


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
        assert filter_one(tree, MissingPolicy.KEEP_ALL) is None

    def test_drop_any_drops_on_any_missing(self):
        tree = self._tree(True)
        decision = filter_one(tree, MissingPolicy.DROP_ANY)
        assert decision == FilterDecision(False, "tree contains 2 missing annotation(s)")
        clean = validate_tree(toks([0, 1]), sentence_id="c", century=14)
        assert filter_one(clean, MissingPolicy.DROP_ANY) is None

    def test_drop_adjacent_drops_neighbor_of_target(self):
        tree = self._tree(True)
        decision = filter_one(tree, MissingPolicy.DROP_ADJACENT_TO_TARGET)
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
        assert filter_one(tree, MissingPolicy.DROP_ADJACENT_TO_TARGET) is None

    def test_drop_adjacent_needs_target(self):
        tokens = [
            Token(index=1, surface="!", lemma="!", role=None, head=2,
                  missing=True),
            Token(index=2, surface="kint", lemma="kint",
                  role=GrammaticalRole.NOUN, head=0),
        ]
        tree = validate_tree(tokens, sentence_id="s", century=14)
        with pytest.raises(ValueError, match="target"):
            filter_one(tree, MissingPolicy.DROP_ADJACENT_TO_TARGET)

    def test_policy_names_round_trip(self):
        for policy in MissingPolicy:
            assert MissingPolicy.from_name(policy.value) is policy
        with pytest.raises(ValueError):
            MissingPolicy.from_name("drop-sometimes")

    def test_policy_names_are_accepted_and_unknown_names_raise(self):
        tree = self._tree(True)
        clean = validate_tree(toks([0, 1]), sentence_id="c", century=14)
        corpus_slice = load_corpus([demo_corpus_path()])[0]
        for policy in MissingPolicy:
            for one in (tree, clean):
                assert filter_one(one, policy.value) == filter_one(one, policy)
            assert (filter_slice(corpus_slice, policy.value)
                    == filter_slice(corpus_slice, policy))
        for one in (tree, clean):
            with pytest.raises(ValueError, match="unknown missing policy 'adjacent'"):
                filter_one(one, "adjacent")
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
            with pytest.raises(ValueError, match=message):
                filter_slice(corpus_slice, policy)
            _check_filter(corpus_slice, policy)
            for other in (MissingPolicy.DROP_ANY, MissingPolicy.KEEP_ALL):
                _check_filter(corpus_slice, other)

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
