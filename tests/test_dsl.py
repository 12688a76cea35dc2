"""Parser and serializer: grammar coverage, error spans, round-trips."""

import functools
import importlib.util
import json
import operator
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islander import dsl
from islander.dsl import (
    ATOM_EXPECTED,
    KEYWORDS,
    ParseError,
    SourceSpan,
    _ATOMS,
    format_formula,
    parse,
    serialize,
)
from islander.model import (
    ALL_TYPES,
    And,
    AtMostDistinct,
    CountCmp,
    ExactTruthTellers,
    FALSE,
    Guilty,
    Iff,
    Implies,
    Not,
    OneOfEach,
    Or,
    Puzzle,
    SpeakerType,
    Statement,
    TRUE,
    iter_subformulas,
)
from islander.solver import solve

from conftest import CORPUS_NAMES, corpus_text, no_recursion, placed_tokens, random_puzzle
from test_golden_parses import all_texts as golden_texts
from test_model import formula_strategy

GRAMMAR = Path(__file__).resolve().parent.parent / "docs" / "grammar.md"

MINIMAL = 'puzzle { suspects A; criminals = 1; island truthtellers; statement s1 A: guilty(A); }'


class TestParseBasics:
    def test_minimal_puzzle(self):
        puzzle = parse(MINIMAL)
        assert puzzle.suspects == ("A",)
        assert puzzle.count == CountCmp("=", 1)
        assert len(puzzle.statements) == 1
        assert puzzle.type_domain["A"] == frozenset(
            {SpeakerType.ABSOLUTE_TRUTH_TELLER, SpeakerType.PARTIAL_TRUTH_TELLER}
        )

    def test_bundled_snowflake_puzzle_solves_to_the_culprit(self):
        report = solve(parse(corpus_text("jonathan")))
        assert report.forced_guilty == ("Mike",)

    def test_island_default_is_mixed(self):
        puzzle = parse("puzzle { suspects A; criminals >= 1; }")
        assert puzzle.type_domain["A"] == frozenset(ALL_TYPES)

    def test_types_override_island(self):
        puzzle = parse(
            "puzzle { suspects A, B; island liars; types A: {AT}; criminals >= 1; }"
        )
        assert puzzle.type_domain["A"] == frozenset({SpeakerType.ABSOLUTE_TRUTH_TELLER})
        assert puzzle.type_domain["B"] == frozenset(
            {SpeakerType.ABSOLUTE_LIAR, SpeakerType.RESPONSIBLE_LIAR}
        )

    def test_criminals_in_set_lowers_to_bound_plus_disjunction(self):
        puzzle = parse("puzzle { suspects A, B, C; criminals in {1, 3}; }")
        assert puzzle.count == CountCmp(">=", 1)
        assert puzzle.axioms == (Or(CountCmp("=", 1), CountCmp("=", 3)),)

    @pytest.mark.parametrize("island", ["truthtellers", "mixed"])
    def test_criminals_in_one_value_is_an_exact_count(self, island):
        head = f"puzzle {{ suspects A, B, C; island {island}; criminals "
        for k in range(4):
            exact = parse(head + f"= {k}; }}")
            for values in (f"{{{k}}}", f"{{{k}, {k}}}"):
                puzzle = parse(head + f"in {values}; }}")
                assert puzzle == exact, values
                assert solve(puzzle) == solve(exact), values

    def test_forall_expands_over_suspects(self):
        puzzle = parse(
            "puzzle { suspects A, B; criminals >= 1; axiom forall X: guilty(X) -> count >= 1; }"
        )
        assert len(puzzle.axioms) == 2
        names = {ax.left.person for ax in puzzle.axioms}
        assert names == {"A", "B"}

    def test_typecount_forms(self):
        base = "puzzle {{ suspects A, B, C, D; criminals >= 1; typecount {}; }}"
        assert parse(base.format("one_of_each")).type_cardinality == OneOfEach()
        assert parse(base.format("exactly 2 truthtellers")).type_cardinality == \
            ExactTruthTellers(2)
        assert parse(base.format("at_most_distinct 2")).type_cardinality == \
            AtMostDistinct(2)

    def test_unmodeled_statement(self):
        puzzle = parse(
            'puzzle { suspects A; criminals >= 1; statement s1 A: unmodeled "it was... odd"; }'
        )
        stmt = puzzle.statements[0]
        assert stmt.is_unmodeled
        assert stmt.text == "it was... odd"

    def test_comments_and_whitespace(self):
        text = "# header\npuzzle {  # inline\n  suspects A;\n  criminals = 1; # eol\n}\n"
        assert parse(text).suspects == ("A",)

    def test_the_roster_check_does_not_grow_with_the_roster(self):
        # One statement per suspect, so every name is looked up in the
        # roster: 8 times the suspects may take at most 30 times as long (a
        # roster held as a list took about 55 times as long).
        def best_of_3(n: int) -> float:
            names = [f"S{i}" for i in range(n)]
            text = ("puzzle { suspects " + ", ".join(names) + "; criminals = 1; "
                    + " ".join(f"statement s{i} {name}: guilty({name});"
                               for i, name in enumerate(names)) + " }")
            times = []
            for _ in range(3):
                start = time.perf_counter()
                assert parse(text).suspects == tuple(names)
                times.append(time.perf_counter() - start)
            return min(times)

        small, large = best_of_3(2000), best_of_3(16000)
        assert large < 30 * small, (small, large)


PREFIX = "puzzle { suspects A, B, C; criminals >= 1; statement s1 A: "
ATOMS = ("guilty(A)", "guilty(B)", "guilty(C)")
DEEP = 10_000


@st.composite
def deep_texts(draw):
    """(formula text, number of atoms): an atom wrapped in up to four layers,
    each of parentheses, `not`s or a chain of one connective with the inner
    formula as one of its operands."""
    body, atoms = draw(st.sampled_from(ATOMS)), 1
    layers = st.tuples(st.sampled_from(("(", "not", "and", "or", "->", "<->")),
                       st.integers(1, 3000))
    for kind, count in draw(st.lists(layers, min_size=1, max_size=4)):
        if kind == "(":
            body = "(" * count + body + ")" * count
        elif kind == "not":
            body = "not " * count + f"({body})"
        else:
            terms = [ATOMS[i % 3] for i in range(count)]
            terms.insert(draw(st.integers(0, count)), f"({body})")
            body, atoms = f" {kind} ".join(terms), atoms + count
    return body, atoms


def _body(formula: str):
    return no_recursion(parse, PREFIX + formula + "; }").statements[0].body


def _deep_body(op: str, deepest: str = "guilty(A)") -> str:
    """A formula DEEP levels deep whose deepest leaf is `deepest`: DEEP
    nested `not`s, or a chain of DEEP terms, left-deep for `and`/`or` and
    right-deep for `->`/`<->`."""
    if op == "not":
        return "not " * DEEP + deepest
    terms = [ATOMS[i % 3] for i in range(DEEP)]
    terms[0 if op in ("and", "or") else -1] = deepest
    return f" {op} ".join(terms)


def _spine(formula, cls, attr: str):
    """How many `cls` nodes lead from `formula` along `attr`, and the node
    where that path ends."""
    length = 0
    while isinstance(formula, cls):
        formula, length = getattr(formula, attr), length + 1
    return length, formula


class TestLexer:
    def test_token_columns_across_tabs_strings_crlf_and_comments(self):
        tokens = placed_tokens('a\t"x\\"y" # c\r\n  <-> ->;# end')
        assert tokens == [
            ("ident", "a", 1, 1), ("string", 'x"y', 1, 3), ("<->", "<->", 2, 3),
            ("->", "->", 2, 7), (";", ";", 2, 9), ("eof", "end of input", 2, 10),
        ]

    def test_end_of_input_after_a_trailing_comment_sits_at_the_hash(self):
        text = "puzzle { suspects A; criminals = 1;  # no closing brace"
        assert placed_tokens(text)[-1].column == text.index("#") + 1
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.span.line, info.value.span.column) == (1, text.index("#") + 1)

    @pytest.mark.parametrize("text, span, message, expected", [
        ("puzzle { suspects A; criminals = 1;\r\n\tstatement s1 A: guilty(A) and;\r\n}",
         (2, 31, 1), "unexpected token ';'", ATOM_EXPECTED),
        ('puzzle { suspects A; criminals = 1; statement s1 A: '
         'unmodeled "say \\"hi\\" \\\\ ok" ; statement s2 A: @; }',
         (1, 100, 1), "unexpected character '@'", ()),
        ('puzzle { suspects A;\n  criminals = 1; statement s1 A: unmodeled "a\\qb"; }',
         (2, 46, 2), "bad string escape", ('\\"', "\\\\")),
        ('puzzle { suspects A;\n\t criminals = 1; statement s1 A: unmodeled "open; }\n',
         (2, 44, 8), "unterminated string literal", ()),
    ])
    def test_error_spans(self, text, span, message, expected):
        with pytest.raises(ParseError) as info:
            parse(text)
        err = info.value
        assert (err.span.line, err.span.column, err.span.length) == span
        assert (err.message, err.expected) == (message, expected)



class TestKnownTokens:
    """Token texts classified by one parse are kept for the next, in a table
    with a fixed cap; a bad character is never kept."""

    TEXT = "puzzle { suspects A, B; criminals = 1; statement s1 A: guilty(B); }"

    def test_a_second_parse_classifies_no_text(self, monkeypatch):
        parse(self.TEXT)
        classified = []

        def counting(raws):
            classified.append(set(raws))
            return classify(raws)

        classify = dsl._classify
        monkeypatch.setattr(dsl, "_classify", counting)
        assert parse(self.TEXT) == parse(self.TEXT.replace("  ", " "))
        assert classified == [set(), set()]
        parse(self.TEXT.replace("B", "Zed"))
        assert classified[-1] == {"Zed"}

    def test_the_table_never_passes_its_cap(self, monkeypatch):
        monkeypatch.setattr(dsl, "_known", {})
        monkeypatch.setattr(dsl, "_KNOWN_CAP", 50)
        sizes = []
        for i in range(40):
            names = [f"N{i}x{j}" for j in range(8)]
            text = (f"puzzle {{ suspects {', '.join(names)}; criminals = 1; "
                    f"statement s1 {names[0]}: guilty({names[1]}); }}")
            assert parse(text).suspects == tuple(names)
            sizes.append(len(dsl._known))
        assert max(sizes) <= 50 and min(sizes[5:]) < max(sizes)
        # A text with more distinct tokens than the cap parses from its own table.
        names = [f"W{j}" for j in range(60)]
        before = dsl._known
        text = f"puzzle {{ suspects {', '.join(names)}; criminals = 1; }}"
        assert parse(text).suspects == tuple(names)
        assert dsl._known is before and len(before) <= 50

    def test_a_bad_character_fails_the_same_and_is_never_kept(self):
        bad = self.TEXT.replace("guilty(B)", "guilty(B) @")
        spans = []
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                parse(bad)
            spans.append((info.value.span, info.value.message))
            assert None not in dsl._known.values() and "@" not in dsl._known
        assert spans[0] == spans[1]
        assert spans[0][1] == "unexpected character '@'"

@functools.cache
def perfbench_inputs():
    """The benchmark's input generator, perfbench/inputs.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclasses look their module up
    spec.loader.exec_module(inputs)
    return inputs


def benchmark_texts(seed: int) -> list[str]:
    """The `dsl_roundtrip` benchmark's texts for `seed`."""
    return [item.text for item in perfbench_inputs().dsl_pool(seed)]


# Lexical edge cases and what `parse` makes of them: None for a text that
# parses, else the error's (line, column, length), message and expected list.
def _at_end(line: int, column: int, expected=("puzzle",)) -> tuple:
    return (line, column, 12), "unexpected token 'end of input'", expected


_DIRECTIVE_NAMES = ("suspects", "island", "types", "criminals", "typecount", "statement", "axiom")
_SMALL = "puzzle { suspects A; criminals = 1; }"
LEXICAL_EDGE_CASES = {
    "trailing comment, final newline": (_SMALL + " # end\n", None),
    "trailing comment, no final newline": (_SMALL + " # end", None),
    "open block, trailing comment": (
        "puzzle { suspects A; criminals = 1; # end", _at_end(1, 37, _DIRECTIVE_NAMES)),
    "open block, trailing comment and newline": (
        "puzzle { suspects A; criminals = 1; # end\n", _at_end(2, 1, _DIRECTIVE_NAMES)),
    "CRLF and tabs": ("puzzle {\r\n\tsuspects A, B;\r\n\tcriminals = 1;\r\n"
                      "\tstatement s A: guilty(B);\r\n}\r\n", None),
    "CRLF and tabs, unknown suspect": (
        "puzzle {\r\n\tsuspects A, B;\r\n\tcriminals = 1;\r\n"
        "\tstatement s A: guilty(C);\r\n}\r\n",
        ((4, 24, 1), "unknown suspect 'C'", ())),
    "unterminated quote at the end": (
        'puzzle { suspects A; criminals = 1; statement s A: unmodeled "',
        ((1, 62, 1), "unterminated string literal", ())),
    "lone <": ("puzzle { suspects A; criminals < 1; }",
               ((1, 32, 1), "unexpected character '<'", ())),
    "lone -": ("puzzle { suspects A; criminals = 1; axiom guilty(A) - guilty(A); }",
               ((1, 53, 1), "unexpected character '-'", ())),
    "lone >": ("puzzle { suspects A; criminals > 1; }",
               ((1, 32, 1), "unexpected character '>'", ())),
    "non-ASCII letter": ("puzzle { suspects Aé; criminals = 1; }",
                         ((1, 20, 1), "unexpected character 'é'", ())),
    "non-ASCII digit": ("puzzle { suspects A; criminals = 1²; }",
                        ((1, 35, 1), "unexpected character '²'", ())),
    "empty text": ("", _at_end(1, 1)),
    "blanks only": ("  \n\t\r\n ", _at_end(3, 2)),
    "comment only": ("# nothing here", _at_end(1, 1)),
    "comment only, final newline": ("# nothing here\n", _at_end(2, 1)),
}


def counted_parses(monkeypatch) -> list:
    """The token tuples of each `dsl._parse` call from here on."""
    calls = []

    def counted(tokens):
        calls.append(tokens)
        return parse_tokens(tokens)
    parse_tokens = dsl._parse
    monkeypatch.setattr(dsl, "_parse", counted)
    return calls


class TestOneReader:
    """`parse` reads a text with `_read`, one findall and a lookup per token.
    A failed parse is read again from fine tokens, and only then does
    `_locate` walk the text for its fine token's line and column."""

    @pytest.mark.parametrize("name", LEXICAL_EDGE_CASES)
    def test_edge_cases(self, name):
        text, error = LEXICAL_EDGE_CASES[name]
        if error is None:
            parse(text)
            return
        with pytest.raises(ParseError) as info:
            parse(text)
        err = info.value
        assert ((err.span.line, err.span.column, err.span.length), err.message,
                err.expected) == error

    def test_a_valid_parse_never_walks_for_positions(self, monkeypatch):
        texts = [corpus_text(name) for name in CORPUS_NAMES]
        texts.append(serialize(parse(benchmark_texts(1)[0])))

        def refuse(text, index):
            raise AssertionError("a valid text was walked for positions")
        monkeypatch.setattr(dsl, "_locate", refuse)
        for text in texts:
            parse(text)

    def test_a_valid_parse_parses_once(self, monkeypatch):
        """A corpus or `dsl_roundtrip` text, or its serialized form, never
        takes the fine fallback."""
        texts = [corpus_text(name) for name in CORPUS_NAMES] + benchmark_texts(1)
        texts += [serialize(parse(text)) for text in texts]
        calls = counted_parses(monkeypatch)
        for text in texts:
            parse(text)
        assert len(calls) == len(texts)

    def test_a_failing_parse_is_read_again_fine_and_raises_without_a_chain(self, monkeypatch):
        calls = counted_parses(monkeypatch)
        text = "puzzle { suspects A; criminals = 1; statement s A: guilty(B); }"
        with pytest.raises(ParseError) as info:
            parse(text)
        assert calls == [dsl._read(text, dsl._TOKEN_RE), dsl._read(text, dsl._FINE_RE)]
        assert info.value.__cause__ is None and info.value.__context__ is None
        assert _error(info.value) == (SourceSpan(1, 59, 1), "unknown suspect 'B'", ())

    @pytest.mark.parametrize("after, at, message", [
        ("guilty(A) and guilty(A) and gilty(A)", "gilty", "unknown atom 'gilty'"),
        ("guilty(A) and guilty(A) guilty(A)", "guilty(A)", "unexpected token 'guilty'"),
        ("guilty(A) or\n  type(A)=AT or type(A)=AT and guilty(C)", "C", "unknown suspect 'C'"),
    ])
    def test_an_error_after_a_repeated_atom_is_at_its_own_token(self, after, at, message):
        """The second `guilty(A)` or `type(A)=AT` is the node its token shares
        with the first, taken in one step; the error after it is still at its
        column."""
        text = f"puzzle {{ suspects A, B; criminals = 1; statement s A: {after}; }}"
        with pytest.raises(ParseError) as info:
            parse(text)
        line = text[:text.rindex(at)].count("\n") + 1
        column = text.rindex(at) - text.rfind("\n", 0, text.rindex(at))
        assert (info.value.span.line, info.value.span.column, info.value.message) == \
            (line, column, message)


# The lexer without the compact atoms: one token per name, mark, integer
# and string, as before an atom could be one token.
FINE_LEXER = dsl._lexer()


def parse_fine(text: str):
    """`parse` with `FINE_LEXER` as its first lexer: every atom is read as
    its fine tokens."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "_TOKEN_RE", FINE_LEXER)
        return parse(text)


def parse_both(text: str):
    """(`parse`, `parse_fine`) of `text`: each its Puzzle, or its error's
    span, message and expected list."""
    results = []
    for reader in (parse, parse_fine):
        try:
            results.append(reader(text))
        except ParseError as exc:
            results.append(_error(exc))
    return tuple(results)


_HEAD = "puzzle { suspects A, B; criminals = 1; "


class TestCompactAtoms:
    """An atom written as `serialize` writes it is one token, whose node a
    parse takes where it fits; a failed parse is read again from fine
    tokens, so errors stay where the fine tokens put them."""

    def test_every_formatted_atom_is_one_token(self):
        args = {"person": "Bo7", "speaker_type": SpeakerType.ABSOLUTE_LIAR,
                "island": dsl._ISLAND_BY_NAME["liars"], "op": ">=", "k": 2,
                "label": "st0", "name": "a0"}
        for keyword, row in _ATOMS.items():
            node = row[0](*(args[slot] for slot in row[1:] if slot in dsl._FIELDS))
            text = format_formula(node)
            tokens = dsl._read(text, dsl._TOKEN_RE)
            assert [tok.kind for tok in tokens] == ["atom", "eof"], keyword
            assert type(tokens[0].node) is type(node) and tokens[0].node == node, keyword
            fine = dsl._read(text, dsl._FINE_RE)
            assert fine == dsl._read(text, FINE_LEXER) and len(fine) == len(row) + 1, keyword

    @pytest.mark.parametrize("text", [
        "type(A)=ATx", "island(A)=liarsx", "type( A)=AT", "count>=2", "guilty(A )",
        "guilty(# c\nA)", "island(A)=mixed", "count -> 2",
    ])
    def test_other_spellings_lex_as_fine_tokens(self, text):
        assert "atom" not in {tok.kind for tok in dsl._read(text, dsl._TOKEN_RE)}
        assert dsl._read(text, dsl._TOKEN_RE) == dsl._read(text, FINE_LEXER)

    @pytest.mark.parametrize("text, error", [
        (_HEAD + "island(A)=liars; }",
         (SourceSpan(1, 46, 1), "unexpected token '('", ("truthtellers", "liars", "mixed"))),
        (_HEAD + "statement s A: guilty(A) guilty(A); }",
         (SourceSpan(1, 65, 6), "unexpected token 'guilty'", ("';'",))),
        (_HEAD + "statement guilty(A) A: true; }",
         (SourceSpan(1, 50, 6), "the keyword 'guilty' cannot be used as a statement label", ())),
        (_HEAD + "statement s A: true; } guilty(A)",
         (SourceSpan(1, 63, 6), "unexpected token 'guilty' after the puzzle block", ())),
        (_HEAD + "statement s A: truthful(guilty(A)); }",
         (SourceSpan(1, 64, 6),
          "truthful() reference to 'guilty', which is not an earlier statement", ())),
    ], ids=["directive", "operator", "label", "after_block", "truthful_label"])
    def test_an_atom_where_none_may_stand_is_read_again_fine(self, monkeypatch, text, error):
        """The error names the fine `guilty` token, not the compact atom."""
        calls = counted_parses(monkeypatch)
        with pytest.raises(ParseError) as info:
            parse(text)
        assert _error(info.value) == error
        assert [tok.kind for tok in calls[0]].count("atom") >= 1
        assert len(calls) == 2 and "atom" not in {tok.kind for tok in calls[1]}
        assert info.value.__cause__ is None and info.value.__context__ is None

    @pytest.mark.parametrize("text, error", [
        (_HEAD + 'statement s A: free("a b"); }',
         (SourceSpan(1, 60, 5), "free atom name 'a b' must be an identifier", ())),
        (_HEAD + "axiom forall X: guilty(X) and guilty(Y); }",
         (SourceSpan(1, 77, 1), "unknown suspect 'Y'", ())),
        (_HEAD + "statement s A: truthful(s); }",
         (SourceSpan(1, 64, 1), "truthful() reference to 's', which is not an earlier statement",
          ())),
    ])
    def test_an_error_inside_an_atom_is_at_its_fine_token(self, text, error):
        assert parse_both(text) == (error, error)

    def test_a_template_atom_is_refused_after_its_forall(self):
        """`guilty(X)` reads under `axiom forall X` and is refused after it."""
        text = _HEAD + "axiom forall X: guilty(X); statement s A: guilty(X); }"
        assert parse_both(text) == ((SourceSpan(1, 89, 1), "unknown suspect 'X'", ()),) * 2

    @pytest.mark.parametrize("text, at, expected", [
        *((_HEAD + f'axiom free("a") "{op}" free("b"); }}', f'"{op}"', ("';'",))
          for op in ("or", "and", "->", "<->")),
        (_HEAD + 'axiom guilty "(" A ")"; }', '"("', ("'('",)),
        (_HEAD + 'axiom guilty(A ")"; }', '")"', ("')'",)),
        (_HEAD + 'axiom type(A) "=" AT; }', '"="', ("'='",)),
        (_HEAD + 'axiom "not" guilty(A); }', '"not"', ATOM_EXPECTED),
        (_HEAD + 'axiom "(" guilty(A)); }', '"("', ATOM_EXPECTED),
    ], ids=["or", "and", "implies", "iff", "open_mark", "close_mark", "equals_mark",
            "not_operand", "open_operand"])
    def test_a_string_token_never_stands_for_a_mark(self, text, at, expected):
        """A string whose text is an operator, a mark or `not` is a string:
        it is no operator, no mark of an atom and opens nothing."""
        error = (SourceSpan(1, text.index(at) + 1, len(at)), f"unexpected token '{at[1:-1]}'",
                 expected)
        assert parse_both(text) == (error, error)


# The text of each slot kind of an `_ATOMS` row, right and wrong: persons
# known, unknown, reserved and the forall variable; malformed words, marks,
# integers and strings.
_SLOT_TEXTS = {
    "person": ("A", "B", "Zed", "X", "not", "guilty", "A1"),
    "speaker_type": ("AT", "PT", "AL", "RL", "ATx", "XX", "at"),
    "island": ("truthtellers", "liars", "mixed", "liarsx", "Liars"),
    "op": ("=", "<=", ">=", "->", "<->", "<"),
    "k": ("0", "2", "10", "2x", "x"),
    "label": ("s1", "s2", "s9", "guilty"),
    "name": ('"a0"', '"a b"', '"guilty"', '"a\\"b"', "a0", '"'),
}
# Where two atoms `a` and `b` are put: every place a formula may stand, and
# places where no atom may.
_CONTEXTS = (
    _HEAD + "statement s1 A: true; statement s2 B: <a>; }",
    _HEAD + "statement s1 A: true; statement s2 B: not <a> and (<b> or <a>); }",
    _HEAD + "statement s1 A: true; axiom forall X: <a> -> <b>; axiom <a>; }",
    _HEAD + "statement s1 A: true; axiom <a> <-> guilty(A) <b>; }",
    _HEAD + "<a>; }",
    _HEAD + "statement <a> A: true; }",
    _HEAD + "types <a>: {AT}; }",
    "puzzle { suspects A, <a>; criminals = 1; }",
    _HEAD + "statement s1 A: truthful(<a>); }",
    _HEAD + "statement s1 A: true; } <a>",
)
_SPACES = ("", " ", "  ", "\n", "\t", " # c\n")


@st.composite
def atom_texts(draw, keyword=None):
    """The text of the `_ATOMS` row of `keyword`, or of a drawn one: the
    keyword and a drawn text for each slot, with the serializer's spacing or
    with drawn blanks and comments."""
    keyword = keyword or draw(st.sampled_from(sorted(_ATOMS)))
    compact = draw(st.booleans())
    pieces, after_word = [keyword], True
    for slot in _ATOMS[keyword][1:]:
        word = slot.isidentifier()
        if compact:
            pieces.append(" " if word and after_word else "")
        else:
            pieces.append(draw(st.sampled_from(_SPACES)))
        pieces.append(draw(st.sampled_from(_SLOT_TEXTS[slot])) if slot in _SLOT_TEXTS else slot)
        after_word = word
    return "".join(pieces)


@functools.cache
def compact_atom_spans(name: str) -> list[tuple[int, int]]:
    """Where the compact atoms of a corpus text start and end."""
    text = corpus_text(name)
    kinds = [tok.kind for tok in dsl._read(text, dsl._TOKEN_RE)]
    return [m.span(1) for m, kind in zip(dsl._TOKEN_RE.finditer(text), kinds) if kind == "atom"]


@st.composite
def corpus_mutations(draw):
    """A corpus text with one character inserted, deleted or replaced in or
    next to one of its compact atoms."""
    name = draw(st.sampled_from(CORPUS_NAMES))
    text = corpus_text(name)
    start, end = draw(st.sampled_from(compact_atom_spans(name)))
    at = draw(st.integers(max(0, start - 1), min(len(text) - 1, end)))
    char = draw(st.sampled_from(" \n#()=<>-\"\\;,:{}Aa_1é"))
    how = draw(st.sampled_from(("insert", "delete", "replace")))
    return text[:at] + ("" if how == "delete" else char) + text[at + (how != "insert"):]


class TestCompactAgainstFine:
    """Compact and fine lexing give the same Puzzle, or the same error."""

    @pytest.mark.parametrize("keyword", sorted(_ATOMS))
    @given(context=st.sampled_from(_CONTEXTS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_atom_row_in_every_place(self, keyword, context, data):
        a, b = data.draw(atom_texts(keyword)), data.draw(atom_texts())
        text = context.replace("<a>", a).replace("<b>", b)
        compact, fine = parse_both(text)
        assert compact == fine, text

    @given(corpus_mutations())
    @settings(max_examples=400, deadline=None)
    def test_corpus_mutations_around_atoms(self, text):
        compact, fine = parse_both(text)
        assert compact == fine, text

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_a_corpus_text_has_compact_atoms_that_lex_alone_to_its_fine_tokens(self, name):
        text = corpus_text(name)
        tokens = dsl._read(text, dsl._TOKEN_RE)
        assert "atom" in {tok.kind for tok in tokens}
        fine = dsl._read(text, dsl._FINE_RE)
        assert fine == dsl._read(text, FINE_LEXER)
        assert tuple(part for tok in tokens for part in (
            dsl._read(tok.text, FINE_LEXER)[:-1] if tok.kind == "atom" else (tok,))) == fine

    def test_every_golden_corpus_and_benchmark_text(self):
        for name, text in differential_texts().items():
            compact, fine = parse_both(text)
            assert compact == fine, name


def differential_texts() -> dict[str, str]:
    """Every golden-parse text, every corpus puzzle, and the benchmark's
    `dsl_roundtrip` and `solve_large` texts for seeds 1 and 424242."""
    texts = {f"golden {name}": text for name, text in golden_texts().items()}
    texts.update((f"corpus {name}", corpus_text(name)) for name in CORPUS_NAMES)
    inputs = perfbench_inputs()
    for seed in (1, 424242):
        for pool in (inputs.dsl_pool, inputs.solve_pool):
            texts.update((f"{pool.__name__}({seed}) {item.name}", item.text)
                         for item in pool(seed))
    return texts


def _error(exc: ParseError) -> tuple:
    return exc.span, exc.message, exc.expected


def parse_table_free(text: str):
    """`parse` of tokens that carry no node built when lexed: every compact
    atom fails, and every atom is read from fine tokens."""
    read = dsl._read

    def read_without_nodes(text, lexer):
        return tuple(tok._replace(node=None) if tok.node is not None else tok
                     for tok in read(text, lexer))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "_read", read_without_nodes)
        return parse(text)


class TestTheParserIsTheCheck:
    """A parsed puzzle is checked by the parser alone, which takes each
    compact atom's node built when lexed where it fits. `parse_table_free`
    reads every atom from fine tokens, so it is the oracle."""

    def test_parse_agrees_with_the_table_free_parse_and_validate(self):
        parsed = 0
        for name, text in differential_texts().items():
            try:
                puzzle = parse(text)
            except ParseError as exc:
                with pytest.raises(ParseError) as info:
                    parse_table_free(text)
                assert _error(info.value) == _error(exc), name
                continue
            parsed += 1
            assert puzzle == parse_table_free(text), name
            puzzle.validate()
            assert parse(serialize(puzzle)) == puzzle, name
        assert parsed >= 2 * (12 + 20) + len(CORPUS_NAMES)

    def test_equal_atoms_are_one_node(self):
        puzzle = parse("puzzle { suspects A; criminals = 1; statement s1 A: guilty(A) and "
                       "(true or guilty(A)); axiom guilty(A) -> false; }")
        body, axiom = puzzle.statements[0].body, puzzle.axioms[0]
        assert body.left is body.right.right is axiom.left
        assert body.right.left is TRUE and axiom.right is FALSE

    def test_a_forall_variable_does_not_leak_into_later_atoms(self):
        text = ("puzzle { suspects A; criminals = 1; axiom forall X: guilty(X); "
                "statement s A: guilty(X); }")
        with pytest.raises(ParseError) as info:
            parse(text)
        assert _error(info.value) == (SourceSpan(1, text.rindex("X") + 1, 1),
                                      "unknown suspect 'X'", ())

    def test_a_truthful_reference_before_its_statement_is_refused(self):
        # The same truthful() atom reads well in one text and is refused
        # where it comes before its statement, in this text or the next.
        head = "puzzle { suspects A; criminals = 1; "
        parse(head + "statement s1 A: true; statement s2 A: truthful(s1) and truthful(s1); }")
        for label, text in (
                ("s1", head + "statement s0 A: truthful(s1); statement s1 A: true; }"),
                ("s2", head + "statement s1 A: true; statement s2 A: truthful(s1) or "
                              "truthful(s2); }")):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert _error(info.value) == (
                SourceSpan(1, text.rindex(f"truthful({label})") + 10, 2),
                f"truthful() reference to '{label}', which is not an earlier statement", ())

    def test_successive_parses_share_no_atoms(self):
        parse("puzzle { suspects Bo, Cy; criminals = 1; statement s Bo: guilty(Bo); }")
        text = "puzzle { suspects Cy; criminals = 1; statement s Cy: guilty(Bo); }"
        with pytest.raises(ParseError) as info:
            parse(text)
        fresh = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); from islander import dsl\n"
             "try:\n    dsl.parse(sys.argv[2])\n"
             "except dsl.ParseError as e:\n    print(repr((str(e), e.message)))",
             str(Path(dsl.__file__).resolve().parent.parent), text],
            capture_output=True, text=True, check=True).stdout
        assert fresh == repr((str(info.value), info.value.message)) + "\n"
        assert info.value.message == "unknown suspect 'Bo'"


class TestOneAtomTable:
    """Only a compact atom is one token, with one node for every occurrence
    in a text: an atom spelled any other way is read where it stands, every
    time."""

    HAND = ("puzzle { suspects A, B; criminals = 1; statement s1 A: guilty ( A ) and "
            "type (B)= AT and count>=2; statement s2 B: truthful( s1 ) or guilty\n(A); "
            "axiom not guilty ( A ) # a comment\n or lies_about_guilt(B ); }")
    COMPACT = ("puzzle { suspects A, B; criminals = 1; statement s1 A: guilty(A) and "
               "type(B)=AT and count >= 2; statement s2 B: truthful(s1) or guilty(A); "
               "axiom not guilty(A) or lies_about_guilt(B); }")

    def test_a_hand_spaced_text_parses_as_its_compact_spelling(self):
        assert "atom" not in {tok.kind for tok in dsl._read(self.HAND, dsl._TOKEN_RE)}
        compact = parse(self.COMPACT)
        assert parse(self.HAND) == compact
        s1, s2 = compact.statements
        (axiom,) = compact.axioms
        assert s1.body.left.left is s2.body.right is axiom.left.operand

    def test_a_hand_spaced_atom_written_twice_fails_at_its_first_occurrence(self):
        text = ("puzzle { suspects A; criminals = 1; "
                "statement s A: guilty ( B ) or guilty ( B ); }")
        with pytest.raises(ParseError) as info:
            parse(text)
        assert _error(info.value) == (SourceSpan(1, text.index("B )") + 1, 1),
                                      "unknown suspect 'B'", ())


def _outcome(text: str):
    """`parse(text)`: its Puzzle, or its error's span, message and expected list."""
    try:
        return parse(text)
    except ParseError as exc:
        return _error(exc)


def _read_fine(tok):
    """What `_read_row` reads a compact atom's fine tokens to where every
    name in them is a suspect and a modeled label, or None where it fails."""
    fine = dsl._read(tok.text, FINE_LEXER)
    b = dsl._PuzzleBuilder()
    b.suspects = b.labels = b.modeled_labels = {part.text: None for part in fine}
    try:
        return dsl._read_row(dsl._Parser(fine, 1), b, _ATOMS[fine[0].text])
    except dsl._Failure:
        return None


# Past the interpreter's int-conversion limit, where it has one (3.10.7 and on).
_LONG_K = "9" * 5000
_INT_LIMIT = hasattr(sys, "get_int_max_str_digits")


class TestAtomNodesBuiltWhenLexed:
    """A compact atom's node is built once, when its text is first lexed.
    A parse takes it where its person is a suspect and its label that of an
    earlier modeled statement, and fails otherwise, to be read again from
    fine tokens, so every error is the one its hand-spaced spelling gives."""

    def test_every_lexed_node_is_what_its_fine_tokens_read_to(self):
        seen = {}
        for name, text in differential_texts().items():
            try:
                tokens = dsl._read(text, dsl._TOKEN_RE)
            except dsl._Failure:
                continue
            for tok in tokens:
                if tok.kind == "atom" and tok.text not in seen:
                    seen[tok.text] = tok
                    node = _read_fine(tok)
                    assert type(tok.node) is type(node) and tok.node == node, (name, tok.text)
        assert sum(tok.node is not None for tok in seen.values()) > 1000

    @pytest.mark.parametrize("atom", [f"count >= {_LONG_K}", 'free("1x")'])
    def test_an_atom_that_reads_to_no_node_keeps_none(self, atom):
        (tok, _eof) = dsl._read(atom, dsl._TOKEN_RE)
        assert tok.kind == "atom"
        if atom.startswith("count") and not _INT_LIMIT:
            assert tok.node == CountCmp(">=", int(_LONG_K))
        else:
            assert tok.node is None and _read_fine(tok) is None

    def test_a_node_that_fits_is_taken_in_one_parse(self, monkeypatch):
        text = TestOneAtomTable.COMPACT
        expected = parse_table_free(text)
        calls = counted_parses(monkeypatch)
        assert parse(text) == expected
        assert calls == [dsl._read(text, dsl._TOKEN_RE)]

    def test_a_node_that_fits_costs_no_call(self, monkeypatch):
        """A compact atom's node and a closing parenthesis are taken by
        `_parse_formula` itself: `_parse_primary` reads only `true` and
        `false`, and no `)` is read by `expect_punct`."""
        deep = benchmark_texts(1)[8]
        text = serialize(parse(deep[:deep.rindex("}")]
                               + "axiom (true or not (false)) and (true -> count >= 1); }"))
        expected = parse_table_free(text)
        tokens = dsl._read(text, dsl._TOKEN_RE)
        assert sum(tok.kind == ")" for tok in tokens) > 100
        primaries, puncts = [], []

        def primary(p, b):
            primaries.append(p.tokens[p.pos].text)
            return parse_primary(p, b)

        def expect_punct(self, *kinds):
            puncts.append(kinds)
            return punct(self, *kinds)
        parse_primary, punct = dsl._parse_primary, dsl._Parser.expect_punct
        monkeypatch.setattr(dsl, "_parse_primary", primary)
        monkeypatch.setattr(dsl._Parser, "expect_punct", expect_punct)
        assert parse(text) == expected
        assert primaries == [tok.text for tok in tokens if tok.text in ("true", "false")]
        assert len(primaries) == 3 and (")",) not in puncts

    @pytest.mark.parametrize("before, compact, hand, error", [
        (None, _HEAD + f"statement s A: count >= {_LONG_K}; }}",
         _HEAD + f"statement s A: count  >={_LONG_K}; }}",
         (SourceSpan(1, 64, 5000), "integer literal of 5000 digits is too long", ())),
        (None, _HEAD + 'statement s A: free("1x"); }', _HEAD + 'statement s A: free("1x" ); }',
         (SourceSpan(1, 60, 4), "free atom name '1x' must be an identifier", ())),
        (_HEAD + "statement s A: true; statement t B: truthful(s); }",
         _HEAD + 'statement s A: unmodeled "x"; statement t B: truthful(s); }',
         _HEAD + 'statement s A: unmodeled "x"; statement t B: truthful(s ); }',
         (SourceSpan(1, 94, 1), "truthful() reference to unmodeled statement 's'", ())),
        (None, _HEAD + "axiom forall X: guilty(X); statement s A: guilty(X); }",
         _HEAD + "axiom forall X: guilty(X); statement s A: guilty(X ); }",
         (SourceSpan(1, 89, 1), "unknown suspect 'X'", ())),
    ], ids=["long_integer", "free_name", "unmodeled_label", "forall_variable"])
    def test_an_atom_that_does_not_fit_fails_as_its_hand_spaced_spelling(
            self, monkeypatch, before, compact, hand, error):
        if before is not None:
            parse(before)  # the atom's node was built and read well
        calls = counted_parses(monkeypatch)
        outcome, kinds = _outcome(compact), [{tok.kind for tok in tokens} for tokens in calls]
        assert outcome == _outcome(hand) == parse_both(compact)[1]
        if "count" in compact and not _INT_LIMIT:
            assert isinstance(outcome, Puzzle)
        else:
            assert outcome == error
            # The compact parse fails at the atom, and the fine one gives the error.
            assert len(kinds) == 2 and "atom" in kinds[0] and "atom" not in kinds[1]


class TestDepth:
    """Nesting depth and chain length never reach the Python stack."""

    def test_nested_parentheses_parse_to_the_bare_atom(self):
        assert _body("(" * DEEP + "guilty(B)" + ")" * DEEP) == Guilty("B")

    @pytest.mark.parametrize("op, cls", [("and", And), ("or", Or)])
    def test_left_associative_chains_are_left_deep(self, op, cls):
        formula = _body(f" {op} ".join(ATOMS[i % 3] for i in range(DEEP)))
        nodes = no_recursion(list, iter_subformulas(formula))
        assert len(nodes) == 2 * DEEP - 1
        assert _spine(formula, cls, "left") == (DEEP - 1, Guilty("A"))
        assert [n for n in nodes if isinstance(n, Guilty)] == \
            [Guilty("ABC"[i % 3]) for i in range(DEEP)]

    @pytest.mark.parametrize("op, cls", [("->", Implies), ("<->", Iff)])
    def test_right_associative_chains_are_right_deep(self, op, cls):
        formula = _body(f" {op} ".join(ATOMS[i % 3] for i in range(DEEP)))
        assert len(no_recursion(list, iter_subformulas(formula))) == 2 * DEEP - 1
        assert _spine(formula, cls, "right") == (DEEP - 1, Guilty("ABC"[(DEEP - 1) % 3]))

    def test_nested_not(self):
        assert _spine(_body("not " * 2000 + "guilty(C)"), Not, "operand") == (2000, Guilty("C"))

    @pytest.mark.parametrize("op", ["and", "or", "->", "<->", "not"])
    def test_deep_formulas_serialize_compare_and_hash(self, op):
        """serialize, == and hash walk a 10^4-deep tree without recursion."""
        puzzle = no_recursion(parse, PREFIX + _deep_body(op) + "; }")
        body = puzzle.statements[0].body
        assert no_recursion(format_formula, body) == _deep_body(op)
        again = no_recursion(parse, no_recursion(serialize, puzzle))
        assert no_recursion(operator.eq, again, puzzle)
        assert again.statements[0].body is not body
        assert no_recursion(hash, again.statements[0].body) == no_recursion(hash, body)

    @pytest.mark.parametrize("op", ["and", "or", "->", "<->", "not"])
    def test_deep_formulas_repr(self, op):
        """repr prints the dataclass text of a 10^4-deep tree without recursion."""
        atom = [f"Guilty(person='{'ABC'[i % 3]}')" for i in range(DEEP)]
        if op == "not":
            expected = "Not(operand=" * DEEP + atom[0] + ")" * DEEP
        elif op in ("and", "or"):  # left-deep
            name = {"and": "And", "or": "Or"}[op]
            expected = (f"{name}(left=" * (DEEP - 1) + atom[0]
                        + "".join(f", right={a})" for a in atom[1:]))
        else:  # right-deep
            name = {"->": "Implies", "<->": "Iff"}[op]
            expected = ("".join(f"{name}(left={a}, right=" for a in atom[:-1])
                        + atom[-1] + ")" * (DEEP - 1))
        assert no_recursion(repr, _body(_deep_body(op))) == expected

    @pytest.mark.parametrize("op", ["and", "or", "->", "<->", "not"])
    @pytest.mark.parametrize("deepest", ["guilty(B)", "type(A)=AT"])
    def test_deep_formulas_differing_in_the_deepest_leaf_are_unequal(self, op, deepest):
        body, other = _body(_deep_body(op)), _body(_deep_body(op, deepest))
        assert no_recursion(operator.ne, body, other)
        assert not no_recursion(operator.eq, body, other)
        assert no_recursion(operator.ne, other, body)

    @pytest.mark.parametrize("depth", [3, DEEP])
    @pytest.mark.parametrize("shape", ["paren_dropped", "paren_cut", "and_cut", "imp_cut_in_atom",
                                       "not_cut", "not_paren_dropped"])
    def test_broken_deep_texts_fail_where_shallow_ones_do(self, shape, depth):
        """The span of each error follows one rule at every depth; at depth 3
        it is the span the recursive-descent parser gave."""
        chain = " and ".join(ATOMS[i % 3] for i in range(depth))
        text, expected = {
            "paren_dropped": (PREFIX + "(" * depth + "guilty(B)" + ")" * (depth - 1) + "; }",
                              ("';'", ("')'",))),
            "paren_cut": (PREFIX + "(" * depth + "guilty(B)", ("eof", ("')'",))),
            "and_cut": (PREFIX + chain + " and", ("eof", ATOM_EXPECTED)),
            "imp_cut_in_atom": (PREFIX + chain.replace("and", "->") + " -> guilty(",
                                ("eof", ("a suspect name",))),
            "not_cut": (PREFIX + "not " * depth, ("eof", ATOM_EXPECTED)),
            "not_paren_dropped": (PREFIX + "not (" * depth + "guilty(A)" + ")" * (depth - 1)
                                  + "; }", ("';'", ("')'",))),
        }[shape]
        token, expected_tokens = expected
        with pytest.raises(ParseError) as info:
            no_recursion(parse, text)
        err = info.value
        if token == "eof":
            column, message = len(text) + 1, "unexpected token 'end of input'"
        else:
            column, message = text.rindex(";") + 1, "unexpected token ';'"
        assert (err.span.line, err.span.column, err.message, err.expected) == \
            (1, column, message, expected_tokens)


class TestParseErrors:
    def expect_error(self, text, match=None):
        with pytest.raises(ParseError) as info:
            parse(text)
        if match:
            assert match in str(info.value), str(info.value)
        return info.value

    def test_unknown_atom_lists_expected_keywords(self):
        err = self.expect_error(
            "puzzle { suspects A; criminals = 1; statement s1 A: gilty(A); }"
        )
        assert "gilty" in err.message
        assert "guilty" in err.expected
        assert "truthful" in err.expected
        # The span pins the offending token.
        assert err.span.line == 1
        assert err.span.length == len("gilty")

    @pytest.mark.parametrize("items", [
        "criminals = {n};",
        "criminals in {{1, {n}}};",
        "criminals >= 1; statement s1 A: count = {n};",
        "criminals >= 1; typecount exactly {n} truthtellers;",
        "criminals >= 1; typecount at_most_distinct {n};",
    ])
    def test_integer_past_the_conversion_limit(self, items):
        """One digit past the interpreter's int-conversion limit is a
        ParseError on the literal; at the limit the integer parses."""
        limit = sys.get_int_max_str_digits()
        digits = "1" * (limit + 1)
        text = "puzzle { suspects A; " + items.format(n=digits) + " }"
        err = self.expect_error(text)
        assert err.message == f"integer literal of {limit + 1} digits is too long"
        assert err.span == SourceSpan(1, text.index(digits) + 1, limit + 1)
        if "statement" in items:
            parse(text.replace(digits, digits[1:]))

    def test_lexical_error(self):
        err = self.expect_error("puzzle { suspects A; criminals = 1; % }")
        assert "%" in err.message

    def test_unterminated_string(self):
        self.expect_error(
            'puzzle { suspects A; criminals = 1; statement s1 A: unmodeled "oops; }',
            match="unterminated",
        )

    def test_bad_escape(self):
        self.expect_error(
            'puzzle { suspects A; criminals = 1; statement s1 A: unmodeled "a\\qb"; }',
            match="escape",
        )

    def test_unknown_suspect(self):
        self.expect_error(
            "puzzle { suspects A; criminals = 1; statement s1 B: true; }",
            match="unknown suspect 'B'",
        )

    def test_duplicate_suspect(self):
        self.expect_error("puzzle { suspects A, A; criminals = 1; }",
                          match="duplicate suspect")

    def test_duplicate_label(self):
        self.expect_error(
            "puzzle { suspects A; criminals = 1; statement s1 A: true; statement s1 A: true; }",
            match="duplicate statement label",
        )

    def test_forward_truthful_reference(self):
        self.expect_error(
            "puzzle { suspects A; criminals = 1; statement s1 A: truthful(s2); "
            "statement s2 A: true; }",
            match="not an earlier statement",
        )

    def test_self_truthful_reference(self):
        self.expect_error(
            "puzzle { suspects A; criminals = 1; statement s1 A: truthful(s1); }",
            match="not an earlier statement",
        )

    def test_truthful_reference_to_unmodeled(self):
        self.expect_error(
            'puzzle { suspects A; criminals = 1; statement s1 A: unmodeled "x"; '
            "statement s2 A: truthful(s1); }",
            match="unmodeled",
        )

    def test_empty_type_domain(self):
        self.expect_error(
            "puzzle { suspects A; types A: {}; criminals = 1; }",
            match="empty type domain",
        )

    @pytest.mark.parametrize("text, at, expected", [
        ("puzzle { suspects A,; criminals = 1; }", ";", ("a suspect name",)),
        ("puzzle { suspects A; types A: {AT,}; criminals = 1; }", "}", ("AT", "PT", "AL", "RL")),
        ("puzzle { suspects A; criminals in {1,}; }", "}", ("an integer",)),
    ], ids=["suspects", "types", "criminals_in"])
    def test_no_list_takes_a_trailing_comma(self, text, at, expected):
        err = self.expect_error(text)
        column = text.index(at, text.index(",")) + 1
        assert (err.span, err.message, err.expected) == \
            (SourceSpan(1, column, 1), f"unexpected token '{at}'", expected)

    def test_missing_suspects(self):
        self.expect_error("puzzle { criminals = 1; }", match="missing suspects")

    def test_missing_criminals(self):
        self.expect_error("puzzle { suspects A; }", match="missing criminals")

    def test_duplicate_directives(self):
        self.expect_error("puzzle { suspects A; suspects B; criminals = 1; }",
                          match="duplicate suspects")
        self.expect_error(
            "puzzle { suspects A; island liars; island mixed; criminals = 1; }",
            match="duplicate island",
        )
        self.expect_error("puzzle { suspects A; criminals = 1; criminals = 2; }",
                          match="duplicate criminals")

    def test_forall_variable_shadowing_suspect(self):
        self.expect_error(
            "puzzle { suspects A; criminals = 1; axiom forall A: guilty(A); }",
            match="shadows",
        )

    def test_free_name_must_be_identifier(self):
        self.expect_error(
            'puzzle { suspects A; criminals = 1; statement s1 A: free("no spaces"); }',
            match="identifier",
        )

    def test_reserved_word_as_name(self):
        self.expect_error("puzzle { suspects guilty; criminals = 1; }",
                          match="keyword")

    def test_one_of_each_needs_four(self):
        self.expect_error(
            "puzzle { suspects A, B; criminals = 1; typecount one_of_each; }",
            match="four suspects",
        )

    def test_trailing_garbage(self):
        self.expect_error(MINIMAL + " extra", match="after the puzzle block")

    def test_totality_fuzz(self):
        rng = random.Random(1234)
        base = corpus_text("ben")
        printable = "puzle{}();:=<->#\"\\ abc123\n\t"
        for i in range(250):
            if i % 2 == 0:
                junk = "".join(rng.choice(printable) for _ in range(rng.randrange(80)))
            else:
                cut = rng.randrange(len(base))
                junk = base[:cut] + rng.choice(printable) + base[cut + 1:]
            try:
                parse(junk)
            except ParseError:
                pass  # the only acceptable failure mode

    @given(deep_texts(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_totality_fuzz_deep_and_wide(self, case, data):
        body, atoms = case
        text = PREFIX + body + "; }"
        how = data.draw(st.sampled_from(("none", "drop", "cut", "insert")))
        at = data.draw(st.integers(len(PREFIX), len(text) - 1))
        if how == "drop":
            text = text[:at] + text[at + 1:]
        elif how == "cut":
            text = text[:at]
        elif how == "insert":
            text = text[:at] + data.draw(st.sampled_from("()<->;# an")) + text[at:]
        try:
            puzzle = no_recursion(parse, text)
        except ParseError:
            assert how != "none"
            return  # the only acceptable failure mode
        if how == "none":
            formula = puzzle.statements[0].body
            assert sum(isinstance(node, Guilty) for node in iter_subformulas(formula)) == atoms
            assert no_recursion(operator.eq, parse(no_recursion(serialize, puzzle)), puzzle)


class TestGrammarDoc:
    """docs/grammar.md states the reserved words and the atoms the parser's
    tables hold."""

    TEXT = GRAMMAR.read_text(encoding="utf-8")
    # How the grammar names each field of an `_ATOMS` row.
    FIELD_SYMBOLS = {"person": "ident", "speaker_type": "type_name",
                     "island": '("truthtellers" | "liars")', "op": "cmp_op",
                     "k": "integer", "label": "ident", "name": "string"}

    def test_reserved_words_are_the_keywords(self):
        words = re.search(r"Reserved words \(not usable as names\): `([^`]*)`",
                          self.TEXT).group(1).split()
        assert len(words) == len(set(words))
        assert set(words) == KEYWORDS

    def test_atom_alternatives_are_the_atom_table(self):
        rule = re.search(r"^atom +::= (.*?)\n```", self.TEXT, re.M | re.S).group(1)
        alternatives = re.split(r"\n +\| ", rule)
        assert alternatives == [
            " ".join([f'"{keyword}"'] + [self.FIELD_SYMBOLS.get(slot, f'"{slot}"')
                                         for slot in row[1:]])
            for keyword, row in _ATOMS.items()
        ] + ['"true" | "false"']

    def test_atom_fields_are_in_constructor_order(self):
        for row in _ATOMS.values():
            assert [slot for slot in row[1:] if slot in self.FIELD_SYMBOLS] == \
                list(row[0].__match_args__)


class TestRoundTrip:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_round_trip(self, name):
        puzzle = parse(corpus_text(name))
        assert parse(serialize(puzzle)) == puzzle

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_reserialized_corpus_solves_identically(self, name):
        puzzle = parse(corpus_text(name))
        again = parse(serialize(puzzle))
        assert json.dumps(solve(again).to_json_dict()) == \
            json.dumps(solve(puzzle).to_json_dict())

    def test_serialization_is_deterministic(self):
        a = parse(corpus_text("mike"))
        b = parse(serialize(parse(corpus_text("mike"))))
        assert a == b
        assert serialize(a) == serialize(b)

    def test_near_misses_of_what_a_puzzle_refuses_round_trip(self):
        """A Puzzle refuses a reserved word as a name and a newline in an
        unmodeled text, as the parser does; names that only contain or
        resemble a keyword, and texts with every other awkward character,
        round-trip."""
        puzzle = Puzzle(
            suspects=("guilty_", "Not"),
            type_domain={"guilty_": frozenset(ALL_TYPES), "Not": frozenset(ALL_TYPES)},
            count=CountCmp(">=", 1),
            statements=(Statement("nots", "Not", None, text='tab\tcr\r "q" \\ # x'),
                        Statement("s_and", "guilty_", Guilty("Not"))),
        )
        assert parse(serialize(puzzle)) == puzzle

    def test_random_puzzles_round_trip(self):
        rng = random.Random(31337)
        for _ in range(80):
            puzzle = random_puzzle(rng)
            assert parse(serialize(puzzle)) == puzzle

    @given(formula_strategy())
    @settings(max_examples=200)
    def test_random_formulas_round_trip_through_axioms(self, formula):
        puzzle = Puzzle(
            suspects=("A", "B", "C"),
            type_domain={s: frozenset(ALL_TYPES) for s in ("A", "B", "C")},
            count=CountCmp(">=", 0),
            axioms=(formula,),
        )
        reparsed = parse(serialize(puzzle))
        assert reparsed.axioms == (formula,)

    def test_formula_formatting_examples(self):
        from islander.model import And, Guilty, Implies, Not, Or
        assert format_formula(And(Guilty("A"), Or(Guilty("B"), Guilty("C")))) == \
            "guilty(A) and (guilty(B) or guilty(C))"
        assert format_formula(Implies(Guilty("A"), Implies(Guilty("B"), Guilty("C")))) == \
            "guilty(A) -> guilty(B) -> guilty(C)"
        assert format_formula(Not(Not(Guilty("A")))) == "not not guilty(A)"


class TestMutationSpans:
    def _spliced(self, text, token, replacement):
        lines = text.split("\n")
        line = lines[token.line - 1]
        col = token.column - 1
        lines[token.line - 1] = line[:col] + replacement + line[col + len(token.text):]
        return "\n".join(lines)

    def _assert_span_covers(self, err, token):
        assert err.span.line == token.line
        assert err.span.column <= token.column < err.span.column + err.span.length

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_illegal_character_mutations(self, name):
        text = corpus_text(name)
        tokens = [t for t in placed_tokens(text) if t.kind not in ("string", "eof")]
        rng = random.Random(hash(name) & 0xFFFF)
        for token in rng.sample(tokens, min(12, len(tokens))):
            mutated = self._spliced(text, token, "~" + token.text[1:])
            with pytest.raises(ParseError) as info:
                parse(mutated)
            self._assert_span_covers(info.value, token)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_keyword_misspelling_mutations(self, name):
        text = corpus_text(name)
        targets = [t for t in placed_tokens(text) if t.kind == "ident" and t.text == "guilty"]
        assert targets, "every corpus file should mention guilt"
        for token in targets[:4]:
            mutated = self._spliced(text, token, "gilty")
            with pytest.raises(ParseError) as info:
                parse(mutated)
            self._assert_span_covers(info.value, token)
            assert "guilty" in info.value.expected
