"""Parser and serializer: grammar coverage, error spans, round-trips."""

import importlib.util
import json
import operator
import random
import re
import sys
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
    _lex,
    _read,
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
    Guilty,
    Iff,
    Implies,
    Not,
    OneOfEach,
    Or,
    Puzzle,
    SpeakerType,
    Statement,
    iter_subformulas,
)
from islander.solver import solve

from conftest import CORPUS_NAMES, corpus_text, no_recursion, random_puzzle
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
        tokens = _lex('a\t"x\\"y" # c\r\n  <-> ->;# end')
        assert [(t.kind, t.text, t.line, t.column) for t in tokens] == [
            ("ident", "a", 1, 1), ("string", 'x"y', 1, 3), ("<->", "<->", 2, 3),
            ("->", "->", 2, 7), (";", ";", 2, 9), ("eof", "end of input", 2, 10),
        ]

    def test_end_of_input_after_a_trailing_comment_sits_at_the_hash(self):
        text = "puzzle { suspects A; criminals = 1;  # no closing brace"
        assert _lex(text)[-1].column == text.index("#") + 1
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


def benchmark_texts(seed: int) -> list[str]:
    """The `dsl_roundtrip` benchmark's texts for `seed`, from perfbench/inputs.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclasses look their module up
    spec.loader.exec_module(inputs)
    return [item.text for item in inputs.dsl_pool(seed)]


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


def _kinds_and_texts(tokens) -> list[tuple[str, str]]:
    return [(tok.kind, tok.text) for tok in tokens]


def assert_readers_agree(text: str) -> None:
    """`_read` gives the tokens of `_lex` without their positions, and gives
    up exactly where `_lex` meets a bad character."""
    tokens = _read(text)
    try:
        positioned = _lex(text)
    except ParseError:
        assert tokens is None
        return
    assert tokens is not None
    assert _kinds_and_texts(tokens) == _kinds_and_texts(positioned)


class TestTwoReaders:
    """`parse` reads a text with `_read`, one findall and a lookup per token,
    and only for an error does it read it again with `_lex`, which knows
    where each token is."""

    def test_readers_agree_on_the_golden_texts(self):
        for text in golden_texts().values():
            assert_readers_agree(text)

    def test_readers_agree_on_the_benchmark_texts_and_their_serializations(self):
        for text in benchmark_texts(1):
            assert_readers_agree(text)
            assert_readers_agree(serialize(parse(text)))

    @pytest.mark.parametrize("name", LEXICAL_EDGE_CASES)
    def test_readers_agree_on_edge_cases(self, name):
        text, error = LEXICAL_EDGE_CASES[name]
        assert_readers_agree(text)
        if error is None:
            parse(text)
            return
        with pytest.raises(ParseError) as info:
            parse(text)
        err = info.value
        assert ((err.span.line, err.span.column, err.span.length), err.message,
                err.expected) == error

    def test_a_valid_parse_never_builds_positioned_tokens(self, monkeypatch):
        texts = [corpus_text(name) for name in CORPUS_NAMES]
        texts.append(serialize(parse(benchmark_texts(1)[0])))

        def refuse(text):
            raise AssertionError("a valid text was read with positions")
        monkeypatch.setattr(dsl, "_lex", refuse)
        for text in texts:
            parse(text)


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
        tokens = [t for t in _lex(text) if t.kind not in ("string", "eof")]
        rng = random.Random(hash(name) & 0xFFFF)
        for token in rng.sample(tokens, min(12, len(tokens))):
            mutated = self._spliced(text, token, "~" + token.text[1:])
            with pytest.raises(ParseError) as info:
                parse(mutated)
            self._assert_span_covers(info.value, token)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_keyword_misspelling_mutations(self, name):
        text = corpus_text(name)
        targets = [t for t in _lex(text) if t.kind == "ident" and t.text == "guilty"]
        assert targets, "every corpus file should mention guilt"
        for token in targets[:4]:
            mutated = self._spliced(text, token, "gilty")
            with pytest.raises(ParseError) as info:
                parse(mutated)
            self._assert_span_covers(info.value, token)
            assert "guilty" in info.value.expected
