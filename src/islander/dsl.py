"""Text format for puzzles: a small `.puz` DSL, its parser and serializer.

The grammar is documented in docs/grammar.md. Parsing is total: any input
either yields a validated Puzzle or raises ParseError with a 1-based source
span covering the offending token. serialize() emits a canonical form with
the round-trip law parse(serialize(p)) == p.

The lexer makes one regular-expression match per token. Formulas are read
by precedence climbing over an explicit operator stack, and validation,
serialize(), ==, hash, repr and the `axiom forall` expansion walk them over
explicit stacks too, so any nesting depth or chain length works. Only
eval_formula and check_world, the deliberately plain reference, recurse:
they raise RecursionError about 1000 levels deep (see docs/grammar.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    ALL_TYPES,
    And,
    AtMostDistinct,
    Const,
    CountCmp,
    ExactTruthTellers,
    Formula,
    Free,
    FromIsland,
    Guilty,
    HasType,
    Iff,
    Implies,
    Island,
    KnowsWhodunit,
    LIAR_TYPES,
    LiesWhenAskedGuilt,
    Not,
    OneOfEach,
    Or,
    Puzzle,
    PuzzleError,
    SpeakerType,
    Statement,
    TRUTH_TELLER_TYPES,
    Truthful,
    TypeCardinality,
    replace_person,
)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str, expected: tuple[str, ...] = ()):
        self.span = span
        self.message = message
        self.expected = expected
        text = f"{span.line}:{span.column}: {message}"
        if expected:
            text += " (expected " + ", ".join(expected) + ")"
        super().__init__(text)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # "ident", "int", "string", "eof", or the punctuation itself
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(1, len(self.text)))


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# One match per token: the blanks before it, then one alternative per token
# class, tried in this order. A comment runs to the end of its line. `string`
# matches only well-formed literals (an unrolled loop, so a missing quote
# cannot make it backtrack). Punctuation is listed longest first. The bare
# `\Z` takes the blanks at the end of the text, and `bad` any other
# character, so every position of a text starts a match.
_TOKEN_RE = re.compile(r"""
    [ \t\r]*
    (?:
        (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct><->|->|<=|>=|[{}(),;:=])
      | (?P<newline>\n)
      | (?P<int>[0-9]+)
      | (?P<comment>\#[^\n]*)
      | (?P<string>"[^"\\\n]*(?:\\["\\][^"\\\n]*)*")
      | \Z
      | (?P<bad>.)
    )
""", re.VERBOSE)
_ESCAPE_RE = re.compile(r"\\(.)")

KEYWORDS = frozenset({
    "puzzle", "suspects", "island", "types", "criminals", "typecount",
    "statement", "axiom", "unmodeled", "forall", "in",
    "one_of_each", "exactly", "at_most_distinct",
    "truthtellers", "liars", "mixed",
    "guilty", "type", "count", "truthful", "lies_about_guilt",
    "knows_whodunit", "free", "true", "false",
    "not", "and", "or",
    *(t.value for t in ALL_TYPES),
})

ATOM_EXPECTED = (
    "guilty", "type", "island", "count", "truthful", "lies_about_guilt",
    "knows_whodunit", "free", "true", "false", "not", "'('",
)


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without NamedTuple's Python-level __new__
    line, line_start, pos, end = 1, 0, 0, len(text)
    eof_column = None
    for m in _TOKEN_RE.finditer(text):
        pos = m.end()
        kind = m.lastgroup
        if kind is None:
            continue
        value = m[kind]
        column = pos - len(value) - line_start + 1
        if kind == "ident" or kind == "int":
            append(new(Token, (kind, value, line, column)))
        elif kind == "punct":
            append(new(Token, (value, value, line, column)))
        elif kind == "newline":
            line += 1
            line_start = pos
        elif kind == "string":
            append(new(Token, ("string", _ESCAPE_RE.sub(r"\1", value[1:-1]), line, column)))
        elif kind == "bad":
            if value == '"':
                raise _bad_string(text, pos - 1, line, column)
            raise ParseError(SourceSpan(line, column, 1), f"unexpected character {value!r}")
        elif pos == end:
            # A comment that ends the text: the end-of-input token sits at its '#'.
            eof_column = column
    append(Token("eof", "end of input", line, eof_column or pos - line_start + 1))
    return tokens


def _bad_string(text: str, i: int, line: int, col: int) -> ParseError:
    """The error for the '"' at text[i], which starts no well-formed string:
    a bad escape, or no closing quote on its line."""
    j, n = i + 1, len(text)
    while j < n and text[j] not in ('"', "\n"):
        if text[j] == "\\":
            if j + 1 >= n or text[j + 1] not in ('"', "\\"):
                return ParseError(SourceSpan(line, col + (j - i), 2),
                                  "bad string escape", ("\\\"", "\\\\"))
            j += 2
        else:
            j += 1
    return ParseError(SourceSpan(line, col, j - i), "unterminated string literal")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def eat_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if not self.at_keyword(word):
            raise ParseError(tok.span, f"unexpected token '{tok.text}'", (word,))
        return self.advance()

    def expect_punct(self, punct: str) -> Token:
        tok = self.peek()
        if tok.kind != punct:
            raise ParseError(tok.span, f"unexpected token '{tok.text}'", (f"'{punct}'",))
        return self.advance()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError(tok.span, f"unexpected token '{tok.text}'", ("an integer",))
        self.advance()
        try:
            return int(tok.text)
        except ValueError:  # longer than the interpreter's int-conversion limit
            raise ParseError(tok.span, f"integer literal of {len(tok.text)} digits is too long")

    def expect_name(self, what: str) -> Token:
        """A fresh identifier, i.e. not one of the grammar's reserved words."""
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(tok.span, f"unexpected token '{tok.text}'", (what,))
        if tok.text in KEYWORDS:
            raise ParseError(tok.span, f"the keyword '{tok.text}' cannot be used as {what}")
        return self.advance()


class _PuzzleBuilder:
    def __init__(self) -> None:
        self.suspects: list[str] = []
        self.island: str | None = None
        self.explicit_types: dict[str, frozenset[SpeakerType]] = {}
        self.count: CountCmp | None = None
        self.count_axioms: list[Formula] = []
        self.cardinality: TypeCardinality | None = None
        self.cardinality_tok: Token | None = None
        self.statements: list[Statement] = []
        self.labels: set[str] = set()
        self.modeled_labels: set[str] = set()
        self.axioms: list[Formula] = []


_TYPE_BY_NAME = {t.value: t for t in ALL_TYPES}
_SPEAKER_TYPE_NAMES = tuple(t.value for t in ALL_TYPES)


def parse(text: str) -> Puzzle:
    """Parse DSL source into a validated Puzzle, or raise ParseError."""
    p = _Parser(_lex(text))
    b = _PuzzleBuilder()

    p.expect_keyword("puzzle")
    p.expect_punct("{")
    while p.peek().kind != "}":
        _parse_item(p, b)
    closing = p.expect_punct("}")
    tail = p.peek()
    if tail.kind != "eof":
        raise ParseError(tail.span, f"unexpected token '{tail.text}' after the puzzle block")

    if not b.suspects:
        raise ParseError(closing.span, "missing suspects directive")
    if b.count is None:
        raise ParseError(closing.span, "missing criminals directive")

    default = {"truthtellers": TRUTH_TELLER_TYPES, "liars": LIAR_TYPES}.get(
        b.island, frozenset(ALL_TYPES))
    type_domain = {s: b.explicit_types.get(s, default) for s in b.suspects}

    if isinstance(b.cardinality, OneOfEach) and len(b.suspects) != len(ALL_TYPES):
        raise ParseError(b.cardinality_tok.span,
                         "typecount one_of_each needs exactly four suspects")
    if isinstance(b.cardinality, ExactTruthTellers) and b.cardinality.n > len(b.suspects):
        raise ParseError(b.cardinality_tok.span,
                         "typecount exceeds the number of suspects")

    try:
        return Puzzle(
            suspects=tuple(b.suspects),
            type_domain=type_domain,
            count=b.count,
            statements=tuple(b.statements),
            axioms=tuple(b.count_axioms) + tuple(b.axioms),
            type_cardinality=b.cardinality,
        )
    except PuzzleError as exc:  # backstop; parser checks should catch all of these
        raise ParseError(closing.span, str(exc)) from exc


def _parse_item(p: _Parser, b: _PuzzleBuilder) -> None:
    tok = p.peek()
    if tok.kind != "ident":
        raise ParseError(
            tok.span, f"unexpected token '{tok.text}'",
            ("suspects", "island", "types", "criminals", "typecount", "statement", "axiom"),
        )
    if tok.text == "suspects":
        _parse_suspects(p, b)
    elif tok.text == "island":
        _parse_island(p, b)
    elif tok.text == "types":
        _parse_types(p, b)
    elif tok.text == "criminals":
        _parse_criminals(p, b)
    elif tok.text == "typecount":
        _parse_typecount(p, b)
    elif tok.text == "statement":
        _parse_statement(p, b)
    elif tok.text == "axiom":
        _parse_axiom(p, b)
    else:
        raise ParseError(
            tok.span, f"unknown directive '{tok.text}'",
            ("suspects", "island", "types", "criminals", "typecount", "statement", "axiom"),
        )


def _parse_suspects(p: _Parser, b: _PuzzleBuilder) -> None:
    head = p.expect_keyword("suspects")
    if b.suspects:
        raise ParseError(head.span, "duplicate suspects directive")
    while True:
        tok = p.expect_name("a suspect name")
        if tok.text in b.suspects:
            raise ParseError(tok.span, f"duplicate suspect '{tok.text}'")
        b.suspects.append(tok.text)
        if p.peek().kind != ",":
            break
        p.advance()
    p.expect_punct(";")


def _parse_island(p: _Parser, b: _PuzzleBuilder) -> None:
    head = p.expect_keyword("island")
    if b.island is not None:
        raise ParseError(head.span, "duplicate island directive")
    tok = p.peek()
    if tok.kind == "ident" and tok.text in ("truthtellers", "liars", "mixed"):
        p.advance()
        b.island = tok.text
    else:
        raise ParseError(tok.span, f"unexpected token '{tok.text}'",
                         ("truthtellers", "liars", "mixed"))
    p.expect_punct(";")


def _expect_suspect(p: _Parser, b: _PuzzleBuilder, extra: frozenset[str] = frozenset()) -> str:
    tok = p.peek()
    if tok.kind != "ident":
        raise ParseError(tok.span, f"unexpected token '{tok.text}'", ("a suspect name",))
    if tok.text not in b.suspects and tok.text not in extra:
        raise ParseError(tok.span, f"unknown suspect '{tok.text}'")
    p.advance()
    return tok.text


def _expect_type_name(p: _Parser) -> SpeakerType:
    tok = p.peek()
    if tok.kind == "ident" and tok.text in _TYPE_BY_NAME:
        p.advance()
        return _TYPE_BY_NAME[tok.text]
    raise ParseError(tok.span, f"unexpected token '{tok.text}'", _SPEAKER_TYPE_NAMES)


def _parse_types(p: _Parser, b: _PuzzleBuilder) -> None:
    p.expect_keyword("types")
    suspect_tok = p.peek()
    suspect = _expect_suspect(p, b)
    if suspect in b.explicit_types:
        raise ParseError(suspect_tok.span, f"duplicate types directive for '{suspect}'")
    p.expect_punct(":")
    p.expect_punct("{")
    allowed: set[SpeakerType] = set()
    while p.peek().kind != "}":
        allowed.add(_expect_type_name(p))
        if p.peek().kind == ",":
            p.advance()
        else:
            break
    brace = p.expect_punct("}")
    if not allowed:
        raise ParseError(brace.span, f"empty type domain for suspect '{suspect}'")
    p.expect_punct(";")
    b.explicit_types[suspect] = frozenset(allowed)


def _parse_criminals(p: _Parser, b: _PuzzleBuilder) -> None:
    head = p.expect_keyword("criminals")
    if b.count is not None:
        raise ParseError(head.span, "duplicate criminals directive")
    tok = p.peek()
    if tok.kind in ("=", "<=", ">="):
        p.advance()
        b.count = CountCmp(tok.kind, p.expect_int())
    elif p.at_keyword("in"):
        p.advance()
        p.expect_punct("{")
        values: list[int] = [p.expect_int()]
        while p.peek().kind == ",":
            p.advance()
            values.append(p.expect_int())
        p.expect_punct("}")
        values = sorted(set(values))
        # Lowered form: a weak lower bound plus a disjunction of exact counts.
        b.count = CountCmp(">=", values[0])
        if len(values) > 1:
            disjunction: Formula = CountCmp("=", values[0])
            for v in values[1:]:
                disjunction = Or(disjunction, CountCmp("=", v))
            b.count_axioms.append(disjunction)
    else:
        raise ParseError(tok.span, f"unexpected token '{tok.text}'",
                         ("'='", "'<='", "'>='", "in"))
    p.expect_punct(";")


def _parse_typecount(p: _Parser, b: _PuzzleBuilder) -> None:
    head = p.expect_keyword("typecount")
    if b.cardinality is not None:
        raise ParseError(head.span, "duplicate typecount directive")
    tok = p.peek()
    if p.eat_keyword("one_of_each"):
        b.cardinality = OneOfEach()
    elif p.eat_keyword("exactly"):
        n = p.expect_int()
        p.expect_keyword("truthtellers")
        b.cardinality = ExactTruthTellers(n)
    elif p.eat_keyword("at_most_distinct"):
        n = p.expect_int()
        if n < 1:
            raise ParseError(tok.span, "at_most_distinct bound must be at least 1")
        b.cardinality = AtMostDistinct(n)
    else:
        raise ParseError(tok.span, f"unexpected token '{tok.text}'",
                         ("one_of_each", "exactly", "at_most_distinct"))
    b.cardinality_tok = head
    p.expect_punct(";")


def _parse_statement(p: _Parser, b: _PuzzleBuilder) -> None:
    p.expect_keyword("statement")
    label_tok = p.expect_name("a statement label")
    if label_tok.text in b.labels:
        raise ParseError(label_tok.span, f"duplicate statement label '{label_tok.text}'")
    speaker = _expect_suspect(p, b)
    p.expect_punct(":")
    if p.at_keyword("unmodeled"):
        p.advance()
        text_tok = p.peek()
        if text_tok.kind != "string":
            raise ParseError(text_tok.span, f"unexpected token '{text_tok.text}'",
                             ("a quoted string",))
        p.advance()
        stmt = Statement(label_tok.text, speaker, body=None, text=text_tok.text)
    else:
        body = _parse_formula(p, b)
        stmt = Statement(label_tok.text, speaker, body=body)
        b.modeled_labels.add(label_tok.text)
    p.expect_punct(";")
    b.labels.add(label_tok.text)
    b.statements.append(stmt)


def _parse_axiom(p: _Parser, b: _PuzzleBuilder) -> None:
    p.expect_keyword("axiom")
    if p.at_keyword("forall"):
        p.advance()
        var_tok = p.expect_name("a quantifier variable")
        if var_tok.text in b.suspects:
            raise ParseError(var_tok.span,
                             f"forall variable '{var_tok.text}' shadows a suspect")
        p.expect_punct(":")
        template = _parse_formula(p, b, extra_persons=frozenset({var_tok.text}))
        for suspect in b.suspects:
            b.axioms.append(replace_person(template, var_tok.text, suspect))
    else:
        b.axioms.append(_parse_formula(p, b))
    p.expect_punct(";")


# Connective precedence, shared with the serializer: `not` binds tightest,
# `->` and `<->` group to the right, `and` and `or` to the left.
_PRECEDENCE = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}
_BINARY = {"<->": Iff, "->": Implies, "or": Or, "and": And}
_RIGHT_ASSOC = (Iff, Implies)
# Operator-stack entries for "(" and "not"; a binary operator is pushed as
# (precedence, node class, left operand).
_OPEN = (0, None, None)
_NOT = (_PRECEDENCE[Not], Not, None)


def _parse_formula(p: _Parser, b: _PuzzleBuilder,
                   extra_persons: frozenset[str] = frozenset()) -> Formula:
    """Precedence climbing over an explicit operator stack, so nesting depth
    and chain length never touch the Python stack. The grammar is the one in
    docs/grammar.md; errors are raised at the same tokens as by a recursive
    descent over it."""
    tokens = p.tokens
    stack: list[tuple] = []
    while True:
        tok = tokens[p.pos]
        if tok.kind == "(":
            stack.append(_OPEN)
            p.pos += 1
            continue
        if tok.kind == "ident" and tok.text == "not":
            stack.append(_NOT)
            p.pos += 1
            continue
        value = _parse_primary(p, b, extra_persons)
        while True:  # operator position, with `value` the operand just read
            tok = tokens[p.pos]
            op = _BINARY.get(tok.text if tok.kind == "ident" else tok.kind)
            if op is None:
                floor = 0  # the formula or a parenthesis ends here
            else:
                floor = _PRECEDENCE[op] - (op not in _RIGHT_ASSOC)
            while stack and stack[-1][0] > floor:
                _, node, left = stack.pop()
                value = node(value) if left is None else node(left, value)
            if op is not None:
                stack.append((_PRECEDENCE[op], op, value))
                p.pos += 1
                break
            if not stack:
                return value
            p.expect_punct(")")
            stack.pop()


# Atoms of the form `name(person)`.
_PERSON_ATOMS = {"guilty": Guilty, "lies_about_guilt": LiesWhenAskedGuilt,
                 "knows_whodunit": KnowsWhodunit}


def _parse_primary(p, b, extra) -> Formula:
    """One atom; parentheses and `not` are _parse_formula's."""
    tok = p.peek()
    if tok.kind != "ident":
        raise ParseError(tok.span, f"unexpected token '{tok.text}'", ATOM_EXPECTED)

    atom = _PERSON_ATOMS.get(tok.text)
    if atom is not None:
        p.advance()
        p.expect_punct("(")
        person = _expect_suspect(p, b, extra)
        p.expect_punct(")")
        return atom(person)
    if tok.text == "type":
        p.advance()
        p.expect_punct("(")
        person = _expect_suspect(p, b, extra)
        p.expect_punct(")")
        p.expect_punct("=")
        return HasType(person, _expect_type_name(p))
    if tok.text == "island":
        p.advance()
        p.expect_punct("(")
        person = _expect_suspect(p, b, extra)
        p.expect_punct(")")
        p.expect_punct("=")
        isl_tok = p.peek()
        if isl_tok.kind == "ident" and isl_tok.text in ("truthtellers", "liars"):
            p.advance()
            return FromIsland(person, Island(isl_tok.text))
        raise ParseError(isl_tok.span, f"unexpected token '{isl_tok.text}'",
                         ("truthtellers", "liars"))
    if tok.text == "count":
        p.advance()
        op_tok = p.peek()
        if op_tok.kind not in ("=", "<=", ">="):
            raise ParseError(op_tok.span, f"unexpected token '{op_tok.text}'",
                             ("'='", "'<='", "'>='"))
        p.advance()
        return CountCmp(op_tok.kind, p.expect_int())
    if tok.text == "truthful":
        p.advance()
        p.expect_punct("(")
        label_tok = p.peek()
        if label_tok.kind != "ident":
            raise ParseError(label_tok.span, f"unexpected token '{label_tok.text}'",
                             ("a statement label",))
        if label_tok.text not in b.labels:
            raise ParseError(
                label_tok.span,
                f"truthful() reference to '{label_tok.text}', which is not an earlier statement",
            )
        if label_tok.text not in b.modeled_labels:
            raise ParseError(label_tok.span,
                             f"truthful() reference to unmodeled statement '{label_tok.text}'")
        p.advance()
        p.expect_punct(")")
        return Truthful(label_tok.text)
    if tok.text == "free":
        p.advance()
        p.expect_punct("(")
        name_tok = p.peek()
        if name_tok.kind != "string":
            raise ParseError(name_tok.span, f"unexpected token '{name_tok.text}'",
                             ("a quoted atom name",))
        if not _IDENT_RE.fullmatch(name_tok.text):
            raise ParseError(name_tok.span,
                             f"free atom name '{name_tok.text}' must be an identifier")
        p.advance()
        p.expect_punct(")")
        return Free(name_tok.text)
    if tok.text == "true":
        p.advance()
        return Const(True)
    if tok.text == "false":
        p.advance()
        return Const(False)
    raise ParseError(tok.span, f"unknown atom '{tok.text}'", ATOM_EXPECTED)


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

_SYMBOL = {cls: symbol for symbol, cls in _BINARY.items()}
# The concrete syntax of every atom but Const, as str.format templates.
_ATOM_SYNTAX = {
    Guilty: "guilty({0.person})", HasType: "type({0.person})={0.speaker_type.value}",
    FromIsland: "island({0.person})={0.island.value}", CountCmp: "count {0.op} {0.k}",
    Truthful: "truthful({0.label})", LiesWhenAskedGuilt: "lies_about_guilt({0.person})",
    KnowsWhodunit: "knows_whodunit({0.person})", Free: 'free("{0.name}")',
}


def format_formula(formula: Formula) -> str:
    """Deterministic concrete syntax, parenthesized just enough to reparse
    into a structurally identical tree: one in-order walk over an explicit
    stack of formulas and text pieces, so depth never touches the Python stack."""
    parts: list[str] = []
    text, stack = parts.append, [formula]

    def push_operand(operand: Formula, bound: int) -> None:
        if _PRECEDENCE.get(type(operand), 6) < bound:  # atoms bind tightest: 6
            stack.extend((")", operand, "("))
        else:
            stack.append(operand)

    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is str:
            text(node)
        elif kind in _ATOM_SYNTAX:
            text(_ATOM_SYNTAX[kind].format(node))
        elif kind is Const:
            text("true" if node.value else "false")
        elif kind is Not:
            text("not ")
            push_operand(node.operand, _PRECEDENCE[Not])
        elif kind in _SYMBOL:
            # An operand of equal precedence is parenthesized on the side the
            # connective does not group to.
            prec, right_assoc = _PRECEDENCE[kind], kind in _RIGHT_ASSOC
            push_operand(node.right, prec + (not right_assoc))
            stack.append(f" {_SYMBOL[kind]} ")
            push_operand(node.left, prec + right_assoc)
        else:
            raise ValueError(f"cannot format {node!r}")
    return "".join(parts)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def serialize(puzzle: Puzzle) -> str:
    """Canonical DSL text for a well-formed puzzle.

    Type domains are always written explicitly (no island shorthand), so two
    structurally equal puzzles serialize to identical bytes.
    """
    lines = ["puzzle {"]
    lines.append("  suspects " + ", ".join(puzzle.suspects) + ";")
    for suspect in puzzle.suspects:
        names = [t.value for t in ALL_TYPES if t in puzzle.type_domain[suspect]]
        lines.append(f"  types {suspect}: {{" + ", ".join(names) + "};")
    lines.append(f"  criminals {puzzle.count.op} {puzzle.count.k};")
    card = puzzle.type_cardinality
    if isinstance(card, OneOfEach):
        lines.append("  typecount one_of_each;")
    elif isinstance(card, ExactTruthTellers):
        lines.append(f"  typecount exactly {card.n} truthtellers;")
    elif isinstance(card, AtMostDistinct):
        lines.append(f"  typecount at_most_distinct {card.n};")
    for stmt in puzzle.statements:
        if stmt.body is None:
            lines.append(
                f'  statement {stmt.label} {stmt.speaker}: unmodeled "{_escape(stmt.text or "")}";'
            )
        else:
            lines.append(
                f"  statement {stmt.label} {stmt.speaker}: {format_formula(stmt.body)};"
            )
    for axiom in puzzle.axioms:
        lines.append(f"  axiom {format_formula(axiom)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
