"""Text format for puzzles: a small `.puz` DSL, its parser and serializer.

The grammar is documented in docs/grammar.md. Parsing is total: any input
either yields a validated Puzzle or raises ParseError with a 1-based source
span covering the offending token. serialize() emits a canonical form with
the round-trip law parse(serialize(p)) == p.

Each piece of syntax is declared once, in a table that the parser, the
serializer, KEYWORDS and the error hints all read. A row of `_ATOMS`, or of
`_TYPECOUNTS` for the typecount forms, gives a keyword, its node class and
the tokens after the keyword: punctuation marks, words and the node's
fields, each read and written as `_FIELDS` says. `_DIRECTIVES` maps each
directive's keyword to the function that reads the rest of it.

Two readers share one token regular expression. `parse` first reads a text
with `_read`: one findall gives every token's text, each distinct text
becomes one shared Token, and no Python code runs per token. Positions are
worked out only to report an error: at a bad character, or when the parse
fails, `parse` reads the text again with `_lex`, whose tokens carry their
line and column, and parses it again to raise the same error at its span.

Formulas are read by precedence climbing over an explicit operator stack,
and validation, serialize(), ==, hash, repr and the `axiom forall`
expansion walk them over explicit stacks too, so any nesting depth or chain
length works. Only eval_formula and check_world, the deliberately plain
reference, recurse: they raise RecursionError about 1000 levels deep (see
docs/grammar.md).
"""

from __future__ import annotations

import re
from functools import reduce
from typing import NamedTuple

from .model import (
    ALL_TYPES,
    COUNT_OPS,
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
    record,
    replace_person,
)


@record
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


# The token classes: kind -> the regular expression of its texts. `string`
# matches only well-formed literals (an unrolled loop, so a missing quote
# cannot make it backtrack); punctuation is listed longest first.
_TOKEN_CLASSES = {
    "ident": r"[A-Za-z_][A-Za-z0-9_]*",
    "punct": r"<->|->|<=|>=|[{}(),;:=]",
    "int": r"[0-9]+",
    "string": r'"[^"\\\n]*(?:\\["\\][^"\\\n]*)*"',
}
# Which class a token text belongs to, by the named group that matches it in
# full. Compiled on first use, by `re`'s own cache.
_CLASS_PATTERN = "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TOKEN_CLASSES.items())

# One match per token: the blanks, newlines and comments before it, then its
# text, the one group: a token of some class, the empty text at the end of
# the input (`\Z`), or any other single character, a bad one. So every
# position of a text starts a match, and no match ever backtracks into the
# blanks. At the end of a text, findall can give two empty texts: one for
# the blanks there, one right after them.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|\#[^\n]*)*(" + "|".join(_TOKEN_CLASSES.values()) + r"|\Z|.)")
_ESCAPE_RE = re.compile(r"\\(.)")
_EOF = Token("eof", "end of input", 0, 0)


def _classify(raws: list[str]) -> dict[str, Token | None]:
    """Each distinct token text that `_TOKEN_RE` captured, mapped to its
    token without a position: the end-of-input token for the empty text,
    None for a bad character."""
    match = re.compile(_CLASS_PATTERN).fullmatch
    table: dict[str, Token | None] = {}
    for raw in set(raws):
        m = match(raw)
        if m is None:
            table[raw] = None if raw else _EOF
        elif m.lastgroup == "punct":
            table[raw] = Token(raw, raw, 0, 0)
        elif m.lastgroup == "string":
            table[raw] = Token("string", _ESCAPE_RE.sub(r"\1", raw[1:-1]), 0, 0)
        else:
            table[raw] = Token(m.lastgroup, raw, 0, 0)
    return table


def _read(text: str) -> list[Token] | None:
    """The tokens of `text`, shared and without positions, or None if it
    holds a bad character: one findall, then one lookup per token."""
    raws = _TOKEN_RE.findall(text)
    table = _classify(raws)
    if None in table.values():
        return None
    if len(raws) > 1 and not raws[-2]:
        raws.pop()  # the second empty text at the end
    return list(map(table.__getitem__, raws))


def _lex(text: str) -> list[Token]:
    """The tokens of `text` with their line and column, or the ParseError at
    its first bad character. The end-of-input token sits at the end of the
    text, or at the '#' of a comment that ends it."""
    table = _classify(_TOKEN_RE.findall(text))
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        raw, start = m[1], m.start(1)
        newlines = text.count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, start) + 1
        column = start - line_start + 1
        tok = table[raw]
        if tok is None:
            if raw == '"':
                raise _bad_string(text, start, line, column)
            raise ParseError(SourceSpan(line, column, 1), f"unexpected character {raw!r}")
        if not raw:
            break
        tokens.append(Token(tok.kind, tok.text, line, column))
        pos = m.end()
    comment = text.find("#", max(pos, line_start))
    if comment != -1:
        column = comment - line_start + 1
    tokens.append(_EOF._replace(line=line, column=column))
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

def _unexpected(tok: Token, expected: tuple[str, ...]) -> ParseError:
    return ParseError(tok.span, f"unexpected token '{tok.text}'", expected)


class _Parser:
    """A cursor over the tokens. Each expect method consumes one token of the
    kind it names or raises ParseError at that token; none accepts the
    end-of-input token, so the cursor never passes it."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def eat_word(self, word: str) -> bool:
        """Consume the reserved word `word` if it comes next."""
        tok = self.tokens[self.pos]
        if tok.kind == "ident" and tok.text == word:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise _unexpected(tok, (what,))
        self.pos += 1
        return tok

    def expect_punct(self, *puncts: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind not in puncts:
            raise _unexpected(tok, tuple(f"'{punct}'" for punct in puncts))
        self.pos += 1
        return tok

    def expect_word(self, *words: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident" or tok.text not in words:
            raise _unexpected(tok, words)
        self.pos += 1
        return tok

    def expect_int(self) -> int:
        tok = self.expect("int", "an integer")
        try:
            return int(tok.text)
        except ValueError:  # longer than the interpreter's int-conversion limit
            raise ParseError(tok.span, f"integer literal of {len(tok.text)} digits is too long")

    def expect_name(self, what: str) -> Token:
        """A fresh identifier, i.e. not one of the grammar's reserved words."""
        tok = self.expect("ident", what)
        if tok.text in KEYWORDS:
            raise ParseError(tok.span, f"the keyword '{tok.text}' cannot be used as {what}")
        return tok


class _PuzzleBuilder:
    def __init__(self) -> None:
        self.suspects: list[str] = []
        self.default_types: frozenset[SpeakerType] = _ISLAND_DOMAINS["mixed"]
        self.explicit_types: dict[str, frozenset[SpeakerType]] = {}
        self.count: CountCmp | None = None
        self.count_axioms: list[Formula] = []
        self.cardinality: TypeCardinality | None = None
        self.cardinality_tok: Token | None = None
        self.statements: list[Statement] = []
        self.labels: set[str] = set()
        self.modeled_labels: set[str] = set()
        self.axioms: list[Formula] = []


# The words of the `island` directive, each with the default type domain it
# gives every suspect, and of a type and an island in `types` and the atoms.
_ISLAND_DOMAINS = {"truthtellers": TRUTH_TELLER_TYPES, "liars": LIAR_TYPES,
                   "mixed": frozenset(ALL_TYPES)}
_TYPE_BY_NAME = {t.value: t for t in ALL_TYPES}
_ISLAND_BY_NAME = {i.value: i for i in Island}


def parse(text: str) -> Puzzle:
    """Parse DSL source into a validated Puzzle, or raise ParseError."""
    tokens = _read(text)
    if tokens is not None:
        try:
            return _parse(tokens)
        except ParseError:
            pass  # raised again below, at a token that knows its position
    return _parse(_lex(text))


def _parse(tokens: list[Token]) -> Puzzle:
    """The puzzle the tokens spell, or the ParseError at the first wrong one.
    Deterministic: the tokens of `_read` and of `_lex` meet the same error."""
    p = _Parser(tokens)
    b = _PuzzleBuilder()

    p.expect_word("puzzle")
    p.expect_punct("{")
    seen: set[str] = set()
    while (head := p.peek()).kind != "}":
        if head.kind != "ident":
            raise _unexpected(head, tuple(_DIRECTIVES))
        if head.text not in _DIRECTIVES:
            raise ParseError(head.span, f"unknown directive '{head.text}'", tuple(_DIRECTIVES))
        if head.text in _ONCE and head.text in seen:
            raise ParseError(head.span, f"duplicate {head.text} directive")
        seen.add(head.text)
        p.pos += 1
        _DIRECTIVES[head.text](p, b, head)
    closing = p.expect_punct("}")
    tail = p.peek()
    if tail.kind != "eof":
        raise ParseError(tail.span, f"unexpected token '{tail.text}' after the puzzle block")

    if not b.suspects:
        raise ParseError(closing.span, "missing suspects directive")
    if b.count is None:
        raise ParseError(closing.span, "missing criminals directive")

    type_domain = {s: b.explicit_types.get(s, b.default_types) for s in b.suspects}

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


def _parse_suspects(p: _Parser, b: _PuzzleBuilder, head: Token) -> None:
    while True:
        tok = p.expect_name("a suspect name")
        if tok.text in b.suspects:
            raise ParseError(tok.span, f"duplicate suspect '{tok.text}'")
        b.suspects.append(tok.text)
        if p.peek().kind != ",":
            break
        p.pos += 1
    p.expect_punct(";")


def _parse_island(p: _Parser, b: _PuzzleBuilder, head: Token) -> None:
    b.default_types = _ISLAND_DOMAINS[p.expect_word(*_ISLAND_DOMAINS).text]
    p.expect_punct(";")


def _parse_types(p: _Parser, b: _PuzzleBuilder, head: Token) -> None:
    suspect_tok = p.peek()
    suspect = _expect_suspect(p, b)
    if suspect in b.explicit_types:
        raise ParseError(suspect_tok.span, f"duplicate types directive for '{suspect}'")
    p.expect_punct(":")
    p.expect_punct("{")
    allowed: set[SpeakerType] = set()
    if p.peek().kind != "}":
        allowed.add(_expect_type(p))
        while p.peek().kind == ",":
            p.pos += 1
            allowed.add(_expect_type(p))
    brace = p.expect_punct("}")
    if not allowed:
        raise ParseError(brace.span, f"empty type domain for suspect '{suspect}'")
    p.expect_punct(";")
    b.explicit_types[suspect] = frozenset(allowed)


def _parse_criminals(p: _Parser, b: _PuzzleBuilder, head: Token) -> None:
    tok = p.peek()
    if tok.kind in COUNT_OPS:
        p.pos += 1
        b.count = CountCmp(tok.kind, p.expect_int())
    elif p.eat_word("in"):
        p.expect_punct("{")
        values: list[int] = [p.expect_int()]
        while p.peek().kind == ",":
            p.pos += 1
            values.append(p.expect_int())
        p.expect_punct("}")
        values = sorted(set(values))
        # Lowered form: a weak lower bound plus a disjunction of exact counts.
        b.count = CountCmp(">=", values[0])
        if len(values) > 1:
            b.count_axioms.append(reduce(Or, [CountCmp("=", v) for v in values]))
    else:
        raise _unexpected(tok, (*(f"'{op}'" for op in COUNT_OPS), "in"))
    p.expect_punct(";")


def _parse_typecount(p: _Parser, b: _PuzzleBuilder, head: Token) -> None:
    form = p.expect_word(*_TYPECOUNTS)
    b.cardinality = _read_row(p, b, frozenset(), _TYPECOUNTS[form.text])
    if isinstance(b.cardinality, AtMostDistinct) and b.cardinality.n < 1:
        raise ParseError(form.span, "at_most_distinct bound must be at least 1")
    b.cardinality_tok = head
    p.expect_punct(";")


def _parse_statement(p: _Parser, b: _PuzzleBuilder, head: Token) -> None:
    label_tok = p.expect_name("a statement label")
    if label_tok.text in b.labels:
        raise ParseError(label_tok.span, f"duplicate statement label '{label_tok.text}'")
    speaker = _expect_suspect(p, b)
    p.expect_punct(":")
    if p.eat_word("unmodeled"):
        text = p.expect("string", "a quoted string").text
        stmt = Statement(label_tok.text, speaker, body=None, text=text)
    else:
        body = _parse_formula(p, b)
        stmt = Statement(label_tok.text, speaker, body=body)
        b.modeled_labels.add(label_tok.text)
    p.expect_punct(";")
    b.labels.add(label_tok.text)
    b.statements.append(stmt)


def _parse_axiom(p: _Parser, b: _PuzzleBuilder, head: Token) -> None:
    if p.eat_word("forall"):
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


# keyword -> the function that reads the rest of the directive, called with
# the keyword's token. The directives in _ONCE may appear at most once.
_DIRECTIVES = {
    "suspects": _parse_suspects, "island": _parse_island, "types": _parse_types,
    "criminals": _parse_criminals, "typecount": _parse_typecount,
    "statement": _parse_statement, "axiom": _parse_axiom,
}
_ONCE = frozenset({"suspects", "island", "criminals", "typecount"})


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


def _expect_suspect(p: _Parser, b: _PuzzleBuilder, extra: frozenset[str] = frozenset()) -> str:
    tok = p.expect("ident", "a suspect name")
    if tok.text not in b.suspects and tok.text not in extra:
        raise ParseError(tok.span, f"unknown suspect '{tok.text}'")
    return tok.text


def _expect_type(p: _Parser, b: object = None, extra: object = None) -> SpeakerType:
    return _TYPE_BY_NAME[p.expect_word(*_TYPE_BY_NAME).text]


def _expect_label(p: _Parser, b: _PuzzleBuilder, extra: object) -> str:
    """The label of an earlier, modeled statement."""
    tok = p.expect("ident", "a statement label")
    if tok.text not in b.labels:
        raise ParseError(
            tok.span, f"truthful() reference to '{tok.text}', which is not an earlier statement")
    if tok.text not in b.modeled_labels:
        raise ParseError(tok.span, f"truthful() reference to unmodeled statement '{tok.text}'")
    return tok.text


def _expect_free_name(p: _Parser, b: object, extra: object) -> str:
    tok = p.expect("string", "a quoted atom name")
    if not re.fullmatch(_TOKEN_CLASSES["ident"], tok.text):
        raise ParseError(tok.span, f"free atom name '{tok.text}' must be an identifier")
    return tok.text


# Each field of the nodes in `_ATOMS` and `_TYPECOUNTS`: how the parser reads
# it, called as reader(parser, builder, extra persons), and how the
# serializer writes it, as a str.format field of the node.
_FIELDS = {
    "person": (_expect_suspect, "{0.person}"),
    "speaker_type": (_expect_type, "{0.speaker_type.value}"),
    "island": (lambda p, b, extra: _ISLAND_BY_NAME[p.expect_word(*_ISLAND_BY_NAME).text],
               "{0.island.value}"),
    "op": (lambda p, b, extra: p.expect_punct(*COUNT_OPS).kind, "{0.op}"),
    "k": (lambda p, b, extra: p.expect_int(), "{0.k}"),
    "n": (lambda p, b, extra: p.expect_int(), "{0.n}"),
    "label": (_expect_label, "{0.label}"),
    "name": (_expect_free_name, '"{0.name}"'),
}

# Every atom but `true` and `false`, and every typecount form: keyword ->
# (node class, the tokens after the keyword). Each token is a punctuation
# mark, a word or one of the node's fields, and the fields come in the order
# of the node's constructor arguments.
_ATOMS = {
    "guilty": (Guilty, "(", "person", ")"),
    "type": (HasType, "(", "person", ")", "=", "speaker_type"),
    "island": (FromIsland, "(", "person", ")", "=", "island"),
    "count": (CountCmp, "op", "k"),
    "truthful": (Truthful, "(", "label", ")"),
    "lies_about_guilt": (LiesWhenAskedGuilt, "(", "person", ")"),
    "knows_whodunit": (KnowsWhodunit, "(", "person", ")"),
    "free": (Free, "(", "name", ")"),
}
_TYPECOUNTS = {
    "one_of_each": (OneOfEach,),
    "exactly": (ExactTruthTellers, "n", "truthtellers"),
    "at_most_distinct": (AtMostDistinct, "n"),
}

ATOM_EXPECTED = (*_ATOMS, "true", "false", "not", "'('")

KEYWORDS = frozenset({
    "puzzle", *_DIRECTIVES, "unmodeled", "forall", "in", *_TYPECOUNTS,
    *_ISLAND_DOMAINS, *_ATOMS, "true", "false", "not", "and", "or", *_TYPE_BY_NAME,
})


def _parse_primary(p, b, extra) -> Formula:
    """One atom; parentheses and `not` are _parse_formula's."""
    tok = p.tokens[p.pos]
    if tok.kind != "ident":
        raise _unexpected(tok, ATOM_EXPECTED)
    row = _ATOMS.get(tok.text)
    if row is None:
        if tok.text != "true" and tok.text != "false":
            raise ParseError(tok.span, f"unknown atom '{tok.text}'", ATOM_EXPECTED)
        p.pos += 1
        return Const(tok.text == "true")
    p.pos += 1
    return _read_row(p, b, extra, row)


def _read_row(p: _Parser, b: _PuzzleBuilder, extra: frozenset[str], row: tuple) -> object:
    """The node of an `_ATOMS` or `_TYPECOUNTS` row, read by one loop over
    the tokens after its keyword."""
    tokens = p.tokens
    args = []
    for slot in row[1:]:
        field = _FIELDS.get(slot)
        if field is not None:
            args.append(field[0](p, b, extra))
        elif tokens[p.pos].text == slot and tokens[p.pos].kind != "string":
            p.pos += 1  # the punctuation mark or word `slot`
        else:
            raise _unexpected(tokens[p.pos], (slot if slot.isidentifier() else f"'{slot}'",))
    return row[0](*args)


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

_SYMBOL = {cls: symbol for symbol, cls in _BINARY.items()}


def _syntax(table: dict[str, tuple]) -> dict[type, str]:
    """Each row's str.format template: its keyword and tokens, with a space
    only between two words (keywords, words and fields)."""
    templates = {}
    for keyword, row in table.items():
        pieces, after_word = [keyword], True
        for slot in row[1:]:
            word = slot.isidentifier()  # a word or a field
            if word and after_word:
                pieces.append(" ")
            pieces.append(_FIELDS[slot][1] if slot in _FIELDS else slot)
            after_word = word
        templates[row[0]] = "".join(pieces)
    return templates


# The concrete syntax of every atom but Const, and of every typecount form.
_ATOM_SYNTAX = _syntax(_ATOMS)
_TYPECOUNT_SYNTAX = _syntax(_TYPECOUNTS)


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
    lines = ["puzzle {", "  suspects " + ", ".join(puzzle.suspects) + ";"]
    for suspect in puzzle.suspects:
        names = [t.value for t in ALL_TYPES if t in puzzle.type_domain[suspect]]
        lines.append(f"  types {suspect}: {{" + ", ".join(names) + "};")
    lines.append(f"  criminals {puzzle.count.op} {puzzle.count.k};")
    card = puzzle.type_cardinality
    if card is not None:
        lines.append(f"  typecount {_TYPECOUNT_SYNTAX[type(card)].format(card)};")
    for stmt in puzzle.statements:
        body = (f'unmodeled "{_escape(stmt.text or "")}"' if stmt.body is None
                else format_formula(stmt.body))
        lines.append(f"  statement {stmt.label} {stmt.speaker}: {body};")
    for axiom in puzzle.axioms:
        lines.append(f"  axiom {format_formula(axiom)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
