"""Text format for puzzles: a small `.puz` DSL, its parser and serializer.

The grammar is documented in docs/grammar.md. Parsing is total: any input
either yields a valid Puzzle or raises ParseError with a 1-based source span
covering the offending token. The parser is the one check on a parsed
puzzle: it checks every name, reference and bound as it reads it, and builds
the Puzzle without `Puzzle.validate`, which checks a hand-built one.
serialize() emits a canonical form with the round-trip law
parse(serialize(p)) == p.

Each piece of syntax is declared once, in a table that the parser, the
serializer, KEYWORDS and the error hints all read. A row of `_ATOMS`, or of
`_TYPECOUNTS` for the typecount forms, gives a keyword, its node class and
the tokens after the keyword: punctuation marks, words and the node's
fields, each read and written as `_FIELDS` says. `_DIRECTIVES` maps each
directive's keyword to the function that reads the rest of it.

One reader lexes a text: `_read` runs one findall of a lexer, each distinct
token text becomes one shared Token, and no Python code runs per token.
The fine lexer, `_FINE_RE`, gives one token per name, mark, integer and
string. The parse lexer, `_TOKEN_RE`, also reads an atom written exactly as
serialize() writes it, such as `guilty(Ada3)`, `type(Bo7)=AL` or
`count >= 2`, as one token of kind "atom"; its regular expression is built
from the atom table, and any other spacing, or a comment inside an atom,
gives the fine tokens. Texts once classified, and the fine texts within
compact atoms, are kept for later parses, in one table with a fixed cap. A
compact atom's token carries its node, built once in the process, when its
text is first lexed: what its fine tokens read to wherever its person is a
suspect and its label that of an earlier modeled statement. A token
carries no position, but it carries its role in a formula, recorded when
its text is first classified: an operator's precedence row (`or`, `and`,
`->`, `<->`), or the operator-stack entry of `(` or `not`. A string token
has no role, whatever its text.

A compact atom is only a fast path. A parse takes its node wherever it
fits the puzzle read so far, its person a suspect and its label that of an
earlier modeled statement, so equal compact atoms within one text, which
share one token, are one node. Anywhere else, an atom whose node does not
fit or that has none (an integer past the interpreter's conversion limit, a
free atom name that is not an identifier) or an atom where no atom may
stand, the parse fails at its token. A failed parse is read again from
fine tokens; its error is theirs. It names the index of its fine token, and
`parse` works out that token's line and column only then, by one walk of
the fine lexer. An atom spelled any other way is read where it stands, from
its fine tokens, every time. serialize() formats each distinct atom node
once.

Formulas are read by precedence climbing over an explicit operator stack,
one loop that reads each token's role, takes each fitting compact atom's
node and steps over each `)` itself, so a compact text's formulas cost no
call per token; only an atom spelled in fine tokens, `true` and `false`
are read by a call. Validation, serialize(), ==, hash, repr, the `axiom
forall` expansion and eval_formula, with check_world through it, walk
formulas over explicit stacks too, so any nesting depth or chain length
works.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import islice
from typing import NamedTuple

from .model import (
    ALL_TYPES,
    COUNT_OPS,
    And,
    AtMostDistinct,
    Const,
    CountCmp,
    ExactTruthTellers,
    FALSE,
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
    SpeakerType,
    Statement,
    TRUE,
    TRUTH_TELLER_TYPES,
    Truthful,
    TypeCardinality,
    _NAME_RE,
    _is_name,
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
    kind: str  # "ident", "int", "string", "atom", "eof", or the punctuation itself
    text: str
    # A compact atom's node, as its fine tokens read to where they fit the
    # puzzle: built once, when its text is first lexed (see `_node`).
    node: Formula | None = None
    # The token's role in a formula, set by `_classify` from `_ROLES`: an
    # operator's `_INFIX` row, or the operator-stack entry that "(" and
    # `not` push where an operand stands. A string token has neither.
    infix: tuple | None = None
    opening: tuple | None = None


class _Failure(Exception):
    """A ParseError at the index-th token, before its line and column are
    worked out: args are (index, message, expected)."""

    def __init__(self, index: int, message: str,
                 expected: tuple[str, ...] = ()):
        super().__init__(index, message, expected)


# The token classes: kind -> the regular expression of its texts. `string`
# matches only well-formed literals (an unrolled loop, so a missing quote
# cannot make it backtrack); punctuation is listed longest first.
_TOKEN_CLASSES = {
    "ident": _NAME_RE.pattern,
    "punct": r"<->|->|<=|>=|[{}(),;:=]",
    "int": r"[0-9]+",
    "string": r'"[^"\\\n]*(?:\\["\\][^"\\\n]*)*"',
}
# Which class a token text belongs to, by the named group that matches it in
# full. Compiled on first use, by `re`'s own cache.
_CLASS_PATTERN = "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TOKEN_CLASSES.items())
# The fine token texts within a token text: two or more only in a compact
# atom, which holds no blanks but the single spaces between its words.
_PART_RE = re.compile("|".join(_TOKEN_CLASSES.values()))


def _lexer(*first: str) -> re.Pattern[str]:
    """One match per token: the blanks, newlines and comments before it, then
    its text, the one group: a token of the `first` patterns or of some
    class, the empty text at the end of the input (`\\Z`), or any other
    single character, a bad one. So every position of a text starts a match,
    and no match ever backtracks into the blanks. At the end of a text,
    findall can give two empty texts: one for the blanks there, one right
    after them."""
    return re.compile(r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*("
                      + "|".join((*first, *_TOKEN_CLASSES.values(), r"\Z", ".")) + ")")


# The lexer, `_TOKEN_RE`, is built after the atom table below: it puts one
# alternative for each atom ahead of the token classes, so an atom written
# as serialize() writes it is one token.
_ESCAPE_RE = re.compile(r"\\(.)")
_EOF = Token("eof", "end of input")


def _classify(raws: list[str]) -> dict[str, Token | None]:
    """Each distinct fine token text, one that a lexer captured or one within
    a compact atom, mapped to its token without a position, with its role in
    a formula: the end-of-input token for the empty text, None for a bad
    character."""
    match = re.compile(_CLASS_PATTERN).fullmatch
    table: dict[str, Token | None] = {}
    for raw in set(raws):
        m = match(raw)
        if m is None:
            table[raw] = None if raw else _EOF
        elif m.lastgroup == "string":
            table[raw] = Token("string", _ESCAPE_RE.sub(r"\1", raw[1:-1]))
        else:
            kind = raw if m.lastgroup == "punct" else m.lastgroup
            table[raw] = Token(kind, raw, None, *_ROLES.get(raw, ()))
    return table


# Token texts classified by earlier parses, since keywords, punctuation and
# most names recur from text to text: compact atoms, and the fine texts
# within them and of every other token. A bad character is never kept, and
# the table holds at most _KNOWN_CAP texts: a parse that would pass the cap
# starts a new one from its own texts (and keeps the old one if its own
# texts alone pass it).
_known: dict[str, Token] = {}
_KNOWN_CAP = 4096


def _read(text: str, lexer: re.Pattern[str]) -> tuple[Token, ...]:
    """The tokens `lexer` finds in `text`, shared and without positions: one
    findall, then one lookup per token. The fine texts new to the table,
    those within new compact atoms among them, are classified by one
    `_classify` call, and each new compact atom's node is built from its
    fine tokens. A bad character fails at its index."""
    global _known
    raws = lexer.findall(text)
    if len(raws) > 1 and not raws[-2]:
        raws.pop()  # the second empty text at the end
    known, distinct = _known, set(raws)
    fresh = distinct.difference(known)
    compact = {raw: parts for raw in fresh if len(parts := _PART_RE.findall(raw)) > 1}
    new = _classify(fresh.difference(compact).union(*compact.values()).difference(known))
    if None in new.values():
        index = next(i for i, raw in enumerate(raws) if raw in new and new[raw] is None)
        raise _Failure(index, f"unexpected character {raws[index]!r}")
    for raw, parts in compact.items():
        new[raw] = Token("atom", raw, _node(tuple(new.get(part) or known[part] for part in parts)))
    if new:
        if len(known) + len(new) > _KNOWN_CAP:
            # A new table, of this text's tokens alone.
            known = {raw: known[raw] for raw in distinct.difference(new)}
        known.update(new)
        if len(known) <= _KNOWN_CAP:
            _known = known
    return tuple(map(known.__getitem__, raws))


def _locate(text: str, index: int) -> tuple[str, int, int, int]:
    """The fine token text at `index` that `_read` finds in `text`, with its
    offset, line and column: one walk of the fine lexer. The end of input
    sits at the end of the text, or at the '#' of a comment that ends it."""
    m = next(islice(_FINE_RE.finditer(text), index, None))
    raw, start = m[1], m.start(1)
    line_start = text.rfind("\n", 0, start) + 1
    if not raw and (comment := text.find("#", max(m.start(), line_start))) != -1:
        start = comment
    return raw, start, text.count("\n", 0, start) + 1, start - line_start + 1


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
    """A cursor over the tokens. Each expect method consumes one token of the
    kind it names or fails at that token; none accepts the end-of-input
    token, so the cursor never passes it. A failure names the index of its
    token: `pos` for the next one, `pos - 1` for the one just consumed."""

    def __init__(self, tokens: tuple[Token, ...], pos: int = 0):
        self.tokens = tokens
        self.pos = pos

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def unexpected(self, expected: tuple[str, ...]) -> _Failure:
        """The failure at the next token, which is none of `expected`."""
        return _Failure(self.pos, f"unexpected token '{self.tokens[self.pos].text}'", expected)

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
            raise self.unexpected((what,))
        self.pos += 1
        return tok

    def expect_punct(self, *puncts: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind not in puncts:
            raise self.unexpected(tuple(f"'{punct}'" for punct in puncts))
        self.pos += 1
        return tok

    def expect_word(self, *words: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident" or tok.text not in words:
            raise self.unexpected(words)
        self.pos += 1
        return tok

    def expect_int(self) -> int:
        tok = self.expect("int", "an integer")
        try:
            return int(tok.text)
        except ValueError:  # longer than the interpreter's int-conversion limit
            raise _Failure(self.pos - 1, f"integer literal of {len(tok.text)} digits is too long")

    def expect_name(self, what: str) -> Token:
        """A fresh identifier, i.e. not one of the grammar's reserved words."""
        tok = self.expect("ident", what)
        if tok.text in KEYWORDS:
            raise _Failure(self.pos - 1, f"the keyword '{tok.text}' cannot be used as {what}")
        return tok


class _PuzzleBuilder:
    def __init__(self) -> None:
        self.suspects: dict[str, None] = {}  # the roster, in order
        self.default_types: frozenset[SpeakerType] = _ISLAND_DOMAINS["mixed"]
        self.explicit_types: dict[str, frozenset[SpeakerType]] = {}
        self.count: CountCmp | None = None
        self.count_axioms: list[Formula] = []
        self.cardinality: TypeCardinality | None = None
        self.cardinality_at = 0  # the index of the typecount keyword
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
    """Parse DSL source into a valid Puzzle, checked as it is read, or raise
    ParseError.

    A failed parse is read again from fine tokens; its error is theirs."""
    try:
        return _parse(_read(text, _TOKEN_RE))
    except _Failure:
        pass
    try:
        return _parse(_read(text, _FINE_RE))
    except _Failure as failure:
        index, message, expected = failure.args
    raw, start, line, column = _locate(text, index)
    if raw == '"':
        raise _bad_string(text, start, line, column) from None
    # The token as written; the end of input spans its name, "end of input".
    length = len(raw) or len(_EOF.text)
    raise ParseError(SourceSpan(line, column, length), message, expected) from None


def _parse(tokens: tuple[Token, ...]) -> Puzzle:
    """The puzzle the tokens spell, or the failure at the first wrong one."""
    p = _Parser(tokens)
    b = _PuzzleBuilder()

    p.expect_word("puzzle")
    p.expect_punct("{")
    seen: set[str] = set()
    while (head := p.peek()).kind != "}":
        if head.kind != "ident":
            raise p.unexpected(tuple(_DIRECTIVES))
        if head.text not in _DIRECTIVES:
            raise _Failure(p.pos, f"unknown directive '{head.text}'", tuple(_DIRECTIVES))
        if head.text in _ONCE and head.text in seen:
            raise _Failure(p.pos, f"duplicate {head.text} directive")
        seen.add(head.text)
        p.pos += 1
        _DIRECTIVES[head.text](p, b)
    p.expect_punct("}")
    closing = p.pos - 1
    tail = p.peek()
    if tail.kind != "eof":
        raise _Failure(p.pos, f"unexpected token '{tail.text}' after the puzzle block")

    if not b.suspects:
        raise _Failure(closing, "missing suspects directive")
    if b.count is None:
        raise _Failure(closing, "missing criminals directive")

    type_domain = {s: b.explicit_types.get(s, b.default_types) for s in b.suspects}

    if isinstance(b.cardinality, OneOfEach) and len(b.suspects) != len(ALL_TYPES):
        raise _Failure(b.cardinality_at, "typecount one_of_each needs exactly four suspects")
    if isinstance(b.cardinality, ExactTruthTellers) and b.cardinality.n > len(b.suspects):
        raise _Failure(b.cardinality_at, "typecount exceeds the number of suspects")

    # Every check of Puzzle.validate was made above, at a token.
    return Puzzle._unchecked(
        suspects=tuple(b.suspects),
        type_domain=type_domain,
        count=b.count,
        statements=tuple(b.statements),
        axioms=tuple(b.count_axioms) + tuple(b.axioms),
        type_cardinality=b.cardinality,
    )


def _parse_suspects(p: _Parser, b: _PuzzleBuilder) -> None:
    while True:
        tok = p.expect_name("a suspect name")
        if tok.text in b.suspects:
            raise _Failure(p.pos - 1, f"duplicate suspect '{tok.text}'")
        b.suspects[tok.text] = None
        if p.peek().kind != ",":
            break
        p.pos += 1
    p.expect_punct(";")


def _parse_island(p: _Parser, b: _PuzzleBuilder) -> None:
    b.default_types = _ISLAND_DOMAINS[p.expect_word(*_ISLAND_DOMAINS).text]
    p.expect_punct(";")


def _parse_types(p: _Parser, b: _PuzzleBuilder) -> None:
    suspect = _expect_suspect(p, b)
    if suspect in b.explicit_types:
        raise _Failure(p.pos - 1, f"duplicate types directive for '{suspect}'")
    p.expect_punct(":")
    p.expect_punct("{")
    allowed: set[SpeakerType] = set()
    if p.peek().kind != "}":
        allowed.add(_expect_type(p))
        while p.peek().kind == ",":
            p.pos += 1
            allowed.add(_expect_type(p))
    p.expect_punct("}")
    if not allowed:
        raise _Failure(p.pos - 1, f"empty type domain for suspect '{suspect}'")
    p.expect_punct(";")
    b.explicit_types[suspect] = frozenset(allowed)


def _parse_criminals(p: _Parser, b: _PuzzleBuilder) -> None:
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
        # Lowered form: one value is an exact count, more a weak lower bound
        # plus a disjunction of exact counts.
        if len(values) == 1:
            b.count = CountCmp("=", values[0])
        else:
            b.count = CountCmp(">=", values[0])
            b.count_axioms.append(reduce(Or, [CountCmp("=", v) for v in values]))
    else:
        raise p.unexpected((*(f"'{op}'" for op in COUNT_OPS), "in"))
    p.expect_punct(";")


def _parse_typecount(p: _Parser, b: _PuzzleBuilder) -> None:
    b.cardinality_at = p.pos - 1
    form = p.expect_word(*_TYPECOUNTS)
    b.cardinality = _read_row(p, b, _TYPECOUNTS[form.text])
    if isinstance(b.cardinality, AtMostDistinct) and b.cardinality.n < 1:
        raise _Failure(b.cardinality_at + 1, "at_most_distinct bound must be at least 1")
    p.expect_punct(";")


def _parse_statement(p: _Parser, b: _PuzzleBuilder) -> None:
    label_tok = p.expect_name("a statement label")
    if label_tok.text in b.labels:
        raise _Failure(p.pos - 1, f"duplicate statement label '{label_tok.text}'")
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


def _parse_axiom(p: _Parser, b: _PuzzleBuilder) -> None:
    if p.eat_word("forall"):
        var = p.expect_name("a quantifier variable").text
        if var in b.suspects:
            raise _Failure(p.pos - 1, f"forall variable '{var}' shadows a suspect")
        p.expect_punct(":")
        # The variable is a suspect in the template alone.
        suspects = b.suspects
        b.suspects = {**suspects, var: None}
        template = _parse_formula(p, b)
        b.suspects = suspects
        for suspect in b.suspects:
            b.axioms.append(replace_person(template, var, suspect))
    else:
        b.axioms.append(_parse_formula(p, b))
    p.expect_punct(";")


# keyword -> the function that reads the rest of the directive, called
# after its keyword. The directives in _ONCE may appear at most once.
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
# An operator's token text -> (its precedence, its node class, the floor: an
# operator on the stack above it is applied before it is pushed).
_INFIX = {symbol: (_PRECEDENCE[cls], cls, _PRECEDENCE[cls] - (cls not in _RIGHT_ASSOC))
          for symbol, cls in _BINARY.items()}
# Operator-stack entries for "(" and "not"; a binary operator is pushed as
# (precedence, node class, left operand).
_OPEN = (0, None, None)
_NOT = (_PRECEDENCE[Not], Not, None)
# A token text -> its `Token.infix` and `Token.opening`. A string token is
# never given a role, whatever its text.
_ROLES = {**{symbol: (row,) for symbol, row in _INFIX.items()},
          "(": (None, _OPEN), "not": (None, _NOT)}


def _parse_formula(p: _Parser, b: _PuzzleBuilder) -> Formula:
    """Precedence climbing over an explicit operator stack, so nesting depth
    and chain length never touch the Python stack. The grammar is the one in
    docs/grammar.md; errors are raised at the same tokens as by a recursive
    descent over it. Each token carries its role (`Token.infix`,
    `Token.opening`), so the loop looks nothing up: where an operand stands
    it pushes a token's opening entry, takes a compact atom's node where
    its person is a suspect and its label that of an earlier modeled
    statement, and hands any other token to `_parse_primary`; in operator
    position it pushes an operator and steps over a closing ")". A compact
    atom that does not fit fails the parse, to be read again from fine
    tokens. The cursor is the local `pos`, handed to `p` around each call
    that reads or fails at a token."""
    tokens = p.tokens
    pos = p.pos
    suspects, modeled = b.suspects, b.modeled_labels
    stack: list[tuple] = []
    while True:
        tok = tokens[pos]
        if tok.opening is not None:
            stack.append(tok.opening)
            pos += 1
            continue
        value = tok.node
        if value is None:
            p.pos = pos
            value = _parse_primary(p, b)
            pos = p.pos
        else:  # a compact atom, taken where its node fits the puzzle read so far
            person = getattr(value, "person", None)
            if not (person in suspects if person is not None
                    else type(value) is not Truthful or value.label in modeled):
                p.pos = pos
                raise p.unexpected(())
            pos += 1
        while True:  # operator position, with `value` the operand just read
            tok = tokens[pos]
            op = tok.infix
            floor = 0 if op is None else op[2]  # 0: the formula or a parenthesis ends here
            while stack and stack[-1][0] > floor:
                _, node, left = stack.pop()
                value = node(value) if left is None else node(left, value)
            if op is not None:
                stack.append((op[0], op[1], value))
                pos += 1
                break
            p.pos = pos
            if not stack:
                return value
            if tok.kind != ")":
                raise p.unexpected(("')'",))
            pos += 1
            stack.pop()


def _expect_suspect(p: _Parser, b: _PuzzleBuilder) -> str:
    tok = p.expect("ident", "a suspect name")
    if tok.text not in b.suspects:
        raise _Failure(p.pos - 1, f"unknown suspect '{tok.text}'")
    return tok.text


def _expect_type(p: _Parser, b: object = None) -> SpeakerType:
    return _TYPE_BY_NAME[p.expect_word(*_TYPE_BY_NAME).text]


def _expect_label(p: _Parser, b: _PuzzleBuilder) -> str:
    """The label of an earlier, modeled statement."""
    tok = p.expect("ident", "a statement label")
    if tok.text not in b.labels:
        raise _Failure(
            p.pos - 1, f"truthful() reference to '{tok.text}', which is not an earlier statement")
    if tok.text not in b.modeled_labels:
        raise _Failure(p.pos - 1, f"truthful() reference to unmodeled statement '{tok.text}'")
    return tok.text


def _expect_free_name(p: _Parser, b: object) -> str:
    tok = p.expect("string", "a quoted atom name")
    if not _is_name(tok.text):
        raise _Failure(p.pos - 1, f"free atom name '{tok.text}' must be an identifier")
    return tok.text


def _words(words) -> str:
    """A regular expression for any of `words`, which no name character may
    follow: `ATx` is one name, not the word `AT`."""
    return "(?:" + "|".join(words) + ")(?![A-Za-z0-9_])"


# Each field of the nodes in `_ATOMS` and `_TYPECOUNTS`: how the parser reads
# it, called as reader(parser, builder), how the serializer
# writes it, as a str.format field of the node, and the regular expression
# of the one token that the reader takes.
_FIELDS = {
    "person": (_expect_suspect, "{0.person}", _TOKEN_CLASSES["ident"]),
    "speaker_type": (_expect_type, "{0.speaker_type.value}", _words(_TYPE_BY_NAME)),
    "island": (lambda p, b: _ISLAND_BY_NAME[p.expect_word(*_ISLAND_BY_NAME).text],
               "{0.island.value}", _words(_ISLAND_BY_NAME)),
    "op": (lambda p, b: p.expect_punct(*COUNT_OPS).kind, "{0.op}",
           "(?:" + "|".join(map(re.escape, COUNT_OPS)) + ")"),
    "k": (lambda p, b: p.expect_int(), "{0.k}", _TOKEN_CLASSES["int"]),
    "n": (lambda p, b: p.expect_int(), "{0.n}", _TOKEN_CLASSES["int"]),
    "label": (_expect_label, "{0.label}", _TOKEN_CLASSES["ident"]),
    "name": (_expect_free_name, '"{0.name}"', _TOKEN_CLASSES["string"]),
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


def _syntax(table: dict[str, tuple], column: int = 1, literal=str) -> dict[type, str]:
    """Each row's text: its keyword and tokens, with a space only between two
    words (keywords, words and fields). A field is column `column` of its
    `_FIELDS` entry and any other token is `literal` of it: by default a
    str.format template, with (2, re.escape) a regular expression."""
    templates = {}
    for keyword, row in table.items():
        pieces, after_word = [literal(keyword)], True
        for slot in row[1:]:
            word = slot.isidentifier()  # a word or a field
            if word and after_word:
                pieces.append(" ")
            pieces.append(_FIELDS[slot][column] if slot in _FIELDS else literal(slot))
            after_word = word
        templates[row[0]] = "".join(pieces)
    return templates


# The concrete syntax of every atom but Const, and of every typecount form.
_ATOM_SYNTAX = _syntax(_ATOMS)
_TYPECOUNT_SYNTAX = _syntax(_TYPECOUNTS)

# A compact atom: one written exactly as `serialize` writes it. The parse
# lexer reads it as one token of kind "atom"; other spacing, or a comment
# inside an atom, gives the fine tokens, the only ones the fine lexer gives.
_TOKEN_RE = _lexer(*_syntax(_ATOMS, 2, re.escape).values())
_FINE_RE = _lexer()

ATOM_EXPECTED = (*_ATOMS, "true", "false", "not", "'('")

KEYWORDS = frozenset({
    "puzzle", *_DIRECTIVES, "unmodeled", "forall", "in", *_TYPECOUNTS,
    *_ISLAND_DOMAINS, *_ATOMS, "true", "false", "not", "and", "or", *_TYPE_BY_NAME,
})


def _parse_primary(p: _Parser, b: _PuzzleBuilder) -> Formula:
    """One atom spelled in fine tokens, read where it stands by `_read_row`,
    or `true` or `false`; parentheses, `not` and compact atoms are
    _parse_formula's. A compact atom whose text reads to no node fails here,
    so that `parse` reads the text again from fine tokens."""
    tok = p.tokens[p.pos]
    if tok.kind != "ident":
        raise p.unexpected(ATOM_EXPECTED)
    row = _ATOMS.get(tok.text)
    if row is None:
        if tok.text != "true" and tok.text != "false":
            raise _Failure(p.pos, f"unknown atom '{tok.text}'", ATOM_EXPECTED)
        p.pos += 1
        return TRUE if tok.text == "true" else FALSE
    p.pos += 1
    return _read_row(p, b, row)


class _Every:
    """The set of every name."""

    def __contains__(self, name: object) -> bool:
        return True


# A puzzle read so far where every name is a suspect and every label that of
# an earlier modeled statement: a compact atom's fine tokens read to its
# node here.
_ANY_PUZZLE = _PuzzleBuilder()
_ANY_PUZZLE.suspects = _ANY_PUZZLE.labels = _ANY_PUZZLE.modeled_labels = _Every()


def _node(parts: tuple[Token, ...]) -> Formula | None:
    """The node a compact atom's fine tokens, `parts`, read to wherever they
    fit the puzzle (its person a suspect, its label that of an earlier
    modeled statement; `_parse_formula` checks both), or None where they
    read to none at all: an integer past the interpreter's conversion
    limit, or a free atom name that is not an identifier."""
    try:
        return _read_row(_Parser(parts, 1), _ANY_PUZZLE, _ATOMS[parts[0].text])
    except _Failure:
        return None


def _read_row(p: _Parser, b: _PuzzleBuilder, row: tuple) -> object:
    """The node of an `_ATOMS` or `_TYPECOUNTS` row, read by one loop over
    the tokens after its keyword."""
    tokens = p.tokens
    args = []
    for slot in row[1:]:
        field = _FIELDS.get(slot)
        if field is not None:
            args.append(field[0](p, b))
        elif tokens[p.pos].text == slot and tokens[p.pos].kind != "string":
            p.pos += 1  # the punctuation mark or word `slot`
        else:
            raise p.unexpected((slot if slot.isidentifier() else f"'{slot}'",))
    return row[0](*args)


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

def format_formula(formula: Formula) -> str:
    """Deterministic concrete syntax, parenthesized just enough to reparse
    into a structurally identical tree: one in-order walk over an explicit
    stack of formulas and text pieces, so depth never touches the Python stack."""
    return _format(formula, {})


# Each connective's row for the serializer: the least precedence of an
# operand left unparenthesized on its left and on its right, and its text. An
# operand of equal precedence is parenthesized on the side the connective
# does not group to; `not` has no left operand.
_CONNECTIVES = {Not: (None, _PRECEDENCE[Not], "not ")}
_CONNECTIVES.update((cls, (_PRECEDENCE[cls] + (cls in _RIGHT_ASSOC),
                           _PRECEDENCE[cls] + (cls not in _RIGHT_ASSOC), f" {symbol} "))
                    for symbol, cls in _BINARY.items())


def _format(formula: Formula, atoms: dict[int, str]) -> str:
    """format_formula, with `atoms` the text of each atom node formatted
    before, by identity: a parsed puzzle shares its equal compact atoms'
    nodes."""
    parts: list[str] = []
    text, stack = parts.append, [formula]
    push, precedence = stack.append, _PRECEDENCE.get
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is str:
            text(node)
        elif kind in _ATOM_SYNTAX:
            atom = atoms.get(id(node))
            if atom is None:
                atom = atoms[id(node)] = _ATOM_SYNTAX[kind].format(node)
            text(atom)
        elif (row := _CONNECTIVES.get(kind)) is not None:
            # Pushed in reverse: the right operand, the text, the left operand.
            left_bound, right_bound, symbol = row
            right = node.operand if left_bound is None else node.right
            if precedence(type(right), 6) < right_bound:  # atoms bind tightest: 6
                stack += (")", right, "(")
            else:
                push(right)
            push(symbol)
            if left_bound is not None:
                left = node.left
                if precedence(type(left), 6) < left_bound:
                    stack += (")", left, "(")
                else:
                    push(left)
        elif kind is Const:
            text("true" if node.value else "false")
        else:
            raise ValueError(f"cannot format {node!r}")
    return "".join(parts)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def serialize(puzzle: Puzzle) -> str:
    """Canonical DSL text for a well-formed puzzle.

    Type domains are always written explicitly (no island shorthand), so two
    structurally equal puzzles serialize to identical bytes. Each atom node
    is formatted once.
    """
    atoms: dict[int, str] = {}
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
                else _format(stmt.body, atoms))
        lines.append(f"  statement {stmt.label} {stmt.speaker}: {body};")
    for axiom in puzzle.axioms:
        lines.append(f"  axiom {_format(axiom, atoms)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
