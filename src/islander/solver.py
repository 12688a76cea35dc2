"""Consistent worlds and forced-conclusion reports, computed as truth tables.

A candidate world gives every suspect a type from their domain and a guilt
value, and a value to every free key: each user free atom and one
whodunit-knowledge atom per person whose knowledge some constraint mentions.
Unreferenced free atoms are left out: they would double the world count
without carrying information. The solver numbers the candidates

    index = ((type_index * 2^n) + guilt_mask) * 2^m + free_bits

where `type_index` is the mixed-radix index of the suspects' types (each
domain in declaration order, the last suspect varying fastest), bit k of
`guilt_mask` is suspect k's guilt, and `free_bits` holds the m sorted free
keys, the last key in bit 0. Ascending index order is therefore the
canonical enumeration order: types, then guilt sets by ascending bitmask,
then free values by sorted key with false before true.

Every atom and every constraint is a bitset over that index, a Python int
whose bit i is its truth value in candidate i (truth tables as bit vectors,
Knuth, TAOCP 4A, 7.1.1-7.1.3). An atom's bitset is a periodic pattern built
by doubling; `count op k` comes from exact-popcount bitsets over the guilt
masks; connectives are `& | ^` against the all-ones mask; `truthful(label)`
reuses the face-value bitset of the label's body. The island and guilt-
question rules read two unions of each suspect's type bitsets, `liar[p]` and
`partial[p]`, after `SpeakerType`'s two fields. A statement by speaker s
with body B compiles once to

    liar[s] ^ (B & ~partial[s] | B' & partial[s])

where B' is B compiled with guilty(s) read as false, only where partial[s]
is set. A whodunit atom exists
only for an innocent person, so its bit is forced to 0 when the person is
guilty and the key is left out of the world built from such a candidate. The
consistent worlds are the set bits of the AND of every constraint; the
report reads popcounts and ANDs of it, and `enumerate_worlds` decodes its
set bits in ascending order.

Whole-space bitsets would take 2^28 bits each at the default ceiling, so the
index space is cut into chunks of at most `_CHUNK_CANDIDATES` candidates.
A chunk fixes the leading index digits (type digits first, then the high
guilt bits), which turns those positions' atoms into constants; enumeration
stays lazy, one chunk at a time.

What a chunk reads of its varying (tail) digits does not depend on the
statements or on the prefix, only on the tail's radices and on which tail
digits are guilt bits: a `_Layout` of that shape holds it. It keeps one
pattern per tail digit, the candidates where the digit takes its top value
(value d is that pattern shifted down), all built in one pass without
tiling; the exact guilt counts over one period of the guilt and free
digits; and each count pattern repeated over the chunk. `_Space.chunks`
builds one layout per solve and every chunk shares it, so a many-chunk
solve builds each pattern once, not once per chunk; nothing outlives the
solve. Facts are forced or they are not; there are no preference
heuristics. `check_world` stays a plain per-world checklist: it is the
reference the engine is tested against.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Iterable, Iterator, Optional

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
    LiesWhenAskedGuilt,
    Not,
    OneOfEach,
    Or,
    Puzzle,
    SpeakerType,
    Statement,
    Truthful,
    UnknownReference,
    World,
    eval_formula,
    iter_subformulas,
    knows_whodunit_key,
    record,
)
from .semantics import admissible_for_type

DEFAULT_CANDIDATE_CEILING = 2 ** 28

# Candidates per chunk: bounds every bitset at 128 KiB.
_CHUNK_CANDIDATES = 2 ** 20


def _count_text(count: int) -> str:
    """`count` in decimal below 2^255, else `more than 2^k` with 2^k < count:
    a longer decimal says nothing, and past the interpreter's int-to-str
    limit it cannot be written at all."""
    if count.bit_length() < 256:
        return str(count)
    return f"more than 2^{(count - 1).bit_length() - 1}"


class SearchSpaceError(ValueError):
    """The puzzle's candidate space exceeds the configured ceiling. The
    message writes a long count or ceiling in bounded form; `candidates`
    and `ceiling` are exact."""

    def __init__(self, candidates: int, ceiling: int):
        self.candidates = candidates
        self.ceiling = ceiling
        super().__init__(
            f"search space of {_count_text(candidates)} candidate worlds exceeds the ceiling "
            f"of {_count_text(ceiling)}; raise the ceiling explicitly to solve this puzzle"
        )


class Verdict(enum.Enum):
    UNIQUE_WORLD = "unique_world"
    UNIQUE_GUILT = "unique_guilt"
    MULTIPLE = "multiple"
    INCONSISTENT = "inconsistent"


@record
class SolveReport:
    verdict: Verdict
    world_count: int
    forced_guilty: tuple[str, ...]
    forced_innocent: tuple[str, ...]
    forced_types: dict[str, SpeakerType]
    unresolved: tuple[str, ...]
    warnings: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "consistent_world_count": self.world_count,
            "forced_guilty": list(self.forced_guilty),
            "forced_innocent": list(self.forced_innocent),
            "forced_types": {p: t.value for p, t in self.forced_types.items()},
            "unresolved": list(self.unresolved),
            "warnings": list(self.warnings),
        }


@record
class WorldCheck:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _cardinality_ok(puzzle: Puzzle, types: tuple[SpeakerType, ...]) -> bool:
    card = puzzle.type_cardinality
    if card is None:
        return True
    if isinstance(card, OneOfEach):
        return len(set(types)) == len(ALL_TYPES)
    if isinstance(card, ExactTruthTellers):
        return sum(1 for t in types if t.island is Island.TRUTH_TELLERS) == card.n
    if isinstance(card, AtMostDistinct):
        return len(set(types)) <= card.n
    raise UnknownReference(f"unknown type-cardinality constraint {card!r}")


def _compares(op: str, value: int, k: int) -> bool:
    if op == "=":
        return value == k
    if op == "<=":
        return value <= k
    return value >= k


def _tile(pattern: int, period: int, width: int) -> int:
    """`pattern`, `period` bits long, repeated to fill `width` bits (a
    multiple of `period`), by doubling."""
    copies, result, filled = width // period, 0, 0
    while True:
        if copies & 1:
            result |= pattern << filled
            filled += period
        copies >>= 1
        if not copies:
            return result
        pattern |= pattern << period
        period *= 2


def _union(bitsets: Iterable[int]) -> int:
    result = 0
    for bits in bitsets:
        result |= bits
    return result


def _exact_counts(bitsets: list[int], ones: int) -> list[int]:
    """exact[c]: the candidates where exactly c of `bitsets` hold."""
    exact = [ones]
    for bits in bitsets:
        without = ones ^ bits
        exact = [(e & without) | (fewer & bits) for e, fewer in zip(exact + [0], [0] + exact)]
    return exact


class _Space:
    """The numbered candidate space of a valid puzzle within the ceiling.

    Index digits, most significant first: one type digit per suspect (radix
    = domain size), guilt bits from the last suspect down to the first, then
    one bit per free key.
    """

    def __init__(self, puzzle: Puzzle, ceiling: int):
        names: set[str] = set()
        kw_persons: set[str] = set()
        for formula in puzzle.constraint_formulas():
            for node in iter_subformulas(formula):
                if isinstance(node, Free):
                    names.add(node.name)
                elif isinstance(node, KnowsWhodunit):
                    kw_persons.add(node.person)
        self.puzzle = puzzle
        self.suspects = puzzle.suspects
        self.table = puzzle.statement_table()
        self.kw_persons = sorted(kw_persons)
        self.keys = sorted(list(names) + [knows_whodunit_key(p) for p in kw_persons])
        self.domains = [
            tuple(t for t in ALL_TYPES if t in puzzle.type_domain[p]) for p in self.suspects
        ]
        n = len(self.suspects)
        self.radices = [len(d) for d in self.domains] + [2] * (n + len(self.keys))
        self.candidates = math.prod(self.radices)
        if self.candidates > ceiling:
            raise SearchSpaceError(self.candidates, ceiling)

    def chunks(self) -> Iterator[_Chunk]:
        """Chunks in ascending index order: the longest run of trailing
        digits that fits in `_CHUNK_CANDIDATES` varies inside a chunk, the
        leading digits are fixed per chunk."""
        split, size = len(self.radices), 1
        while split and size * self.radices[split - 1] <= _CHUNK_CANDIDATES:
            split -= 1
            size *= self.radices[split]
        n = len(self.suspects)
        tail = tuple(self.radices[split:])
        layout = _Layout(tail, max(n - split, 0), max(2 * n - split, 0))
        for prefix in itertools.product(*map(range, self.radices[:split])):
            yield _Chunk(self, prefix, layout)

    def world(self, digits: list[int]) -> World:
        n = len(self.suspects)
        type_of = {p: dom[d] for p, dom, d in zip(self.suspects, self.domains, digits)}
        guilty = frozenset(p for i, p in enumerate(self.suspects) if digits[2 * n - 1 - i])
        hidden = {knows_whodunit_key(p) for p in guilty}
        free_values = {
            key: bool(d) for key, d in zip(self.keys, digits[2 * n:]) if key not in hidden
        }
        return World(type_of=type_of, guilty=guilty, free_values=free_values)


class _Layout:
    """The statement-free bitsets of a chunk shape: the tail's radices, and
    the tail digits from `guilt_start` to `guilt_stop` that are guilt bits.

    Every chunk of one solve shares its layout."""

    def __init__(self, tail: tuple[int, ...], guilt_start: int, guilt_stop: int):
        self.tail = tail
        self.size = math.prod(tail)
        self.ones = (1 << self.size) - 1
        self.strides = []
        # tops[k]: the candidates whose digit k takes its top value, built
        # from the most significant digit down. `starts` has a bit where
        # each run of the digits above k begins, every `period` bits; in each
        # period, digit k's top value is the last `stride` bits.
        self._tops, starts, period = [], 1, self.size
        for radix in tail:
            stride = period // radix
            self.strides.append(stride)
            self._tops.append((starts << period) - (starts << (radix - 1) * stride))
            runs = starts
            for d in range(1, radix):
                runs |= starts << d * stride
            starts, period = runs, stride
        self.guilt = range(guilt_start, guilt_stop)
        # Guilt and free digits are the low part of the index, so the exact
        # guilt counts are built over one period of them and tiled on demand.
        self.period = math.prod(tail[guilt_start:])
        self._exact: Optional[list[int]] = None
        self._repeats: dict[int, int] = {}

    def digit(self, k: int, d: int) -> int:
        """Candidates whose tail digit k is d: the digit's top pattern shifted
        down. The top value itself is the kept int, not a copy (`x >> 0`
        copies)."""
        down = self.tail[k] - 1 - d
        return self._tops[k] >> down * self.strides[k] if down else self._tops[k]

    def exact_guilty(self) -> list[int]:
        """exact[c]: the candidates of one period with exactly c of the tail's
        guilt bits set."""
        if self._exact is None:
            low = (1 << self.period) - 1
            self._exact = _exact_counts([self.digit(k, 1) & low for k in self.guilt], low)
        return self._exact

    def repeat(self, pattern: int) -> int:
        """`pattern`, one period long, repeated over the chunk."""
        if self.period == self.size:
            return pattern
        bits = self._repeats.get(pattern)
        if bits is None:
            bits = self._repeats[pattern] = _tile(pattern, self.period, self.size)
        return bits


class _Chunk:
    """Bitsets over the candidates that share one prefix of leading index
    digits; bit r is the r-th such candidate in index order. The tail
    digits' patterns come from the shared layout, the prefix digits are
    constants."""

    def __init__(self, space: _Space, prefix: tuple[int, ...], layout: _Layout):
        self.space = space
        self.prefix = prefix
        self.layout = layout
        self.tail = layout.tail
        self.ones = layout.ones
        n = len(space.suspects)
        self.guilty = {p: self._digit(2 * n - 1 - i, 1) for i, p in enumerate(space.suspects)}
        self.types = {p: {t: self._digit(q, d) for d, t in enumerate(domain)}
                      for q, (p, domain) in enumerate(zip(space.suspects, space.domains))}
        self.liar = {p: _union(bits for t, bits in types.items() if t.island is Island.LIARS)
                     for p, types in self.types.items()}
        self.partial = {p: _union(bits for t, bits in types.items() if t.partial)
                        for p, types in self.types.items()}
        self.free = {key: self._digit(2 * n + j, 1) for j, key in enumerate(space.keys)}
        self._fixed_guilty = sum(prefix[n:2 * n])
        self._counts: dict[tuple[str, int], int] = {}
        self._face: dict[str, int] = {}

    def _digit(self, q: int, d: int) -> int:
        """Candidates whose index digit q is d."""
        k = q - len(self.prefix)
        if k < 0:
            return self.ones if self.prefix[q] == d else 0
        return self.layout.digit(k, d)

    def count(self, op: str, k: int) -> int:
        """Candidates whose number of guilty suspects satisfies `op k`."""
        bits = self._counts.get((op, k))
        if bits is None:
            pattern = _union(exact for c, exact in enumerate(self.layout.exact_guilty())
                             if _compares(op, self._fixed_guilty + c, k))
            bits = self._counts[op, k] = self.layout.repeat(pattern)
        return bits

    def cardinality(self) -> int:
        card = self.space.puzzle.type_cardinality
        if card is None:
            return self.ones
        if isinstance(card, ExactTruthTellers):
            tt = [self.ones ^ liar for liar in self.liar.values()]
            return _exact_counts(tt, self.ones)[card.n]
        present = [_union(types.get(t, 0) for types in self.types.values()) for t in ALL_TYPES]
        distinct = _exact_counts(present, self.ones)
        if isinstance(card, OneOfEach):
            return distinct[len(ALL_TYPES)]
        if isinstance(card, AtMostDistinct):
            return _union(distinct[:card.n + 1])
        raise UnknownReference(f"unknown type-cardinality constraint {card!r}")

    def truthful(self, label: str) -> int:
        """The face value of a statement's body."""
        if label not in self._face:
            self._face[label] = self.compile(self.space.table[label].body)
        return self._face[label]

    def compile(self, formula: Formula, innocent: Optional[str] = None) -> int:
        """Candidates where `formula` holds, with guilty(innocent) read as false.

        A post-order walk over an explicit stack, so a formula's depth never
        touches the Python stack: a connective is expanded into its class,
        pushed as a marker, then its operands; when the marker comes back
        off the stack, its operands' bitsets are on top of `done`."""
        ones = self.ones
        todo: list = [formula]
        done: list[int] = []
        while todo:
            node = todo.pop()
            if node is Not:
                done[-1] ^= ones
            elif node is And:
                right = done.pop()
                done[-1] &= right
            elif node is Or:
                right = done.pop()
                done[-1] |= right
            elif node is Implies:
                right = done.pop()
                done[-1] = (ones ^ done[-1]) | right
            elif node is Iff:
                right = done.pop()
                done[-1] ^= ones ^ right
            elif isinstance(node, Not):
                todo += (Not, node.operand)
            elif isinstance(node, (And, Or, Implies, Iff)):
                todo += (type(node), node.right, node.left)
            else:
                done.append(self._atom(node, innocent))
        return done[0]

    def _atom(self, formula: Formula, innocent: Optional[str]) -> int:
        match formula:
            case Const(value):
                return self.ones if value else 0
            case Guilty(person):
                return 0 if person == innocent else self.guilty[person]
            case HasType(person, speaker_type):
                return self.types[person].get(speaker_type, 0)
            case FromIsland(person, island):
                liar = self.liar[person]
                return liar if island is Island.LIARS else self.ones ^ liar
            case CountCmp(op, k):
                return self.count(op, k)
            case Truthful(label):
                return self.truthful(label)
            case LiesWhenAskedGuilt(person):
                return self.liar[person] ^ (self.partial[person] & self.guilty[person])
            case KnowsWhodunit(person):
                return self.guilty[person] | self.free[knows_whodunit_key(person)]
            case Free(name):
                return self.free[name]
            case _:
                raise UnknownReference(f"unknown formula node {formula!r}")

    def admissible(self, stmt: Statement) -> int:
        """Candidates where the speaker's type admits the statement."""
        said = self.truthful(stmt.label)
        partial = self.partial[stmt.speaker]
        if partial:
            pretend = self.compile(stmt.body, innocent=stmt.speaker)
            said ^= (said ^ pretend) & partial
        return self.liar[stmt.speaker] ^ said

    def consistent(self) -> int:
        """Candidates that pass every constraint of the puzzle."""
        puzzle = self.space.puzzle
        cons = self.cardinality() & self.count(puzzle.count.op, puzzle.count.k)
        for person in self.space.kw_persons:
            cons &= ~(self.guilty[person] & self.free[knows_whodunit_key(person)])
        for formula in puzzle.axioms:
            cons &= self.compile(formula)
        for stmt in puzzle.statements:
            if not cons:
                break
            if stmt.body is not None:
                cons &= self.admissible(stmt)
        return cons

    def worlds(self, cons: int) -> Iterator[World]:
        """The worlds of the set bits of `cons`, in ascending order."""
        digits = list(self.prefix) + [0] * len(self.tail)
        start = len(self.prefix)
        bits = bin(cons)[:1:-1]  # bit r is bits[r]
        r = bits.find("1")
        while r >= 0:
            rest = r
            for k in range(len(self.tail) - 1, -1, -1):
                rest, digits[start + k] = divmod(rest, self.tail[k])
            yield self.space.world(digits)
            r = bits.find("1", r + 1)


def enumerate_worlds(
    puzzle: Puzzle, *, ceiling: int = DEFAULT_CANDIDATE_CEILING
) -> Iterator[World]:
    """Yield every world consistent with the puzzle, in canonical order.

    A world survives when its types respect the domains and cardinality
    constraint, its guilty set satisfies the count constraint, every axiom
    evaluates true, and every modeled statement is admissible for its
    speaker. Guilty suspects know the resolution by construction, so the
    whodunit-knowledge axiom cannot be violated here.
    """
    space = _Space(puzzle, ceiling)
    for chunk in space.chunks():
        yield from chunk.worlds(chunk.consistent())


def solve(puzzle: Puzzle, *, ceiling: int = DEFAULT_CANDIDATE_CEILING) -> SolveReport:
    """Aggregate the consistent worlds into forced facts and a verdict."""
    space = _Space(puzzle, ceiling)
    suspects = puzzle.suspects
    count = 0
    maybe_guilty: set[str] = set()
    maybe_innocent: set[str] = set()
    seen_types: dict[str, set[SpeakerType]] = {p: set() for p in suspects}

    for chunk in space.chunks():
        cons = chunk.consistent()
        if not cons:
            continue
        count += cons.bit_count()
        for p in suspects:
            guilty = cons & chunk.guilty[p]
            if guilty:
                maybe_guilty.add(p)
            if guilty != cons:
                maybe_innocent.add(p)
            seen = seen_types[p]
            seen.update(t for t, bits in chunk.types[p].items() if t not in seen and cons & bits)

    warnings = tuple(
        f"statement {s.label} ({s.speaker}) is unmodeled and adds no constraint: {s.text!r}"
        for s in puzzle.statements
        if s.is_unmodeled
    )

    if count == 0:
        return SolveReport(Verdict.INCONSISTENT, 0, (), (), {}, (), warnings)

    undecided = maybe_guilty & maybe_innocent
    if count == 1:
        verdict = Verdict.UNIQUE_WORLD
    elif not undecided:
        verdict = Verdict.UNIQUE_GUILT
    else:
        verdict = Verdict.MULTIPLE

    forced_types = {
        p: next(iter(seen_types[p])) for p in suspects if len(seen_types[p]) == 1
    }
    unresolved = tuple(p for p in suspects if p in undecided or len(seen_types[p]) > 1)
    return SolveReport(
        verdict=verdict,
        world_count=count,
        forced_guilty=tuple(p for p in suspects if p not in maybe_innocent),
        forced_innocent=tuple(p for p in suspects if p not in maybe_guilty),
        forced_types=forced_types,
        unresolved=unresolved,
        warnings=warnings,
    )


def check_world(puzzle: Puzzle, world: World) -> WorldCheck:
    """Verify one world against every constraint class, with diagnostics.

    Kept deliberately plain (a straight checklist over the constraint
    classes) so it can serve as the oracle that enumeration is tested
    against.
    """
    if set(world.type_of) != set(puzzle.suspects):
        raise UnknownReference("world types must cover exactly the puzzle's suspects")
    for person, t in world.type_of.items():
        if not isinstance(t, SpeakerType):
            raise UnknownReference(f"the type of '{person}' is {t!r}, not a speaker type")
    unknown = world.guilty - set(puzzle.suspects)
    if unknown:
        raise UnknownReference(f"world guilty set references unknown persons {sorted(unknown)}")

    table = puzzle.statement_table()
    violations: list[str] = []

    for person in puzzle.suspects:
        t = world.type_of[person]
        if t not in puzzle.type_domain[person]:
            violations.append(f"type domain: {person} is {t.value}, outside their allowed types")
    types = tuple(world.type_of[p] for p in puzzle.suspects)
    if not _cardinality_ok(puzzle, types):
        violations.append("type cardinality: the type multiset violates the puzzle's constraint")

    if not _compares(puzzle.count.op, len(world.guilty), puzzle.count.k):
        violations.append(
            f"count constraint: {len(world.guilty)} guilty fails 'criminals {puzzle.count.op} {puzzle.count.k}'"
        )

    for i, axiom in enumerate(puzzle.axioms, start=1):
        if not eval_formula(world, axiom, table):
            violations.append(f"axiom {i}: evaluates false")

    for stmt in puzzle.statements:
        if stmt.body is None:
            continue
        t = world.type_of[stmt.speaker]
        if not admissible_for_type(world, stmt.speaker, stmt.body, t, table):
            violations.append(
                f"statement {stmt.label} ({stmt.speaker}): not admissible for a {t.value} speaker"
            )

    for person in puzzle.suspects:
        if person in world.guilty and not world.knows_whodunit(person):
            violations.append(f"knowledge axiom: guilty {person} must know the resolution")

    return WorldCheck(ok=not violations, violations=tuple(violations))
