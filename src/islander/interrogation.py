"""Interrogation simulator: knowledge worlds, questions and detective strategies.

A KnowledgeWorld is ground truth (types and the guilty set) plus what each
person knows about the others' guilt. Everyone knows their own guilt; all
other knowledge is factive and partial. Questions about possibility
("could the criminals be exactly this list?") are answered by checking
whether any criminal set compatible with the askee's knowledge fits; a
crime definitely occurred, so compatible sets are never empty.

Answers come out through the speaker's type: truth-teller types answer
truthfully, liar types flip yes and no. The one exception is the direct
guilt question, which the partial types (`SpeakerType.partial`) answer as
if innocent: partial truth-tellers say no, and responsible liars, flipping
that no, always say yes. A liar whose honest answer would be "I don't know"
picks yes or no adversarially from a seeded source, so the robust strategies
below are checked to be independent of those coin flips.

`STRATEGIES` is the one place where a strategy and its premises are
declared: for each name, its `run_<name>` runner, the island modes and
count premise it accepts, whether it needs a secret or takes a mode, and
what counts as success. `run_strategy` runs any entry by name, and the
CLI's `--strategy` choices are the table's keys. Every runner that accuses
asks through one loop, `_ask_each`: put each (asker, question, suspect) to
the asker and accuse the suspect on the answer a criminal gives from the
asker's island, the flip of a truth-teller's mark for a liar. A question's
transcript text follows one rule, `describe_question`: the class name in
snake case, then its field, if it has one, in parentheses.

A world's knowledge is always a `KnowledgeRows`: one `bytes` row per asker,
`KnowledgeWorld.knowledge.rows`, where byte j of person i's row is 1 when i
knows the guilt status of person j. The entry itself is the truth, read
from the guilty set, so factivity holds by construction. A (p, q) ->
Knowledge dict is checked entry by entry and converted once
(`KnowledgeRows.from_entries`); generated rows get only a shape check.
Everything below the constructor reads the rows.

Generation draws once per ordered pair, `rng.random() < density`, in
p-major order, and fills each row from one `getrandbits` call instead
(`_draw_rows`). This is exact, not an approximation: `random()` is made
from two consecutive 32-bit generator outputs, `getrandbits` returns the
same outputs in a known layout, and the comparison with `density` is decided
on integers, from the top byte of each draw and, in about 1 case in 256,
from the full 53 bits. The same draws leave the generator in the same state,
so the secret drawn after them, and every seeded output, stay the same.

Every honest answer comes from one `match`, `_honest`. The questions the
registered strategies ask read per-asker counts, `KnowledgeWorld._counts`:
how many each person knows to be guilty and how many innocent, themselves
included. These are the possible-innocent, size-excluding-self and detective
questions, "could the criminals all be among everyone but q?" and "could
everyone have done it?". Each reads the asker's counts and at most one byte
of the asker's row, so it costs O(1) in the crowd size. The robust
strategies ask "everyone but q" with an O(1) set view of the roster without
q, `_AllBut`, instead of an (n-1)-person frozenset; the view equals and
hashes like the frozenset and has the same transcript text. Any other subset
or exact-group question reads `KnowledgeWorld.epistemic_index`, which holds
for each person frozensets of whom they know to be guilty and whom innocent.
It is built on first use, and such a question costs C-level set operations
over its group. `knows` remains the plain per-pair lookup the tests' oracles
use.

A world with knowledge density 0 and no secret draws no knowledge rows:
every draw would come out 0, and nothing reads the generator afterwards.
With a secret, the draws are made, so the secret stays the same.

Generated worlds are limited to MAX_CROWD persons, because generation draws
once per ordered pair of persons and keeps a byte per pair; a larger crowd is
refused before any draw.
"""

from __future__ import annotations

import bisect
import collections.abc
import enum
import functools
import math
import random
import re
from itertools import compress
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .model import (
    ALL_TYPES, LIAR_TYPES, TRUTH_TELLER_TYPES, Factory, Island, SpeakerType, record,
)

# In ALL_TYPES order: generation draws `rng.choice` from these tuples.
TT_POOL = tuple(t for t in ALL_TYPES if t in TRUTH_TELLER_TYPES)
LIAR_POOL = tuple(t for t in ALL_TYPES if t in LIAR_TYPES)
ISLAND_MODES = ("tt", "liars", "mixed")

# Largest crowd a generated world may have. Generation draws once per ordered
# pair of distinct persons and keeps one byte per ordered pair, so this bounds
# the knowledge rows at 2048**2 bytes (4 MiB).
MAX_CROWD = 2048


class PreconditionError(ValueError):
    """A strategy or question was used outside its stated premises."""


class KnowledgeWorldError(ValueError):
    """A knowledge world violates an invariant (non-factive entry, bad count...)."""


class Knowledge(enum.Enum):
    KNOWS_GUILTY = "knows_guilty"
    KNOWS_INNOCENT = "knows_innocent"
    UNKNOWN = "unknown"


class KnowledgeRows(collections.abc.Mapping):
    """A read-only (p, q) -> Knowledge mapping over one byte row per asker.

    Byte j of the row of `persons[i]` is 1 when that person knows the guilt
    status of `persons[j]`, else 0; the entry is the truth, read from
    `guilty`, so it is factive by construction. Keys are the known pairs
    only, p-major and q in roster order. Only the shape of the rows is
    checked, at C speed: n `bytes` rows of n bytes, each 0 or 1, with 0 at
    the person's own position. Two tables are equal when their persons,
    guilty sets and rows are."""

    def __init__(
        self, persons: tuple[str, ...], guilty: frozenset[str], rows: tuple[bytes, ...]
    ) -> None:
        n = len(persons)
        if len(rows) != n or any(
            type(row) is not bytes or len(row) != n or row[i] or row.translate(None, b"\0\1")
            for i, row in enumerate(rows)
        ):
            raise KnowledgeWorldError(
                "knowledge rows must be one bytes row of n bytes, each 0 or 1, per "
                "person, with 0 at the person's own position"
            )
        self.persons = persons
        self.guilty = guilty
        self.rows = rows

    @classmethod
    def from_entries(cls, persons: tuple[str, ...], guilty: frozenset[str],
                     knowledge: Mapping[tuple[str, str], Knowledge]) -> "KnowledgeRows":
        """Check each (p, q) entry, then set its byte in p's row."""
        position = {p: i for i, p in enumerate(persons)}
        rows = [bytearray(len(persons)) for _ in persons]
        # Locals, not attribute lookups, in the loop over up to n^2 entries.
        knows_guilty, knows_innocent = Knowledge.KNOWS_GUILTY, Knowledge.KNOWS_INNOCENT
        unknown = Knowledge.UNKNOWN
        for (p, q), entry in knowledge.items():
            if p not in position or q not in position or p == q:
                raise KnowledgeWorldError(f"bad knowledge pair ({p}, {q})")
            if entry is knows_guilty:
                if q not in guilty:
                    raise KnowledgeWorldError(f"{p} cannot know innocent {q} to be guilty")
            elif entry is knows_innocent:
                if q in guilty:
                    raise KnowledgeWorldError(f"{p} cannot know guilty {q} to be innocent")
            elif entry is unknown:
                continue
            else:
                raise KnowledgeWorldError(f"bad knowledge entry for ({p}, {q}): {entry!r}")
            rows[position[p]][position[q]] = 1
        return cls(persons, guilty, tuple(map(bytes, rows)))

    @functools.cached_property
    def _position(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.persons)}

    def __getitem__(self, pair: tuple[str, str]) -> Knowledge:
        p, q = pair
        position = self._position
        if p not in position or q not in position or not self.rows[position[p]][position[q]]:
            raise KeyError(pair)
        return Knowledge.KNOWS_GUILTY if q in self.guilty else Knowledge.KNOWS_INNOCENT

    def __iter__(self) -> Iterator[tuple[str, str]]:
        persons = self.persons
        for p, row in zip(persons, self.rows):
            for q in compress(persons, row):
                yield p, q

    def __len__(self) -> int:
        # Each byte is 0 or 1, so a row's set bits count its known pairs
        # (several times faster than `bytes.count`).
        return sum(int.from_bytes(row, "little").bit_count() for row in self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeRows):
            return NotImplemented
        return (self.persons, self.guilty, self.rows) == (other.persons, other.guilty, other.rows)

    def __repr__(self) -> str:
        return f"KnowledgeRows(<{len(self)} known pairs among {len(self.persons)} persons>)"


@record
class KnowledgeWorld:
    persons: tuple[str, ...]
    type_of: Mapping[str, SpeakerType]
    guilty: frozenset[str]
    # A `KnowledgeRows` once built: a (p, q) -> Knowledge mapping is checked
    # and converted, so worlds that know the same pairs compare equal.
    knowledge: Mapping[tuple[str, str], Knowledge] = Factory(dict)
    count_public: Optional[int] = None
    secret: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.persons:
            raise KnowledgeWorldError("a knowledge world needs at least one person")
        if len(set(self.persons)) != len(self.persons):
            raise KnowledgeWorldError("duplicate person names")
        if set(self.type_of) != set(self.persons):
            raise KnowledgeWorldError("types must cover exactly the persons")
        if not self.guilty:
            raise KnowledgeWorldError("the guilty set is empty: no crime to solve")
        if not self.guilty <= set(self.persons):
            raise KnowledgeWorldError("guilty set references unknown persons")
        if not isinstance(self.knowledge, KnowledgeRows):
            object.__setattr__(self, "knowledge", KnowledgeRows.from_entries(
                self.persons, self.guilty, self.knowledge))
        elif (self.knowledge.persons, self.knowledge.guilty) != (self.persons, self.guilty):
            # Rows given whole were checked when built; only whose they are is left.
            raise KnowledgeWorldError("knowledge rows belong to another roster or guilty set")
        if self.count_public is not None and self.count_public != len(self.guilty):
            raise KnowledgeWorldError("public count disagrees with the guilty set")

    @functools.cached_property
    def _person_set(self) -> frozenset[str]:
        return frozenset(self.persons)

    @functools.cached_property
    def epistemic_index(self) -> dict[str, tuple[frozenset[str], frozenset[str]]]:
        """For each person p, (whom p knows to be guilty, whom p knows to be
        innocent), p included by their own guilt. Built from the rows on
        first use, so worlds asked only control questions never hold it."""
        persons, guilty = self.persons, self.guilty
        guilty_at = [j for j, q in enumerate(persons) if q in guilty]
        index = {}
        for i, (p, row) in enumerate(zip(persons, self.knowledge.rows)):
            if 1 not in row:
                # Nothing known (every row of a blank-knowledge world): one
                # C-level scan, not a copy and a walk over the crowd.
                index[p] = (frozenset((p,)), frozenset()) if p in guilty \
                    else (frozenset(), frozenset((p,)))
                continue
            must = [persons[j] for j in guilty_at if row[j]]
            innocent_known = bytearray(row)
            for j in guilty_at:
                innocent_known[j] = 0
            if p in guilty:
                must.append(p)
            else:
                innocent_known[i] = 1
            index[p] = (frozenset(must), frozenset(compress(persons, innocent_known)))
        return index

    @functools.cached_property
    def _counts(self) -> dict[str, tuple[int, int]]:
        """For each person p, (how many p knows to be guilty, how many p
        knows to be innocent), p included: the sizes of `epistemic_index[p]`,
        counted from each row's set bits without building a set."""
        persons, guilty = self.persons, self.guilty
        guilty_mask = int.from_bytes(bytes(q in guilty for q in persons), "little")
        counts = {}
        for p, row in zip(persons, self.knowledge.rows):
            bits = int.from_bytes(row, "little")
            known, known_guilty = bits.bit_count(), (bits & guilty_mask).bit_count()
            counts[p] = (known_guilty + 1, known - known_guilty) if p in guilty \
                else (known_guilty, known - known_guilty + 1)
        return counts

    def knows(self, p: str, q: str) -> Knowledge:
        return self.knowledge.get((p, q), Knowledge.UNKNOWN)

    def island_of(self, p: str) -> Island:
        return self.type_of[p].island

    def all_knowledge_unknown(self) -> bool:
        return not any(1 in row for row in self.knowledge.rows)

    def known_criminals(self) -> frozenset[str]:
        """The criminals whose guilt someone else knows."""
        return frozenset(
            q for j, q in enumerate(self.persons)
            if q in self.guilty and any(row[j] for row in self.knowledge.rows)
        )

    def knows_full_roster(self, p: str) -> bool:
        """Does p know the guilt status of every other person?"""
        must, banned = self._counts[p]
        return must + banned == len(self.persons)


# ---------------------------------------------------------------------------
# Questions and answers
# ---------------------------------------------------------------------------

@record
class KnownFact:
    """A control question whose answer the detective already knows."""

    truth: bool


@record
class DirectGuilt:
    """Are you guilty?"""


class _AllBut(collections.abc.Set):
    """Everyone on `roster` but `absent`, as a read-only set view: O(1) `len`
    and `in`, and equal to, and hashed like, the frozenset it stands for.
    Set operations on it return frozensets."""

    __slots__ = ("roster", "absent")
    __match_args__ = ("roster", "absent")

    def __init__(self, roster: frozenset[str], absent: str) -> None:
        self.roster = roster
        self.absent = absent

    def __contains__(self, person: object) -> bool:
        return person != self.absent and person in self.roster

    def __iter__(self) -> Iterator[str]:
        absent = self.absent
        return (person for person in self.roster if person != absent)

    def __len__(self) -> int:
        return len(self.roster) - (self.absent in self.roster)

    __hash__ = collections.abc.Set._hash

    @classmethod
    def _from_iterable(cls, iterable: Iterable[str]) -> frozenset[str]:
        return frozenset(iterable)

    def __repr__(self) -> str:
        return f"_AllBut(<{len(self.roster)} persons>, absent={self.absent!r})"


@record
class PossibleSubset:
    """Is it possible that all the criminals are within this group?"""

    group: collections.abc.Set[str]


@record
class PossibleExact:
    """Is it possible that exactly this group committed the crime?"""

    group: frozenset[str]


@record
class PossibleSizeExcludingSelf:
    """Could there be m criminals, none of them you?"""

    m: int


@record
class PossibleInnocent:
    """Is it possible that this person is innocent?"""

    target: str


@record
class DidDetectiveDoIt:
    """Did I (the detective, an outsider) do it? Factual, so the honest
    answer may be "I don't know"."""


@record
class DetectivePossiblyGuilty:
    """Is it possible that I (the detective) committed the crime? The
    yes-or-no possibility form of the question above, usable with liars."""


@record
class SecretAttribute:
    """Open-ended question about a crime detail only the criminals know."""


Question = Union[
    KnownFact, DirectGuilt, PossibleSubset, PossibleExact,
    PossibleSizeExcludingSelf, PossibleInnocent, DidDetectiveDoIt,
    DetectivePossiblyGuilty, SecretAttribute,
]


def describe_question(question: Question) -> str:
    """The class name in snake case, then the field, if the question has one,
    in parentheses: a group as its sorted names, a bool in lower case."""
    name = re.sub(r"(?<!^)(?=[A-Z])", "_", type(question).__name__).lower()
    fields = question.__match_args__
    if not fields:
        return name
    value = getattr(question, fields[0])
    if isinstance(value, collections.abc.Set):
        return f"{name}({', '.join(sorted(value))})"
    return f"{name}({str(value).lower() if isinstance(value, bool) else value})"


class AnswerValue(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"
    TOKEN = "token"


@record
class Answer:
    person: str
    question: Question
    value: AnswerValue
    token: Optional[str] = None


def _yes_no(value: bool) -> AnswerValue:
    return AnswerValue.YES if value else AnswerValue.NO


# ---------------------------------------------------------------------------
# Truthful answers (epistemic core)
# ---------------------------------------------------------------------------
#
# A criminal set is compatible with p's knowledge when it contains everything
# p knows guilty and p (iff guilty), avoids everyone p knows innocent, is
# non-empty, and has the public size when one is known. Factivity keeps the
# known-guilty and known-innocent persons disjoint, so the persons a
# compatible set may hold are counted, not listed.

def _fits(kw: KnowledgeWorld, must: int, extras: int, size: Optional[int]) -> bool:
    """Is there a criminal set of the `must` forced persons plus some of
    `extras` optional ones that is non-empty and has the asked `size` and
    the public size, where either is given?"""
    if size is not None and kw.count_public is not None and size != kw.count_public:
        return False
    target = size if size is not None else kw.count_public
    if target is None:
        return must > 0 or extras > 0
    return target >= 1 and must <= target <= must + extras


def _compatible_without(
    kw: KnowledgeWorld, p: str, q: str, size: Optional[int] = None
) -> bool:
    """Is some criminal set compatible with p's knowledge free of q, a person
    of the roster? Read from p's counts and whether p knows q's status."""
    must, banned = kw._counts[p]
    knowledge = kw.knowledge
    position = knowledge._position
    if q == p or knowledge.rows[position[p]][position[q]]:
        if q in kw.guilty:
            return False
        allowed = len(kw.persons) - banned  # q is counted among the banned
    else:
        allowed = len(kw.persons) - banned - 1
    return _fits(kw, must, allowed - must, size)


def _compatible_within(
    kw: KnowledgeWorld, p: str, group: collections.abc.Set[str], size: Optional[int] = None
) -> bool:
    """Is some criminal set compatible with p's knowledge within `group`?"""
    must, banned = kw.epistemic_index[p]
    if not must <= group:
        return False
    return _fits(kw, len(must), len(group) - len(group & banned) - len(must), size)


def _detective_possible(kw: KnowledgeWorld, p: str) -> bool:
    """Could the detective (an outsider) be among the criminals, as far as p
    can tell? Someone who knows the whole roster's guilt is treated as
    knowing the answer outright."""
    if kw.knows_full_roster(p):
        return False
    if kw.count_public is None:
        return True
    must, banned = kw._counts[p]
    return must <= kw.count_public - 1 <= len(kw.persons) - banned


def _require_person(kw: KnowledgeWorld, p: str) -> None:
    if p not in kw.type_of:
        raise PreconditionError(f"unknown person '{p}'")


def _require_group(kw: KnowledgeWorld, group: Iterable[str]) -> None:
    if not kw._person_set.issuperset(group):
        bad = set(group) - kw._person_set
        raise PreconditionError(f"question group references unknown persons {sorted(bad)}")


def _honest(kw: KnowledgeWorld, p: str, question: Question) -> AnswerValue:
    """p's honest answer to `question`, to the extent of p's knowledge; a
    token answer stands for `kw.secret`. The strategies' most frequent
    questions come first."""
    _require_person(kw, p)
    match question:
        case PossibleSubset(_AllBut(roster, q)) if roster is kw._person_set and q in roster:
            # Everyone but q: the set form of "could q be innocent?".
            return _yes_no(_compatible_without(kw, p, q))
        case PossibleInnocent(target):
            _require_person(kw, target)
            return _yes_no(_compatible_without(kw, p, target))
        case KnownFact(truth):
            return _yes_no(truth)
        case PossibleSizeExcludingSelf(m):
            return _yes_no(_compatible_without(kw, p, p, m))
        case DidDetectiveDoIt():
            return AnswerValue.UNKNOWN if _detective_possible(kw, p) else AnswerValue.NO
        case DetectivePossiblyGuilty():
            return _yes_no(_detective_possible(kw, p))
        case DirectGuilt():
            return _yes_no(p in kw.guilty)
        case PossibleExact(group) if group is kw._person_set:
            # Could everyone have done it? Every compatible set is within the roster.
            must, banned = kw._counts[p]
            return _yes_no(_fits(kw, must, len(group) - banned - must, len(group)))
        case PossibleSubset(group):
            _require_group(kw, group)
            return _yes_no(_compatible_within(kw, p, group))
        case PossibleExact(group):
            _require_group(kw, group)
            # The one subset of the group as large as the group is the group.
            return _yes_no(_compatible_within(kw, p, group, len(group)))
        case SecretAttribute():
            if kw.secret is None:
                raise PreconditionError("no secret attribute is configured for this world")
            return AnswerValue.TOKEN if p in kw.guilty else AnswerValue.UNKNOWN
        case _:
            raise PreconditionError(f"unknown question {question!r}")


def truthful_answer(kw: KnowledgeWorld, p: str, question: Question) -> Answer:
    """What p would answer if answering honestly to the extent of their
    knowledge. Possibility questions never come back unknown: they ask about
    the askee's own knowledge."""
    value = _honest(kw, p, question)
    return Answer(p, question, value, kw.secret if value is AnswerValue.TOKEN else None)


def spoken_answer(
    kw: KnowledgeWorld, p: str, question: Question, rng: Optional[random.Random] = None
) -> Answer:
    """The answer p actually gives, filtered through their speaker type: a
    partial type's honest answer to the guilt question is no, and a liar
    then flips yes and no."""
    rng = rng or random.Random(0)
    honest = _honest(kw, p, question)
    speaker_type = kw.type_of[p]
    if speaker_type.partial and isinstance(question, DirectGuilt):
        honest = AnswerValue.NO
    if speaker_type.island is Island.TRUTH_TELLERS:
        return Answer(p, question, honest, kw.secret if honest is AnswerValue.TOKEN else None)

    # Liar types from here on.
    if isinstance(question, SecretAttribute):
        return Answer(p, question, AnswerValue.TOKEN, _wrong_token(kw, rng))
    if honest is AnswerValue.UNKNOWN:
        # Honest "I don't know" on a yes-or-no question: the liar answers
        # adversarially. Robust strategies must not depend on this choice.
        return Answer(p, question, rng.choice((AnswerValue.YES, AnswerValue.NO)))
    return Answer(p, question, AnswerValue.NO if honest is AnswerValue.YES else AnswerValue.YES)


def _wrong_token(kw: KnowledgeWorld, rng: random.Random) -> str:
    while True:
        token = f"bogus-{rng.getrandbits(32):08x}"
        if token != kw.secret:
            return token


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@record
class StrategyResult:
    accused: frozenset[str]
    transcript: tuple[Answer, ...]
    questions_asked: int


def _result(accused: Iterable[str], transcript: Sequence[Answer]) -> StrategyResult:
    return StrategyResult(frozenset(accused), tuple(transcript), len(transcript))


def _ask_each(
    kw: KnowledgeWorld,
    rng: random.Random,
    asks: Iterable[tuple[str, Question, str]],
    guilty_says: AnswerValue,
    island_of: Callable[[str], Island],
) -> StrategyResult:
    """Put each (asker, question, suspect) of `asks` and accuse the suspect
    when the answer is `guilty_says` from a truth-teller, or its flip from a
    liar, by `island_of(asker)`. The one ask-and-read loop of the strategies."""
    liar_says = {AnswerValue.YES: AnswerValue.NO, AnswerValue.NO: AnswerValue.YES}.get(guilty_says)
    transcript: list[Answer] = []
    accused: list[str] = []
    # Identity tests, not enum-keyed lookups: an enum's hash runs Python code.
    for asker, question, suspect in asks:
        answer = spoken_answer(kw, asker, question, rng)
        transcript.append(answer)
        truthful = island_of(asker) is Island.TRUTH_TELLERS
        if answer.value is (guilty_says if truthful else liar_says):
            accused.append(suspect)
    return _result(accused, transcript)


def _each(
    persons: Iterable[str], question: Callable[[str], Question]
) -> Iterator[tuple[str, Question, str]]:
    """Ask each of `persons`, in order, `question(p)` about themselves."""
    return ((p, question(p), p) for p in persons)


def _among_the_others(kw: KnowledgeWorld) -> Callable[[str], Question]:
    """For each p: could the criminals all be among everyone but p? The
    group is a view of the roster without p, not a copy of it."""
    everyone = kw._person_set
    return lambda p: PossibleSubset(_AllBut(everyone, p))


def _require_single_island(kw: KnowledgeWorld, island: Island, what: str) -> None:
    wrong = [p for p in kw.persons if kw.island_of(p) is not island]
    if wrong:
        raise PreconditionError(
            f"{what} requires everyone to be from the {island.value} island; "
            f"{wrong[0]} is not"
        )


def _require_all_unknown(kw: KnowledgeWorld, what: str) -> None:
    if not kw.all_knowledge_unknown():
        raise PreconditionError(
            f"{what} assumes no one knows anything about anyone else's guilt"
        )


def run_classify_islands(
    kw: KnowledgeWorld, rng: Optional[random.Random] = None
) -> StrategyResult:
    """Sort everyone by island with one control question each. Truth-tellers
    affirm a known truth; liars deny it. The accused are the persons
    classified as truth-tellers."""
    rng = rng or random.Random(0)
    transcript = [spoken_answer(kw, p, KnownFact(True), rng) for p in kw.persons]
    return _result((a.person for a in transcript if a.value is AnswerValue.YES), transcript)


def run_ask_all_about_others(
    kw: KnowledgeWorld, rng: Optional[random.Random] = None
) -> StrategyResult:
    """Ask every person whether every other person could be innocent.

    A truth-teller answers no (or a liar answers yes) exactly when they know
    the target must be guilty, so the accused are the criminals whose deed
    some other person knows about; never an innocent. Islands are assumed
    already known (run classification first on mixed crowds)."""
    rng = rng or random.Random(0)
    asks = ((p, PossibleInnocent(q), q) for p in kw.persons for q in kw.persons if q != p)
    return _ask_each(kw, rng, asks, AnswerValue.NO, kw.island_of)


def run_count_known(kw: KnowledgeWorld, rng: Optional[random.Random] = None) -> StrategyResult:
    """With the criminal count public and nobody knowing about anybody else,
    ask each person whether that many criminals could exist without them.
    The guilty know they are in the gang, so their honest answer is no."""
    rng = rng or random.Random(0)
    if kw.count_public is None:
        raise PreconditionError("count premise violated: the criminal count must be public")
    _require_all_unknown(kw, "the public-count strategy")
    question = PossibleSizeExcludingSelf(kw.count_public)
    return _ask_each(kw, rng, _each(kw.persons, lambda p: question), AnswerValue.NO, kw.island_of)


def run_count_unknown(kw: KnowledgeWorld, rng: Optional[random.Random] = None) -> StrategyResult:
    """With no count known and no knowledge of others, ask everyone whether
    it is possible that everyone committed the crime. Only the guilty can
    honestly say yes; the innocent know of their own innocence."""
    rng = rng or random.Random(0)
    if kw.count_public is not None:
        raise PreconditionError(
            "count premise violated: this strategy assumes the criminal count is not public"
        )
    _require_all_unknown(kw, "the unknown-count strategy")
    question = PossibleExact(kw._person_set)
    return _ask_each(kw, rng, _each(kw.persons, lambda p: question), AnswerValue.YES, kw.island_of)


def run_solve_truthtellers(
    kw: KnowledgeWorld, rng: Optional[random.Random] = None
) -> StrategyResult:
    """Two phases on the truth-tellers' island. First everyone is asked about
    everyone else, catching each criminal someone else knows about. Then each
    still-unidentified person is asked whether the crime could have been
    committed entirely by the identified criminals and the rest of the crowd,
    i.e. without them; only a criminal must answer no."""
    rng = rng or random.Random(0)
    _require_single_island(kw, Island.TRUTH_TELLERS, "the truth-tellers strategy")
    known = run_ask_all_about_others(kw, rng)
    # The accused are all among everyone but p, so this asks about the
    # identified criminals and the rest of the crowd.
    unknown = (p for p in kw.persons if p not in known.accused)
    rest = _ask_each(kw, rng, _each(unknown, _among_the_others(kw)), AnswerValue.NO, kw.island_of)
    return _result(known.accused | rest.accused, known.transcript + rest.transcript)


def run_solve_liars(
    kw: KnowledgeWorld,
    rng: Optional[random.Random] = None,
    mode: str = "robust",
) -> StrategyResult:
    """Solve any crime on the liars' island with one yes-or-no question per
    person.

    The robust mode asks whether the criminals could all be among the others;
    a guilty liar flips their honest no to yes regardless of what anyone
    knows. The literal mode instead asks about a random list of people not
    including the askee; it is guaranteed only when nobody knows anything
    about anybody else, since an innocent whose knowledge rules the list out
    (a criminal missing from it, or an innocent on it) would honestly answer
    no and get misaccused."""
    rng = rng or random.Random(0)
    _require_single_island(kw, Island.LIARS, "the liars strategy")
    if mode not in ("robust", "paper-literal"):
        raise PreconditionError(f"unknown liars-strategy mode '{mode}'")

    roster = sorted(kw.persons)

    def literal(p: str) -> Question:
        at = bisect.bisect_left(roster, p)
        others = roster[:at] + roster[at + 1:]
        if not others:
            raise PreconditionError("the literal liars strategy needs at least two persons")
        size = kw.count_public if kw.count_public is not None else rng.randint(1, len(others))
        if size > len(others):
            raise PreconditionError(
                "the literal liars strategy cannot draw a list when everyone is guilty"
            )
        return PossibleExact(frozenset(rng.sample(others, size)))

    question = _among_the_others(kw) if mode == "robust" else literal
    return _ask_each(kw, rng, _each(kw.persons, question), AnswerValue.NO, kw.island_of)


def run_solve_mixed(
    kw: KnowledgeWorld, rng: Optional[random.Random] = None
) -> StrategyResult:
    """Classify islands with one question each, then ask each person whether
    the criminals could all be among the others, reading the answer through
    the island. At most two questions per person, for any crowd."""
    rng = rng or random.Random(0)
    classified = run_classify_islands(kw, rng)
    tt = classified.accused
    found = _ask_each(kw, rng, _each(kw.persons, _among_the_others(kw)), AnswerValue.NO,
                      lambda p: Island.TRUTH_TELLERS if p in tt else Island.LIARS)
    return _result(found.accused, classified.transcript + found.transcript)


def run_neil(kw: KnowledgeWorld, rng: Optional[random.Random] = None) -> StrategyResult:
    """Identify a lone criminal among strangers with one question for all.

    Truth-tellers are asked whether the detective did it: the criminal knows
    better and says no, the innocent honestly cannot tell. Liars get the
    possibility form of the same question so nobody has to answer "I don't
    know", and the criminal's flipped answer is yes."""
    rng = rng or random.Random(0)
    if len(kw.guilty) != 1:
        raise PreconditionError("this strategy needs exactly one criminal")
    if kw.count_public != 1:
        raise PreconditionError("this strategy needs the one-criminal count to be public")
    _require_all_unknown(kw, "the lone-criminal strategy")
    islands = {kw.island_of(p) for p in kw.persons}
    if len(islands) != 1:
        raise PreconditionError("this strategy needs a single-island crowd")
    question: Question = (
        DidDetectiveDoIt() if islands.pop() is Island.TRUTH_TELLERS else DetectivePossiblyGuilty()
    )
    return _ask_each(kw, rng, _each(kw.persons, lambda p: question), AnswerValue.NO, kw.island_of)


def run_secret_attribute(
    kw: KnowledgeWorld, rng: Optional[random.Random] = None
) -> StrategyResult:
    """Ask everyone for the crime detail only the criminals know. Truthful
    criminals produce it, truthful innocents cannot. Refuses liar crowds:
    an open-ended answer from a liar is arbitrary, not informative."""
    rng = rng or random.Random(0)
    if kw.secret is None:
        raise PreconditionError("no secret attribute is configured for this world")
    _require_single_island(kw, Island.TRUTH_TELLERS, "the secret-attribute strategy")
    # Only a truthful criminal answers with a token, and it is the secret.
    return _ask_each(kw, rng, _each(kw.persons, lambda p: SecretAttribute()),
                     AnswerValue.TOKEN, kw.island_of)


# ---------------------------------------------------------------------------
# Strategy registry
# ---------------------------------------------------------------------------

def _accuses_the_guilty(kw: KnowledgeWorld, result: StrategyResult) -> bool:
    return result.accused == kw.guilty


def _finds_the_truth_tellers(kw: KnowledgeWorld, result: StrategyResult) -> bool:
    return result.accused == frozenset(
        p for p in kw.persons if kw.island_of(p) is Island.TRUTH_TELLERS
    )


def _accuses_the_known_criminals(kw: KnowledgeWorld, result: StrategyResult) -> bool:
    return kw.known_criminals() <= result.accused <= kw.guilty


@record
class Strategy:
    """A strategy's runner and the premises it is declared for.

    `islands` are the island modes of `generate_knowledge_world` whose worlds
    the runner accepts. `count_public` is True or False when the runner needs
    the criminal count public or hidden, None when either will do.
    `needs_secret` says the world must carry a secret attribute, and
    `takes_mode` that the runner has variants chosen by a `mode` argument.
    `succeeds(kw, result)` says whether a run did what the strategy promises."""

    run: Callable[..., StrategyResult]
    islands: tuple[str, ...] = ISLAND_MODES
    count_public: Optional[bool] = None
    needs_secret: bool = False
    succeeds: Callable[[KnowledgeWorld, StrategyResult], bool] = _accuses_the_guilty
    takes_mode: bool = False


# In the order the CLI lists them.
STRATEGIES: dict[str, Strategy] = {
    "classify_islands": Strategy(run_classify_islands, succeeds=_finds_the_truth_tellers),
    "ask_all_about_others": Strategy(
        run_ask_all_about_others, succeeds=_accuses_the_known_criminals
    ),
    "count_known": Strategy(run_count_known, count_public=True),
    "count_unknown": Strategy(run_count_unknown, count_public=False),
    "solve_truthtellers": Strategy(run_solve_truthtellers, islands=("tt",)),
    "solve_liars": Strategy(run_solve_liars, islands=("liars",), takes_mode=True),
    "solve_mixed": Strategy(run_solve_mixed),
    "neil": Strategy(run_neil, islands=("tt", "liars"), count_public=True),
    "secret_attribute": Strategy(run_secret_attribute, islands=("tt",), needs_secret=True),
}


def run_strategy(
    kw: KnowledgeWorld,
    name: str,
    rng: Optional[random.Random] = None,
    mode: str = "robust",
) -> StrategyResult:
    """Run the registered strategy `name` on `kw`. Only a strategy that
    `takes_mode` accepts a mode other than "robust"."""
    strategy = STRATEGIES[name]
    if strategy.takes_mode:
        return strategy.run(kw, rng, mode)
    if mode != "robust":
        raise PreconditionError(f"the {name} strategy has no mode '{mode}'")
    return strategy.run(kw, rng)


# ---------------------------------------------------------------------------
# Random world generation
# ---------------------------------------------------------------------------

def _draw_rows(rng: random.Random, n: int, density: float) -> tuple[bytes, ...]:
    """The knowledge rows of n persons: byte j of row i is 1 when
    `rng.random() < density` for the ordered pair (i, j), 0 on the diagonal.

    Makes exactly the draws of `for i: for j != i: rng.random() < density`,
    in that order, and leaves `rng` in the same state. `random()` is
    X / 2**53 with X = (a >> 5) << 26 | (b >> 6) for the next two 32-bit
    outputs a, b, and `getrandbits(64 * (n - 1))` returns the next
    2 * (n - 1) outputs, first output least significant; so byte 3 of each
    8-byte little-endian group is the top byte t = X >> 45 of one draw.
    With c = ceil(density * 2**53) (exact: `ldexp` only moves the exponent),
    random() < density exactly when X < c; t < c >> 45 settles that as yes,
    t > c >> 45 as no, and the rare draws with t == c >> 45 are compared
    in full.
    """
    if n == 1:
        return (b"\x00",)
    c = math.ceil(math.ldexp(density, 53))
    split = c >> 45
    # By top byte: 1 below, 2 for a tie to settle from the full draw, 0 above.
    verdict = (b"\x01" * split + b"\x02" + b"\x00" * 255)[:256]
    draws = n - 1
    rows = []
    for i in range(n):
        buf = rng.getrandbits(64 * draws).to_bytes(8 * draws, "little")
        row = buf[3::8].translate(verdict)
        tie = row.find(2)
        if tie >= 0:
            row = bytearray(row)
            while tie >= 0:
                a = int.from_bytes(buf[8 * tie: 8 * tie + 4], "little")
                b = int.from_bytes(buf[8 * tie + 4: 8 * tie + 8], "little")
                row[tie] = ((a >> 5) << 26 | (b >> 6)) < c
                tie = row.find(2, tie + 1)
        rows.append(b"".join((row[:i], b"\x00", row[i:])))
    return tuple(rows)


def generate_knowledge_world(
    n: int,
    island: str = "mixed",
    criminals: Union[int, tuple[int, int]] = 1,
    density: float = 0.0,
    count_public: bool = False,
    secret: bool = False,
    seed: int = 0,
) -> KnowledgeWorld:
    """Deterministically generate a knowledge world from a seed.

    `criminals` is a fixed count or an inclusive (low, high) range; knowledge
    entries are drawn per ordered pair with probability `density` and always
    record the truth, so factivity holds by construction.
    """
    if n < 1:
        raise PreconditionError("need at least one person")
    if n > MAX_CROWD:
        raise PreconditionError(
            f"a crowd of {n} persons exceeds the limit of {MAX_CROWD}: the knowledge "
            f"table holds one entry per ordered pair of persons"
        )
    if island not in ISLAND_MODES:
        raise PreconditionError(f"unknown island mode '{island}'")
    if not 0.0 <= density <= 1.0:
        raise PreconditionError("knowledge density must be within [0, 1]")
    if isinstance(criminals, int):
        low = high = criminals
    else:
        low, high = criminals
    if not 1 <= low <= high <= n:
        raise PreconditionError(
            f"criminal count range {low}..{high} is infeasible for {n} persons"
        )

    rng = random.Random(seed)
    persons = tuple(f"P{i}" for i in range(1, n + 1))
    pool = {"tt": TT_POOL, "liars": LIAR_POOL, "mixed": TT_POOL + LIAR_POOL}[island]
    type_of = {p: rng.choice(pool) for p in persons}
    k = low if low == high else rng.randint(low, high)
    guilty = frozenset(rng.sample(persons, k))
    if density == 0 and not secret:
        # Every draw would come out 0, and no later draw reads the generator.
        rows = (bytes(n),) * n
    else:
        rows = _draw_rows(rng, n, density)
    return KnowledgeWorld(
        persons=persons,
        type_of=type_of,
        guilty=guilty,
        knowledge=KnowledgeRows(persons, guilty, rows),
        count_public=k if count_public else None,
        secret=f"secret-{rng.getrandbits(32):08x}" if secret else None,
    )
