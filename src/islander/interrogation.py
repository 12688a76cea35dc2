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
what counts as success. `Strategy.refusal` checks a world against them, for
`run_strategy`, which runs any entry by name, and for the CLI's `simulate`,
whose `--strategy` choices are the table's keys, before any draw. A runner
assumes them and checks only what no entry declares. Every runner asks
through one loop, `_ask_each`: put each (asker, question, suspect) to the
asker and accuse the suspect on the answer a criminal gives, a
truth-teller's mark from an asker read as a truth-teller (by default,
anyone from the truth-tellers' island) and its flip from anyone else;
`classify_islands` reads every answer at face value. A question's
transcript text follows one rule, `describe_question`: the class name in
snake case, then its field, if it has one, in parentheses.

A world's knowledge is always a `KnowledgeRows`: one `bytes` row per asker,
`KnowledgeWorld.knowledge.rows`, where byte j of person i's row is 1 when i
knows the guilt status of person j. The entry itself is the truth, read
from the guilty set, so factivity holds by construction. A (p, q) ->
Knowledge dict is checked entry by entry and converted once
(`KnowledgeRows.from_entries`); generated rows get only a shape check.
Everything below the constructor reads the rows through
`KnowledgeRows.rows`.

Generation draws in one order: each person's type, the criminal count when
it is a range, the guilty set, the secret when the world has one, and then
the knowledge rows, when they are first read. The rows draw once per ordered
pair, `rng.random() < density`, in p-major order, and fill each row from one
`getrandbits` call instead (`_draw_rows`). This is exact, not an
approximation: `random()` is made from two consecutive 32-bit generator
outputs, `getrandbits` returns the same outputs in a known layout, and the
comparison with `density` is decided on integers, from the top byte of each
draw and, in about 1 case in 256, from the full 53 bits.

Nothing is drawn after the rows, so `generate_knowledge_world` hands
`KnowledgeRows` a deferred draw, `_draw_rows` bound to the generator, which
nothing else reads, and to n and density. The table calls it on the first
read of `rows` and then drops it. A shallow copy of the table is the table,
and a deep copy or a pickle copies the generator's state, so every copy
reads the same bytes. A strategy that never reads a row, such as
`classify_islands` or `secret_attribute`, makes no draw at all. A world with
knowledge density 0 draws no row: every draw would come out 0, so its rows
are zeros from the start.

Every answer comes from one function, `_answer`, which holds every answer
rule: it applies the honest rule of the question's class and then, given an
adversarial source, the speaker-type filter, reading the speaker's liar and
partial flags from `KnowledgeWorld.type_of`. The control, guilt and secret
questions depend on the asker's type alone and read no knowledge row. A
possibility question is first settled, where it can be, from two facts
that need no row. Knowledge is factive, so the guilty set itself is
compatible with what anyone knows (the truth axiom): the answer is yes when
it fits the question, as for "could q be innocent?" with q innocent or
"could the criminals all be among everyone but q?" with q innocent. And
everyone knows their own guilt: the answer is no when every set that fits
disagrees with it, as for a guilty asker asked about sets without them.
What is left, a guilty target other than the asker, another size or group,
and the detective questions, reads the cached `KnowledgeWorld._askers`: how
many the asker knows to be guilty and how many innocent, themselves
included, and their row; it counts every row's set bits when first read.
So the robust `solve_liars` and `solve_mixed`, which ask each person about
themselves, draw no row at all, while `ask_all_about_others` and
`solve_truthtellers` do. `truthful_answer` and `spoken_answer` are one call
of `_answer` each, and `_ask_each` calls it once per ask and nothing else.
Every question a registered strategy asks costs O(1) in the crowd size: it
reads at most the counts and one byte of the row, and a question that is
the same for every asker is built once per world. "Everyone but q" is an
O(1) set view of the roster without q, `_AllBut`, that equals and hashes
like the (n-1)-person frozenset and has its transcript text. Any other
subset or exact-group question reads the row once over its group, at C
level, and builds nothing per world. `knows` remains the plain per-pair
lookup the tests' oracles use.

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
import threading
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


# Held while a deferred draw of knowledge rows runs, so that threads reading
# a table first draw it once.
_FIRST_READ = threading.Lock()


class KnowledgeRows(collections.abc.Mapping):
    """A read-only (p, q) -> Knowledge mapping over one byte row per asker.

    Byte j of the row of `persons[i]` is 1 when that person knows the guilt
    status of `persons[j]`, else 0; the entry is the truth, read from
    `guilty`, so it is factive by construction. Keys are the known pairs
    only, p-major and q in roster order. Only the shape of the rows is
    checked, at C speed: n `bytes` rows of n bytes, each 0 or 1, with 0 at
    the person's own position. Rows given whole are checked here; a deferred
    draw given instead, a function of no arguments returning the rows, is
    called and its rows checked on the first read of `rows`, which every
    reader goes through. Two tables are equal when their persons, guilty
    sets and rows are."""

    def __init__(
        self,
        persons: tuple[str, ...],
        guilty: frozenset[str],
        rows: Union[tuple[bytes, ...], Callable[[], tuple[bytes, ...]]],
    ) -> None:
        self.persons = persons
        self.guilty = guilty
        if callable(rows):
            self._draw = rows
        else:
            self.rows = self._checked(rows)

    @functools.cached_property
    def rows(self) -> tuple[bytes, ...]:
        """The rows, drawn and checked on the first read when a deferred draw
        was given instead. The draw is made once, then dropped, whichever
        thread reads first."""
        with _FIRST_READ:
            if "rows" not in self.__dict__:
                self.__dict__["rows"] = self._checked(self._draw())
                del self._draw
        return self.__dict__["rows"]

    def __copy__(self) -> "KnowledgeRows":
        # Read-only: a copy is the table itself, so copies share one draw.
        return self

    def _checked(self, rows: tuple[bytes, ...]) -> tuple[bytes, ...]:
        n = len(self.persons)
        if len(rows) != n or any(
            type(row) is not bytes or len(row) != n or row[i] or row.translate(None, b"\0\1")
            for i, row in enumerate(rows)
        ):
            raise KnowledgeWorldError(
                "knowledge rows must be one bytes row of n bytes, each 0 or 1, per "
                "person, with 0 at the person's own position"
            )
        return rows

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
        # Any other key is missing, as from a dict, not unpacked.
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise KeyError(pair)
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
        # Types compared, not members hashed: an enum's hash runs Python code.
        if not set(map(type, self.type_of.values())) <= {SpeakerType}:
            p, t = next((p, t) for p, t in self.type_of.items() if type(t) is not SpeakerType)
            raise KnowledgeWorldError(f"the type of '{p}' is {t!r}, not a speaker type")
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
    def _askers(self) -> dict[str, tuple[int, int, bytes]]:
        """For each person p, what an answer that needs p's knowledge reads:
        how many p knows to be guilty and how many innocent, p included by
        their own guilt, counted from the row's set bits without building a
        set; then p's row."""
        persons, guilty = self.persons, self.guilty
        guilty_mask = int.from_bytes(bytes(q in guilty for q in persons), "little")
        askers = {}
        for p, row in zip(persons, self.knowledge.rows):
            bits = int.from_bytes(row, "little")
            known, known_guilty = bits.bit_count(), (bits & guilty_mask).bit_count()
            must, banned = (known_guilty + 1, known - known_guilty) if p in guilty \
                else (known_guilty, known - known_guilty + 1)
            askers[p] = (must, banned, row)
        return askers

    def knows(self, p: str, q: str) -> Knowledge:
        return self.knowledge.get((p, q), Knowledge.UNKNOWN)

    def truth_tellers(self) -> frozenset[str]:
        """The persons from the truth-tellers' island."""
        return frozenset(p for p in self.persons if self.type_of[p].island is Island.TRUTH_TELLERS)

    def all_knowledge_unknown(self) -> bool:
        return not any(1 in row for row in self.knowledge.rows)

    def known_criminals(self) -> frozenset[str]:
        """The criminals whose guilt someone else knows."""
        return frozenset(
            q for j, q in enumerate(self.persons)
            if q in self.guilty and any(row[j] for row in self.knowledge.rows)
        )


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


# Bound once: reading `AnswerValue.YES` is over ten times slower than a global.
_YES, _NO, _UNKNOWN, _TOKEN = AnswerValue
_LIARS = Island.LIARS


# ---------------------------------------------------------------------------
# Answers (epistemic core)
# ---------------------------------------------------------------------------
#
# A criminal set is compatible with p's knowledge when it contains everything
# p knows guilty and p (iff guilty), avoids everyone p knows innocent, is
# non-empty, and has the public size when one is known. Factivity keeps the
# known-guilty and known-innocent persons disjoint, so the persons a
# compatible set may hold are counted, not listed: such sets can hold any
# number from p's known-guilty count up to a most.

def _compatible_within(kw: KnowledgeWorld, p: str, group: collections.abc.Set[str]) -> int:
    """The most persons a criminal set compatible with p's knowledge may hold
    within `group`, or -1 when no such set is within it. It holds all p
    knows guilty; the group's persons p knows nothing of are optional."""
    must, _, row = kw._askers[p]
    position = kw.knowledge._position

    def known(persons: collections.abc.Set[str]) -> int:
        """How many of `persons` have a guilt status p knows, p included."""
        return sum(map(row.__getitem__, map(position.__getitem__, persons))) + (p in persons)

    if known(group & kw.guilty) != must:
        return -1
    return must + len(group) - known(group)


def _require_group(kw: KnowledgeWorld, group: collections.abc.Set[str]) -> None:
    if not isinstance(group, collections.abc.Set):
        raise PreconditionError(f"question group must be a set, not {type(group).__name__}")
    if not kw._person_set.issuperset(group):
        bad = set(group) - kw._person_set
        raise PreconditionError(f"question group references unknown persons {sorted(bad)}")


def _answer(
    kw: KnowledgeWorld, p: str, question: Question, rng: Optional[random.Random]
) -> Answer:
    """p's answer to `question`. With `rng` None it is the honest answer, to
    the extent of p's knowledge, a token standing for `kw.secret`; else it
    is the answer p's speaker type gives, `rng` being the liars' adversarial
    source. Every answer rule is here.

    The asker and the person a question names are checked first, then a
    listed group, by `_require_group`. p's liar and partial flags come from
    `type_of`. A possibility question is then settled, where it can be,
    with no knowledge row: yes when the guilty set itself fits it, since
    knowledge is factive and so the truth is compatible with what anyone
    knows; no when every set that fits disagrees with p's own guilt, which
    p knows. Only what is left reads p's counts and row from `_askers`: a
    guilty target other than p, another size or group, and the detective
    questions. A listed group left unsettled is read by
    `_compatible_within`. The questions the registered strategies ask call
    no other function of the package than the `Answer` constructor, but for
    the paper-literal lists of `solve_liars`, which are listed groups."""
    kind = type(question)
    try:
        speaker = kw.type_of[p]
    except KeyError:
        raise PreconditionError(f"unknown person '{p}'") from None
    guilty = kw.guilty
    if kind is KnownFact:
        honest = _YES if question.truth else _NO
    elif kind is DirectGuilt:
        # A partial type answers as if innocent.
        honest = _YES if p in guilty and (rng is None or not speaker.partial) else _NO
    elif kind is SecretAttribute:
        if kw.secret is None:
            raise PreconditionError("no secret attribute is configured for this world")
        honest = _TOKEN if p in guilty else _UNKNOWN
    else:
        # A possibility question names `absent`, whom a fitting criminal set
        # is free of, and `size` when it asks for one, or else a `group` the
        # set is within or equal to; a detective question names neither.
        absent = group = size = honest = None
        if kind is PossibleInnocent:
            absent = question.target
            if absent not in kw.type_of:
                raise PreconditionError(f"unknown person '{absent}'")
        elif kind is PossibleSubset or kind is PossibleExact:
            group = question.group
            if kind is PossibleSubset and type(group) is _AllBut \
                    and group.roster is kw._person_set and group.absent in group.roster:
                # Everyone but q: the set form of "could q be innocent?".
                absent, group = group.absent, None
            elif group is not kw._person_set:
                _require_group(kw, group)
        elif kind is PossibleSizeExcludingSelf:
            absent, size = p, question.m
        elif kind is not DidDetectiveDoIt and kind is not DetectivePossiblyGuilty:
            raise PreconditionError(f"unknown question {question!r}")
        # The guilty set is compatible with everyone's knowledge: yes when it
        # fits. p knows their own guilt: no when every fitting set would
        # disagree with it.
        if absent is not None:
            if absent not in guilty and (size is None or size == len(guilty)):
                honest = _YES
            elif absent == p and p in guilty:
                honest = _NO
        elif group is not None:
            if kind is PossibleSubset:
                if guilty <= group:
                    honest = _YES
                elif p in guilty and p not in group:
                    honest = _NO
            elif group == guilty:
                honest = _YES
            elif (p in group) is not (p in guilty):
                honest = _NO
        if honest is None:
            must, banned, row = kw._askers[p]
            n = len(kw.persons)
            public = kw.count_public
            if absent is None and group is None:
                # Could the detective, an outsider, be among the criminals?
                # Someone who knows the whole roster's guilt knows the answer.
                possible = must + banned < n and (
                    public is None or must <= public - 1 <= n - banned)
                honest = _NO if not possible else _UNKNOWN if kind is DidDetectiveDoIt else _YES
            else:
                # `most`: the most persons a compatible criminal set free of
                # `absent` or within the group may hold, -1 when none may.
                if absent is not None:
                    # A set free of a person p knows guilty is not compatible;
                    # one p knows innocent is among the banned already.
                    known = absent == p or row[kw.knowledge._position[absent]]
                    most = -1 if known and absent in guilty else n - banned - (not known)
                elif group is kw._person_set:
                    # Every compatible set is within the roster.
                    most = n - banned
                else:
                    most = _compatible_within(kw, p, group)
                if kind is PossibleExact:
                    # The one subset of the group as large as the group is the group.
                    size = len(group)
                target = public if size is None else size
                honest = _YES if (public is None or size is None or size == public) and (
                    most > 0 if target is None else 1 <= target and must <= target <= most) \
                    else _NO

    if rng is None or speaker.island is not _LIARS:
        return Answer(p, question, honest, kw.secret if honest is _TOKEN else None)
    if kind is SecretAttribute:
        while True:
            token = f"bogus-{rng.getrandbits(32):08x}"
            if token != kw.secret:
                return Answer(p, question, _TOKEN, token)
    if honest is _UNKNOWN:
        # Honest "I don't know" on a yes-or-no question: the liar answers
        # adversarially. Robust strategies must not depend on this choice.
        return Answer(p, question, rng.choice((_YES, _NO)))
    return Answer(p, question, _NO if honest is _YES else _YES)


def truthful_answer(kw: KnowledgeWorld, p: str, question: Question) -> Answer:
    """What p would answer if answering honestly to the extent of their
    knowledge. Possibility questions never come back unknown: they ask about
    the askee's own knowledge."""
    return _answer(kw, p, question, None)


def spoken_answer(
    kw: KnowledgeWorld, p: str, question: Question, rng: Optional[random.Random] = None
) -> Answer:
    """The answer p actually gives, filtered through their speaker type: a
    partial type's honest answer to the guilt question is no, and a liar
    then flips yes and no."""
    return _answer(kw, p, question, rng or random.Random(0))


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
    rng: Optional[random.Random],
    asks: Iterable[tuple[str, Question, str]],
    guilty_says: AnswerValue,
    truth_tellers: Optional[collections.abc.Container[str]] = None,
) -> StrategyResult:
    """Put each (asker, question, suspect) of `asks` and accuse the suspect
    when the answer is `guilty_says` from an asker read as a truth-teller,
    one of `truth_tellers` (by default, those from the truth-tellers'
    island), or its flip from any other. The one ask-and-read loop of the
    strategies: it makes one call per ask, the answer's."""
    rng = rng or random.Random(0)
    if truth_tellers is None:
        truth_tellers = kw.truth_tellers()
    liar_says = {_YES: _NO, _NO: _YES}.get(guilty_says)
    transcript: list[Answer] = []
    accused: list[str] = []
    # Identity tests, not enum-keyed lookups: an enum's hash runs Python code.
    for asker, question, suspect in asks:
        answer = _answer(kw, asker, question, rng)
        transcript.append(answer)
        if answer.value is (guilty_says if asker in truth_tellers else liar_says):
            accused.append(suspect)
    return _result(accused, transcript)


def _each(
    persons: Iterable[str], question: Union[Question, Callable[[str], Question]]
) -> Iterator[tuple[str, Question, str]]:
    """Ask each of `persons`, in order, about themselves: `question`, or
    `question(p)` when it is a function of the person."""
    if callable(question):
        return ((p, question(p), p) for p in persons)
    return ((p, question, p) for p in persons)


def _among_the_others(kw: KnowledgeWorld) -> Callable[[str], Question]:
    """For each p: could the criminals all be among everyone but p? The
    group is a view of the roster without p, not a copy of it."""
    everyone = kw._person_set
    return lambda p: PossibleSubset(_AllBut(everyone, p))


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
    # Every answer is read at face value: a yes classifies its speaker.
    return _ask_each(kw, rng, _each(kw.persons, KnownFact(True)), _YES, kw._person_set)


def run_ask_all_about_others(
    kw: KnowledgeWorld, rng: Optional[random.Random] = None
) -> StrategyResult:
    """Ask every person whether every other person could be innocent.

    A truth-teller answers no (or a liar answers yes) exactly when they know
    the target must be guilty, so the accused are the criminals whose deed
    some other person knows about; never an innocent. Islands are assumed
    already known (run classification first on mixed crowds)."""
    persons = kw.persons
    questions = [(q, PossibleInnocent(q)) for q in persons]
    asks = ((p, question, q) for p in persons for q, question in questions if q != p)
    return _ask_each(kw, rng, asks, _NO)


def run_count_known(kw: KnowledgeWorld, rng: Optional[random.Random] = None) -> StrategyResult:
    """With the criminal count public and nobody knowing about anybody else,
    ask each person whether that many criminals could exist without them.
    The guilty know they are in the gang, so their honest answer is no.
    Assumes the public count its entry declares, as `run_strategy` checks."""
    _require_all_unknown(kw, "the public-count strategy")
    return _ask_each(kw, rng, _each(kw.persons, PossibleSizeExcludingSelf(kw.count_public)), _NO)


def run_count_unknown(kw: KnowledgeWorld, rng: Optional[random.Random] = None) -> StrategyResult:
    """With no count known and no knowledge of others, ask everyone whether
    it is possible that everyone committed the crime. Only the guilty can
    honestly say yes; the innocent know of their own innocence. Assumes the
    hidden count its entry declares, as `run_strategy` checks."""
    _require_all_unknown(kw, "the unknown-count strategy")
    return _ask_each(kw, rng, _each(kw.persons, PossibleExact(kw._person_set)), _YES)


def run_solve_truthtellers(
    kw: KnowledgeWorld, rng: Optional[random.Random] = None
) -> StrategyResult:
    """Two phases on the truth-tellers' island. First everyone is asked about
    everyone else, catching each criminal someone else knows about. Then each
    still-unidentified person is asked whether the crime could have been
    committed entirely by the identified criminals and the rest of the crowd,
    i.e. without them; only a criminal must answer no. Assumes the
    truth-tellers' crowd its entry declares, as `run_strategy` checks."""
    known = run_ask_all_about_others(kw, rng)
    # The accused are all among everyone but p, so this asks about the
    # identified criminals and the rest of the crowd.
    unknown = (p for p in kw.persons if p not in known.accused)
    rest = _ask_each(kw, rng, _each(unknown, _among_the_others(kw)), _NO)
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
    no and get misaccused. Assumes the liars' crowd its entry declares, as
    `run_strategy` checks."""
    rng = rng or random.Random(0)
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
    return _ask_each(kw, rng, _each(kw.persons, question), _NO)


def run_solve_mixed(
    kw: KnowledgeWorld, rng: Optional[random.Random] = None
) -> StrategyResult:
    """Classify islands with one question each, then ask each person whether
    the criminals could all be among the others, reading the answer through
    the island. At most two questions per person, for any crowd."""
    classified = run_classify_islands(kw, rng)
    tt = classified.accused
    found = _ask_each(kw, rng, _each(kw.persons, _among_the_others(kw)), _NO, tt)
    return _result(found.accused, classified.transcript + found.transcript)


def run_neil(kw: KnowledgeWorld, rng: Optional[random.Random] = None) -> StrategyResult:
    """Identify a lone criminal among strangers with one question for all.

    Truth-tellers are asked whether the detective did it: the criminal knows
    better and says no, the innocent honestly cannot tell. Liars get the
    possibility form of the same question so nobody has to answer "I don't
    know", and the criminal's flipped answer is yes. Assumes the one-island
    crowd and public count its entry declares, as `run_strategy` checks."""
    if len(kw.guilty) != 1:
        raise PreconditionError("this strategy needs exactly one criminal")
    _require_all_unknown(kw, "the lone-criminal strategy")
    tt = kw.type_of[kw.persons[0]].island is Island.TRUTH_TELLERS  # the crowd's one island
    question: Question = DidDetectiveDoIt() if tt else DetectivePossiblyGuilty()
    return _ask_each(kw, rng, _each(kw.persons, question), _NO)


def run_secret_attribute(
    kw: KnowledgeWorld, rng: Optional[random.Random] = None
) -> StrategyResult:
    """Ask everyone for the crime detail only the criminals know. Truthful
    criminals produce it, truthful innocents cannot. Assumes the secret and
    the truth-tellers' crowd its entry declares, as `run_strategy` checks:
    an open-ended answer from a liar is arbitrary, not informative."""
    # Only a truthful criminal answers with a token, and it is the secret.
    return _ask_each(kw, rng, _each(kw.persons, SecretAttribute()), _TOKEN)


# ---------------------------------------------------------------------------
# Strategy registry
# ---------------------------------------------------------------------------

def _accuses_the_guilty(kw: KnowledgeWorld, result: StrategyResult) -> bool:
    return result.accused == kw.guilty


def _finds_the_truth_tellers(kw: KnowledgeWorld, result: StrategyResult) -> bool:
    return result.accused == kw.truth_tellers()


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
    `succeeds(kw, result)` says whether a run did what the strategy promises.
    `run_strategy` and `simulate` refuse from `refusal`, which reads the first three."""

    run: Callable[..., StrategyResult]
    islands: tuple[str, ...] = ISLAND_MODES
    count_public: Optional[bool] = None
    needs_secret: bool = False
    succeeds: Callable[[KnowledgeWorld, StrategyResult], bool] = _accuses_the_guilty
    takes_mode: bool = False

    def refusal(self, name: str, island: str, count_public: bool, secret: bool) -> Optional[str]:
        """Why a world of the island mode `island`, the count public or not and
        a secret or not, is outside this entry for the strategy `name`, or None."""
        declared = f"the {name} strategy is declared for"
        if island not in self.islands:
            return f"{declared} --island {' or '.join(self.islands)}, not {island}"
        if self.count_public not in (None, count_public):
            wanted, given = ("public", "hidden") if self.count_public else ("hidden", "public")
            return f"{declared} a {wanted} criminal count, not a {given} one"
        if self.needs_secret and not secret:
            return f"{declared} a world with a secret, not one without"
        return None


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
    """Run the registered strategy `name` on `kw` unless its entry refuses
    the world. Only a strategy that `takes_mode` accepts a mode but "robust"."""
    strategy = STRATEGIES.get(name)
    if strategy is None:
        raise PreconditionError(f"no strategy '{name}' (the strategies: {', '.join(STRATEGIES)})")
    if mode != "robust" and not strategy.takes_mode:
        raise PreconditionError(f"the {name} strategy has no mode '{mode}'")
    # Any crowd is a mixed one: only a narrower entry reads the crowd's islands.
    islands = set() if "mixed" in strategy.islands else {t.island for t in kw.type_of.values()}
    island = "mixed" if len(islands) != 1 else "tt" if Island.TRUTH_TELLERS in islands else "liars"
    refusal = strategy.refusal(name, island, kw.count_public is not None, kw.secret is not None)
    if refusal:
        raise PreconditionError(refusal)
    if strategy.takes_mode:
        return strategy.run(kw, rng, mode)
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
    secret_text = f"secret-{rng.getrandbits(32):08x}" if secret else None
    if density == 0:
        # Every draw would come out 0, and no later draw reads the generator.
        rows = (bytes(n),) * n
    else:
        # Drawn when first read. The draw holds the generator itself, not a
        # `getstate()` snapshot, which costs about as much to take and restore
        # as the rows of ten persons cost to draw.
        rows = functools.partial(_draw_rows, rng, n, density)
    return KnowledgeWorld(
        persons=persons,
        type_of=type_of,
        guilty=guilty,
        knowledge=KnowledgeRows(persons, guilty, rows),
        count_public=k if count_public else None,
        secret=secret_text,
    )
