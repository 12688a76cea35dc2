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
count premise it accepts, whether it needs a secret, a crowd that knows
nothing of anyone else's guilt or a lone criminal, the modes it has and
those that draw a list from the others, and what counts as success. One
check, `Strategy.refusal`, holds every premise; each caller gives it what
it knows. `run_strategy`, which runs any entry by name, reads the world;
the CLI's `simulate`, whose `--strategy` and `--mode` choices come from the
table, reads its flags, before any draw. No runner checks a premise or
refuses at run time. Every runner asks
through `_ask_each`: put each (asker, question, suspect) to the asker and
accuse the suspect on the answer a criminal gives, a truth-teller's mark
from an asker read as a truth-teller (by default, anyone from the
truth-tellers' island) and its flip from anyone else; `classify_islands`
reads every answer at face value. The one exception is the sweep of
`ask_all_about_others`, the first phase of `solve_truthtellers` too, which
asks everyone whether each other person could be innocent: n(n-1)
questions, answered and read with the same rule by `_ask_about_others` in
one step of byte operations per asker. Both keep, per ask, the asker, the
question and the answer's value as one byte, and the rare tokens by ask
index, in a `_Transcript`, which a runner's later phase extends: a
strategy's `StrategyResult.transcript` turns into `Answer` records only
when it is first read, as `simulate` does only for a failing trial under
`--json`. It equals, hashes, copies and pickles like the tuple of those
records. A question's transcript text follows one rule,
`describe_question`: the class name in snake case, then its field, if it
has one, in parentheses.

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
pair, `rng.random() < density`, in p-major order (`_draw_rows`).

Nothing is drawn after the rows, so `generate_knowledge_world` hands
`KnowledgeRows` a deferred draw, `_draw_rows` bound to the generator, which
nothing else reads, and to n and density. The table calls it on the first
read of `rows` and then drops it. A shallow copy of the table is the table,
and a deep copy or a pickle copies the generator's state, so every copy
reads the same bytes. A strategy that never reads a row, such as
`classify_islands` or `secret_attribute`, makes no draw at all. A world with
knowledge density 0 draws no row: every draw would come out 0, so its rows
are zeros from the start.

Every answer but those of the sweep above comes from one function,
`_answer`, which holds every other answer rule: it applies the honest rule
of the question's class and then, given an adversarial source, the
speaker-type filter, reading the speaker's liar and partial flags from
`KnowledgeWorld.type_of`. The control, guilt and secret
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
`solve_truthtellers` do. `_answer` gives an answer's value and token;
`truthful_answer` and `spoken_answer` are one call of it each, made into an
`Answer`, and `_ask_each` calls it once per ask and nothing else. The
"could q be innocent?" sweep makes no call per ask: for a guilty q the
asker knows nothing of, the answer is the same for every such q, `_fits`
of the asker's counts, the rule `_answer` reads for that question too, so
a whole row of answers is the asker's knowledge row and the guilty set's
bytes, added and translated at C level.
Every question a registered strategy asks costs O(1) in the crowd size: it
reads at most the counts and one byte of the row, and a question that is
the same for every asker is built once per world. The robust strategies'
"could the criminals all be among everyone but you?" is asked in its
normal form, `_AmongTheOthers`, one per world, read as the asker absent;
only a transcript, when read, shows it as "everyone but q", an O(1) set
view of the roster without q, `_AllBut`, that equals and hashes like the
(n-1)-person frozenset and has its transcript text. Any other subset or
exact-group question, such a view included, is checked by `_require_group`
and reads the row once over its group, at C level, and builds nothing per
world. `knows` remains the plain per-pair lookup the tests' oracles use.

Generated worlds are limited to MAX_CROWD persons, because generation draws
once per ordered pair of persons and keeps a byte per pair; a larger crowd is
refused before any draw.
"""

from __future__ import annotations

import bisect
import collections.abc
import enum
import functools
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


# Held while a deferred draw of knowledge rows, or a transcript's answers,
# is made, so that threads reading a table or a transcript first make it once.
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


@record
class _AmongTheOthers:
    """Could the criminals all be among everyone but you? The robust
    strategies' question as asked: `_answer` reads it in its normal form,
    the asker absent, and a transcript shows it, when read, as
    `PossibleSubset(_AllBut(roster, asker))`."""


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

    # Members are singletons and `==` is identity, so the identity hash
    # agrees with it; Enum's own hashes the name in Python code.
    __hash__ = object.__hash__


@record
class Answer:
    person: str
    question: Question
    value: AnswerValue
    token: Optional[str] = None


# Bound once: reading `AnswerValue.YES` is over ten times slower than a global.
_YES, _NO, _UNKNOWN, _TOKEN = _VALUES = tuple(AnswerValue)
# A value's byte in a transcript: its index in `_VALUES`.
_BYTE = {value: i for i, value in enumerate(_VALUES)}
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


def _fits(must: int, most: int, size: Optional[int]) -> bool:
    """Whether a criminal set compatible with an asker's knowledge can hold
    `size` persons, or any number when `size` is None, when such sets hold
    from `must` to `most` persons: a crime has at least one criminal."""
    return most > 0 if size is None else 1 <= size and must <= size <= most


def _require_group(kw: KnowledgeWorld, group: collections.abc.Set[str]) -> None:
    if not isinstance(group, collections.abc.Set):
        raise PreconditionError(f"question group must be a set, not {type(group).__name__}")
    if not kw._person_set.issuperset(group):
        bad = set(group) - kw._person_set
        raise PreconditionError(f"question group references unknown persons {sorted(bad)}")


def _answer(
    kw: KnowledgeWorld, p: str, question: Question, rng: Optional[random.Random]
) -> tuple[AnswerValue, Optional[str]]:
    """The value and token of p's answer to `question`: the token is None
    but for a TOKEN answer. With `rng` None it is the honest answer, to the
    extent of p's knowledge, a token standing for `kw.secret`; else it is
    the answer p's speaker type gives, `rng` being the liars' adversarial
    source. Every answer rule is here but the table of the "could q be
    innocent?" sweep, `_ask_about_others`, which `tests/test_exhaustive.py`
    checks against `spoken_answer`.

    The asker and the person a question names are checked first, then a
    listed group, by `_require_group`. p's liar and partial flags come from
    `type_of`. A possibility question is then settled, where it can be,
    with no knowledge row: yes when the guilty set itself fits it, since
    knowledge is factive and so the truth is compatible with what anyone
    knows; no when every set that fits disagrees with p's own guilt, which
    p knows. Only what is left reads p's counts and row from `_askers`: a
    guilty target other than p, another size or group, and the detective
    questions. A listed group left unsettled is read by
    `_compatible_within`. Whether a compatible set can have the size asked
    for is `_fits`, which the "could q be innocent?" sweep,
    `_ask_about_others`, also reads. The questions the registered
    strategies ask through `_ask_each` call no other function of the
    package and build no record, but for the paper-literal lists of
    `solve_liars`, which are listed groups. The one
    "everyone but p" form read without its group is the robust strategies'
    `_AmongTheOthers`, read as "could p be innocent?"; an `_AllBut` view is
    a listed group like any other."""
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
        elif kind is _AmongTheOthers:
            absent = p
        elif kind is PossibleSubset or kind is PossibleExact:
            group = question.group
            if group is not kw._person_set:
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
                honest = _YES if (public is None or size is None or size == public) and _fits(
                    must, most, public if size is None else size) else _NO

    if rng is None or speaker.island is not _LIARS:
        return honest, kw.secret if honest is _TOKEN else None
    if kind is SecretAttribute:
        while True:
            token = f"bogus-{rng.getrandbits(32):08x}"
            if token != kw.secret:
                return _TOKEN, token
    if honest is _UNKNOWN:
        # Honest "I don't know" on a yes-or-no question: the liar answers
        # adversarially. Robust strategies must not depend on this choice.
        return rng.choice((_YES, _NO)), None
    return _NO if honest is _YES else _YES, None


def truthful_answer(kw: KnowledgeWorld, p: str, question: Question) -> Answer:
    """What p would answer if answering honestly to the extent of their
    knowledge. Possibility questions never come back unknown: they ask about
    the askee's own knowledge."""
    value, token = _answer(kw, p, question, None)
    return Answer(p, question, value, token)


def spoken_answer(
    kw: KnowledgeWorld, p: str, question: Question, rng: Optional[random.Random] = None
) -> Answer:
    """The answer p actually gives, filtered through their speaker type: a
    partial type's honest answer to the guilt question is no, and a liar
    then flips yes and no."""
    value, token = _answer(kw, p, question, rng or random.Random(0))
    return Answer(p, question, value, token)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class _Transcript(collections.abc.Sequence):
    """A strategy's answers, as asked of one world: per ask, the asker, the
    question and the value as one byte (its index in `_VALUES`), and the
    tokens of TOKEN answers by ask index. A read-only sequence of `Answer`
    records, built on the first read, once, whichever thread reads first;
    the robust `_AmongTheOthers` reads as `PossibleSubset(_AllBut(roster,
    asker))`. It equals and hashes like the tuple of its answers, and
    copies and pickles as that tuple. It starts empty; a runner's asks
    extend it, a later phase extending the transcript of the one before,
    and no ask is added once it has been read."""

    def __init__(self, kw: KnowledgeWorld) -> None:
        self._kw = kw
        self._askers: list[str] = []
        self._questions: list[Question] = []
        self._values = bytearray()
        self._tokens: dict[int, str] = {}

    @functools.cached_property
    def answers(self) -> tuple[Answer, ...]:
        with _FIRST_READ:
            if "answers" not in self.__dict__:
                everyone, tokens = self._kw._person_set, self._tokens
                self.__dict__["answers"] = tuple(
                    Answer(p, PossibleSubset(_AllBut(everyone, p))
                           if type(question) is _AmongTheOthers else question,
                           _VALUES[value], tokens.get(i))
                    for i, (p, question, value)
                    in enumerate(zip(self._askers, self._questions, self._values)))
        return self.__dict__["answers"]

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index):
        return self.answers[index]

    def __iter__(self) -> Iterator[Answer]:
        return iter(self.answers)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Transcript):
            other = other.answers
        elif not isinstance(other, tuple):
            return NotImplemented
        return self.answers == other

    def __hash__(self) -> int:
        return hash(self.answers)

    def __repr__(self) -> str:
        return repr(self.answers)

    def __reduce__(self) -> tuple:
        return tuple, (self.answers,)


@record
class StrategyResult:
    accused: frozenset[str]
    # A `_Transcript` from a runner; any sequence of answers will do.
    transcript: Sequence[Answer]
    questions_asked: int


def _result(accused: Iterable[str], transcript: Sequence[Answer]) -> StrategyResult:
    return StrategyResult(frozenset(accused), transcript, len(transcript))


def _ask_each(
    kw: KnowledgeWorld,
    rng: Optional[random.Random],
    asks: Iterable[tuple[str, Question, str]],
    guilty_says: AnswerValue,
    truth_tellers: Optional[collections.abc.Container[str]] = None,
    transcript: Optional[_Transcript] = None,
) -> StrategyResult:
    """Put each (asker, question, suspect) of `asks` and accuse the suspect
    when the answer is `guilty_says` from an asker read as a truth-teller,
    one of `truth_tellers` (by default, those from the truth-tellers'
    island), or its flip from any other. The ask-and-read loop of every
    strategy but the "could q be innocent?" sweep, `_ask_about_others`: it
    makes one `_answer` call per ask and adds the asker, the question and
    the value's byte to `transcript` (by default, a new one), building no
    `Answer`."""
    rng = rng or random.Random(0)
    if truth_tellers is None:
        truth_tellers = kw.truth_tellers()
    liar_says = {_YES: _NO, _NO: _YES}.get(guilty_says)
    if transcript is None:
        transcript = _Transcript(kw)
    askers, questions = transcript._askers, transcript._questions
    values, tokens = transcript._values, transcript._tokens
    accused: list[str] = []
    answer, byte = _answer, _BYTE
    for asker, question, suspect in asks:
        value, token = answer(kw, asker, question, rng)
        askers.append(asker)
        questions.append(question)
        values.append(byte[value])
        if token is not None:
            tokens[len(values) - 1] = token
        if value is (guilty_says if asker in truth_tellers else liar_says):
            accused.append(suspect)
    return _result(accused, transcript)


# By the honest answer about a criminal the asker knows nothing of, a
# `bytes.translate` table from `2 * guilty + known` for a target, as
# `_ask_about_others` forms it, to the byte of the honest answer to "could
# the target be innocent?": yes for an innocent (0 or 1), that answer for a
# criminal the asker knows nothing of (2), no for one they know (3).
_INNOCENCE = {unknown: bytes.maketrans(b"\0\1\2\3",
                                       bytes(_BYTE[value] for value in (_YES, _YES, unknown, _NO)))
              for unknown in (_YES, _NO)}
# Yes for no and no for yes, as bytes: the 0 and 1 of `_BYTE`.
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _ask_about_others(kw: KnowledgeWorld) -> StrategyResult:
    """Ask every person, in roster order, whether each other person, in
    roster order, could be innocent, and accuse the target on a no from a
    truth-teller or a yes from a liar: the asks, values and accused of
    `_ask_each` with `guilty_says` no, in one step per asker instead of one
    `_answer` call per ask.

    The honest answer is yes for an innocent target (the truth axiom) and no
    for a criminal the asker knows; for a criminal the asker knows nothing
    of it is the same for every such target, `_fits` with the most persons
    a compatible set free of the target may hold: everyone the asker has
    not ruled out, less the target. So each row of honest answers is the
    asker's knowledge row plus twice the guilt bytes, added as integers,
    with the asker's own byte dropped, translated by `_INNOCENCE`; a liar
    speaks its flip. Either way the accused are the honest no's. This
    question is never honestly "I don't know", so no liar draws an
    adversarial choice and no source is taken."""
    persons, n, public = kw.persons, len(kw.persons), kw.count_public
    transcript = _Transcript(kw)
    askers, questions, values = transcript._askers, transcript._questions, transcript._values
    asked = [PossibleInnocent(q) for q in persons]
    twice_guilt = int.from_bytes(bytes(q in kw.guilty for q in persons), "little") << 1
    accused: set[str] = set()
    for i, (p, (must, banned, row)) in enumerate(kw._askers.items()):
        unknown = _YES if _fits(must, n - banned - 1, public) else _NO
        targets = (twice_guilt + int.from_bytes(row, "little")).to_bytes(n, "little")
        honest = (targets[:i] + targets[i + 1:]).translate(_INNOCENCE[unknown])
        askers += [p] * (n - 1)
        questions += asked[:i]
        questions += asked[i + 1:]
        values += honest.translate(_FLIP) if kw.type_of[p].island is _LIARS else honest
        # A no is byte 1 and a yes byte 0, so the no's select themselves.
        accused.update(compress(persons[:i] + persons[i + 1:], honest))
    return _result(accused, transcript)


def _each(
    persons: Iterable[str], question: Union[Question, Callable[[str], Question]]
) -> Iterator[tuple[str, Question, str]]:
    """Ask each of `persons`, in order, about themselves: `question`, or
    `question(p)` when it is a function of the person."""
    if callable(question):
        return ((p, question(p), p) for p in persons)
    return ((p, question, p) for p in persons)


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
    already known (run classification first on mixed crowds). No answer is
    honestly "I don't know", so `rng` is never drawn from."""
    return _ask_about_others(kw)


def run_count_known(kw: KnowledgeWorld, rng: Optional[random.Random] = None) -> StrategyResult:
    """With the criminal count public and nobody knowing about anybody else,
    ask each person whether that many criminals could exist without them.
    The guilty know they are in the gang, so their honest answer is no.
    Assumes the public count and blank knowledge its entry declares, as
    `run_strategy` checks."""
    return _ask_each(kw, rng, _each(kw.persons, PossibleSizeExcludingSelf(kw.count_public)), _NO)


def run_count_unknown(kw: KnowledgeWorld, rng: Optional[random.Random] = None) -> StrategyResult:
    """With no count known and no knowledge of others, ask everyone whether
    it is possible that everyone committed the crime. Only the guilty can
    honestly say yes; the innocent know of their own innocence. Assumes the
    hidden count and blank knowledge its entry declares, as `run_strategy`
    checks."""
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
    rest = _ask_each(kw, rng, _each(unknown, _AmongTheOthers()), _NO,
                     transcript=known.transcript)
    return _result(known.accused | rest.accused, rest.transcript)


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
    no and get misaccused. Assumes the liars' crowd and a mode its entry
    declares, and for the literal list someone to draw it from, as
    `run_strategy` checks; any other mode is asked as the question itself,
    which the first answer refuses."""
    rng = rng or random.Random(0)
    roster = sorted(kw.persons)

    def literal(p: str) -> Question:
        at = bisect.bisect_left(roster, p)
        others = roster[:at] + roster[at + 1:]
        size = kw.count_public if kw.count_public is not None else rng.randint(1, len(others))
        return PossibleExact(frozenset(rng.sample(others, size)))

    question = {"robust": _AmongTheOthers(), "paper-literal": literal}.get(mode, mode)
    return _ask_each(kw, rng, _each(kw.persons, question), _NO)


def run_solve_mixed(
    kw: KnowledgeWorld, rng: Optional[random.Random] = None
) -> StrategyResult:
    """Classify islands with one question each, then ask each person whether
    the criminals could all be among the others, reading the answer through
    the island. At most two questions per person, for any crowd."""
    classified = run_classify_islands(kw, rng)
    tt = classified.accused
    found = _ask_each(kw, rng, _each(kw.persons, _AmongTheOthers()), _NO, tt,
                      transcript=classified.transcript)
    return _result(found.accused, found.transcript)


def run_neil(kw: KnowledgeWorld, rng: Optional[random.Random] = None) -> StrategyResult:
    """Identify a lone criminal among strangers with one question for all.

    Truth-tellers are asked whether the detective did it: the criminal knows
    better and says no, the innocent honestly cannot tell. Liars get the
    possibility form of the same question so nobody has to answer "I don't
    know", and the criminal's flipped answer is yes. Assumes the one-island
    crowd, public count, lone criminal and blank knowledge its entry
    declares, as `run_strategy` checks."""
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
    `needs_secret` says the world must carry a secret attribute,
    `needs_blank_knowledge` that nobody may know anything of anyone else's
    guilt, and `needs_one_criminal` that there must be exactly one criminal.
    `modes` are the variants the runner has, chosen by a `mode` argument
    when there are more than one. `list_modes` are those that ask each
    person about a list drawn from the others, of the count's size when it
    is public: they need two persons or more and, with the count public,
    fewer criminals than persons. `succeeds(kw, result)` says whether a run
    did what the strategy promises. Every premise but `succeeds` is checked
    by `refusal`, the one check `run_strategy` and `simulate` refuse from."""

    run: Callable[..., StrategyResult]
    islands: tuple[str, ...] = ISLAND_MODES
    count_public: Optional[bool] = None
    needs_secret: bool = False
    succeeds: Callable[[KnowledgeWorld, StrategyResult], bool] = _accuses_the_guilty
    needs_blank_knowledge: bool = False
    needs_one_criminal: bool = False
    modes: tuple[str, ...] = ("robust",)
    list_modes: tuple[str, ...] = ()

    def refusal(self, name: str, island: str, count_public: bool, secret: bool, mode: str,
                n: int, criminals: tuple[int, int], knowing: bool) -> Optional[str]:
        """Why a run of the strategy `name` in `mode` is outside this entry,
        or None: on worlds of the island mode `island`, the count public or
        not, a secret or not, `n` persons with between `criminals` (low,
        high) criminals, and where someone may know another's guilt or not
        (`knowing`)."""
        declared = f"the {name} strategy is declared for"
        low, high = criminals
        given = low if low == high else f"{low}-{high}"
        if mode not in self.modes:
            return f"{declared} --mode {' or '.join(self.modes)}, not {mode}"
        if island not in self.islands:
            return f"{declared} --island {' or '.join(self.islands)}, not {island}"
        if self.count_public not in (None, count_public):
            wanted, given = ("public", "hidden") if self.count_public else ("hidden", "public")
            return f"{declared} a {wanted} criminal count, not a {given} one"
        if self.needs_secret and not secret:
            return f"{declared} a world with a secret, not one without"
        if self.needs_one_criminal and criminals != (1, 1):
            return f"{declared} exactly one criminal, not {given}"
        if self.needs_blank_knowledge and knowing:
            return (f"{declared} a crowd where no one knows anything about anyone else's "
                    "guilt, not one where someone may")
        if mode in self.list_modes and n < 2:
            return f"{declared} at least two persons in --mode {mode}, not {n}"
        if mode in self.list_modes and count_public and high >= n:
            return (f"{declared} fewer criminals than persons in --mode {mode} with a public "
                    f"count, not {given} of {n}")
        return None


# In the order the CLI lists them.
STRATEGIES: dict[str, Strategy] = {
    "classify_islands": Strategy(run_classify_islands, succeeds=_finds_the_truth_tellers),
    "ask_all_about_others": Strategy(
        run_ask_all_about_others, succeeds=_accuses_the_known_criminals
    ),
    "count_known": Strategy(run_count_known, count_public=True, needs_blank_knowledge=True),
    "count_unknown": Strategy(run_count_unknown, count_public=False,
                              needs_blank_knowledge=True),
    "solve_truthtellers": Strategy(run_solve_truthtellers, islands=("tt",)),
    "solve_liars": Strategy(run_solve_liars, islands=("liars",),
                            modes=("robust", "paper-literal"), list_modes=("paper-literal",)),
    "solve_mixed": Strategy(run_solve_mixed),
    "neil": Strategy(run_neil, islands=("tt", "liars"), count_public=True,
                     needs_blank_knowledge=True, needs_one_criminal=True),
    "secret_attribute": Strategy(run_secret_attribute, islands=("tt",), needs_secret=True),
}


def run_strategy(
    kw: KnowledgeWorld,
    name: str,
    rng: Optional[random.Random] = None,
    mode: str = "robust",
) -> StrategyResult:
    """Run the registered strategy `name` in `mode` on `kw` unless its entry
    refuses the world."""
    strategy = STRATEGIES.get(name)
    if strategy is None:
        raise PreconditionError(f"no strategy '{name}' (the strategies: {', '.join(STRATEGIES)})")
    # Any crowd is a mixed one: only a narrower entry reads the crowd's islands.
    islands = set() if "mixed" in strategy.islands else {t.island for t in kw.type_of.values()}
    island = "mixed" if len(islands) != 1 else "tt" if Island.TRUTH_TELLERS in islands else "liars"
    # Only an entry that needs blank knowledge reads the rows.
    knowing = strategy.needs_blank_knowledge and not kw.all_knowledge_unknown()
    refusal = strategy.refusal(name, island, kw.count_public is not None, kw.secret is not None,
                               mode, len(kw.persons), (len(kw.guilty),) * 2, knowing)
    if refusal:
        raise PreconditionError(refusal)
    # A mode but "robust" is one the entry declares, so its runner takes one.
    return strategy.run(kw, rng) if mode == "robust" else strategy.run(kw, rng, mode)


# ---------------------------------------------------------------------------
# Random world generation
# ---------------------------------------------------------------------------

def _draw_rows(rng: random.Random, n: int, density: float) -> tuple[bytes, ...]:
    """The knowledge rows of n persons: byte j of row i is 1 when
    `rng.random() < density` for the ordered pair (i, j), 0 on the diagonal.
    One draw per ordered pair of distinct persons, p-major."""
    draw = rng.random
    return tuple(bytes([j != i and draw() < density for j in range(n)]) for i in range(n))


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
        # as the rows of ten persons cost to draw (13 us each, Python 3.11).
        rows = functools.partial(_draw_rows, rng, n, density)
    return KnowledgeWorld(
        persons=persons,
        type_of=type_of,
        guilty=guilty,
        knowledge=KnowledgeRows(persons, guilty, rows),
        count_public=k if count_public else None,
        secret=secret_text,
    )
