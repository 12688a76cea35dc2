"""Every registered strategy on every world of a small crowd.

Criterion 5 samples random worlds; the paper's claims hold for every world.
Here a crowd of up to three is covered whole: every type vector, every
non-empty guilty set and every knowledge pattern (one bit per ordered pair,
given directly as `KnowledgeRows`), each with the count hidden and public
and a secret set. Each run must either succeed by its entry's `succeeds`
or be refused with `PreconditionError`.

- n <= 2: every world, for every registry entry;
- n = 3: every world on the islands each `solve_*` entry declares.

The premises are tight: over every world with n <= 2, the secret also
unset, and in each mode of the entry, `run_strategy` refuses exactly the
worlds outside the premises its entry declares (islands, count, secret, a
lone criminal, blank knowledge, and in a mode that draws a list from the
others, two persons and, with the count public, an innocent), with the
entry's `refusal` text.

A liar's answer to an honest "I don't know" comes from one seeded source;
every run that is not refused is checked never to draw from it, so no
branching over both answers is needed. Only the default mode of a
strategy that has several is run by the two every-world tests. The paper-literal
mode of `solve_liars` is checked on its own premise, blank knowledge, with
three adversary seeds; the smallest world where it fails is pinned. Its
list draws come from the same source, so there every answer is checked to
leave the source as it found it: the source serves the lists alone.

The "could q be innocent?" sweep of `ask_all_about_others`, the first phase
of `solve_truthtellers` too, answers a whole row per asker without an
`_answer` call per question. Its askers, questions, answer bytes and
accused are checked against the same questions put one at a time through
`spoken_answer`, on every world of up to three persons and on seeded worlds
of 4 to 40, and neither draws from the adversary's source. So is each phase
that asks everyone the same question about themselves, which the runners
answer a column at a time (`_ask_about_themselves`): the control question,
"could the criminals all be among everyone but you?", the two count
questions and the detective questions. On the seeded worlds each side also
runs on a world of its own whose rows are drawn on first read, and the
column step must draw them exactly when the asks one at a time do. Where a
liar must draw, on a mixed crowd asked "did the detective do it?", the
phase is asked one at a time, with the same draws.

The truthful answers to the listed-group questions, "could the criminals
all be within g?" and "could exactly g have done it?", are checked for
every group, every asker and every world against plain subset enumeration:
every type at n <= 2, and one type at n = 3, since those answers do not
read types. On the same worlds every other question class is checked the
same way, honest answers against the oracle and spoken answers against the
speaker-type rule, the adversary's draws included. Each honest answer is
also asked of a copy of the world whose rows are drawn on first read: an
answer that the truth or the asker's own guilt settles must leave it
undrawn. Past three persons, a property test checks every question class
against the same oracle on random worlds of 4 to 8 persons.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islander import interrogation
from islander.interrogation import (
    LIAR_POOL,
    STRATEGIES,
    TT_POOL,
    AnswerValue,
    DetectivePossiblyGuilty,
    DidDetectiveDoIt,
    DirectGuilt,
    Knowledge,
    KnowledgeRows,
    KnowledgeWorld,
    KnownFact,
    PossibleExact,
    PossibleInnocent,
    PossibleSizeExcludingSelf,
    PossibleSubset,
    PreconditionError,
    SecretAttribute,
    _AllBut,
    _AmongTheOthers,
    generate_knowledge_world,
    run_ask_all_about_others,
    run_classify_islands,
    run_count_known,
    run_count_unknown,
    run_neil,
    run_solve_liars,
    run_solve_mixed,
    run_solve_truthtellers,
    run_strategy,
    spoken_answer,
    truthful_answer,
)
from islander.model import ALL_TYPES, Island, SpeakerType

POOLS = {"tt": TT_POOL, "liars": LIAR_POOL, "mixed": ALL_TYPES}


def all_worlds(n, types):
    """Every world of n persons whose types are drawn from `types`."""
    persons = tuple(f"P{i}" for i in range(1, n + 1))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    patterns = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rows = [bytearray(n) for _ in persons]
        for (i, j), bit in zip(pairs, bits):
            rows[i][j] = bit
        patterns.append(tuple(map(bytes, rows)))
    for type_vector in itertools.product(types, repeat=n):
        type_of = dict(zip(persons, type_vector))
        for r in range(1, n + 1):
            for guilty in map(frozenset, itertools.combinations(persons, r)):
                for rows in patterns:
                    knowledge = KnowledgeRows(persons, guilty, rows)
                    for count_public in (None, len(guilty)):
                        yield KnowledgeWorld(persons, type_of, guilty, knowledge,
                                             count_public, secret="secret")


class CountingRandom(random.Random):
    """A `Random` that counts its draws: every draw it serves, `choice` and
    the liar's wrong token included, goes through `random` or `getrandbits`."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def check_every_world(name, worlds):
    """Run `name` on each world; return how many runs were not refused. A run
    that is not refused never draws from the adversary's source: no liar is
    asked a yes-or-no question whose honest answer is "I don't know"."""
    succeeds = STRATEGIES[name].succeeds
    ran = 0
    for kw in worlds:
        rng = CountingRandom(0)
        try:
            result = run_strategy(kw, name, rng)
        except PreconditionError:
            continue
        assert succeeds(kw, result), (name, kw, result.accused)
        assert rng.draws == 0, (name, kw, rng.draws)
        ran += 1
    return ran


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_every_world_of_one_or_two_persons(name):
    worlds = itertools.chain(all_worlds(1, ALL_TYPES), all_worlds(2, ALL_TYPES))
    assert check_every_world(name, worlds) > 0


@pytest.mark.parametrize("name", [name for name in STRATEGIES if name.startswith("solve_")])
def test_every_world_of_three_persons_on_the_declared_islands(name):
    types = [t for t in ALL_TYPES
             if any(t in POOLS[island] for island in STRATEGIES[name].islands)]
    assert check_every_world(name, all_worlds(3, types)) > 0


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_premises_are_tight(name):
    """A world is refused exactly when it is outside the entry's declared
    premises, with the entry's own refusal, and every other world runs."""
    strategy = STRATEGIES[name]
    for kw in itertools.chain(all_worlds(1, ALL_TYPES), all_worlds(2, ALL_TYPES)):
        types = set(kw.type_of.values())
        # The narrowest island mode whose crowds include this one.
        island = next(mode for mode, pool in POOLS.items() if types <= set(pool))
        public = kw.count_public is not None
        knowing = not kw.all_knowledge_unknown()
        guilty, n = len(kw.guilty), len(kw.persons)
        for secret in (kw.secret, None):
            world = KnowledgeWorld(kw.persons, kw.type_of, kw.guilty, kw.knowledge,
                                   kw.count_public, secret)
            outside = (not any(types <= set(POOLS[mode]) for mode in strategy.islands)
                       or strategy.count_public not in (None, public)
                       or (strategy.needs_secret and secret is None)
                       or (strategy.needs_one_criminal and guilty != 1)
                       or (strategy.needs_blank_knowledge and knowing))
            for mode in strategy.modes:
                # A list drawn from the others needs others, and an innocent
                # among them for a public count.
                unlisted = mode in strategy.list_modes and (n < 2 or (public and guilty == n))
                refusal = strategy.refusal(name, island, public, secret is not None, mode,
                                           n, (guilty, guilty), knowing)
                assert (refusal is not None) == (outside or unlisted), (name, mode, world)
                try:
                    run_strategy(world, name, random.Random(0), mode)
                    ran = True
                except PreconditionError as exc:
                    assert str(exc) == refusal, (name, mode, world)
                    ran = False
                assert ran == (not (outside or unlisted)), (name, mode, world)


LITERAL_SEEDS = (0, 1, 2)


@pytest.fixture
def answers_never_draw(monkeypatch):
    """Wrap `_answer`, the one call `_ask_each`, the ask loop of every
    strategy but the "could q be innocent?" sweep, makes per ask: no answer
    may move the source it is given. Returns the list of the (value, token)
    pairs checked, one per ask. The sweep, which makes no `_answer` call,
    is checked against `spoken_answer` by the row-step tests below."""
    answer = interrogation._answer
    checked = []

    def undrawing(kw, p, question, rng):
        before = rng.getstate()
        value, token = answer(kw, p, question, rng)
        assert rng.getstate() == before, (kw, p, question)
        checked.append((value, token))
        return value, token

    monkeypatch.setattr(interrogation, "_answer", undrawing)
    return checked


def literal_outcome(kw, seed):
    """The accused of the paper-literal liars mode, or None when refused."""
    try:
        return run_strategy(kw, "solve_liars", random.Random(seed), "paper-literal").accused
    except PreconditionError:
        return None


def test_paper_literal_liars_on_every_blank_world_of_up_to_three_persons(answers_never_draw):
    """Exact on every blank-knowledge liars' island world, count hidden and
    public; refused only where no list can be drawn: a lone person, or
    everyone guilty with the count public. No answer draws from the source
    the lists are drawn from."""
    ran = 0
    for n in (1, 2, 3):
        for kw in all_worlds(n, LIAR_POOL):
            if not kw.all_knowledge_unknown():
                continue
            refusable = n == 1 or kw.count_public == n
            for seed in LITERAL_SEEDS:
                accused = literal_outcome(kw, seed)
                assert accused == (None if refusable else kw.guilty), (kw, seed)
                ran += accused is not None
    assert ran > 0 and len(answers_never_draw) >= ran


def test_paper_literal_liars_smallest_failing_world(answers_never_draw):
    """Below three persons the literal mode is exact whatever is known. At
    three, one known pair is enough to break it: P3 knows that P2 is
    innocent, so when P3's drawn list holds P2 ({P1, P2} at seed 0) the
    innocent P3 honestly answers no, says yes, and is accused. The robust
    mode stays exact. No answer draws from the lists' source."""
    for n in (1, 2):
        for kw in all_worlds(n, LIAR_POOL):
            for seed in LITERAL_SEEDS:
                assert literal_outcome(kw, seed) in (None, kw.guilty), (kw, seed)
    persons = ("P1", "P2", "P3")
    kw = KnowledgeWorld(persons, dict.fromkeys(persons, SpeakerType.ABSOLUTE_LIAR),
                        frozenset({"P1"}), {("P3", "P2"): Knowledge.KNOWS_INNOCENT})
    assert literal_outcome(kw, 0) == frozenset({"P1", "P3"})
    assert run_solve_liars(kw, random.Random(0)).accused == kw.guilty
    assert answers_never_draw


BYTE = {value: i for i, value in enumerate(AnswerValue)}


def asked_one_at_a_time(kw, rng, asks, guilty_says=AnswerValue.NO, truth_tellers=None):
    """The askers, questions, value bytes and accused of `asks`, (asker,
    question, suspect) triples, each put through `spoken_answer` with `rng`:
    a suspect accused on `guilty_says` from an asker of `truth_tellers` (by
    default, the truth-tellers' island) and on its flip from any other."""
    if truth_tellers is None:
        truth_tellers = kw.truth_tellers()
    askers, questions, values, accused = [], [], bytearray(), set()
    for p, question, suspect in asks:
        answer = spoken_answer(kw, p, question, rng)
        askers.append(p)
        questions.append(question)
        values.append(BYTE[answer.value])
        if answer.value is (guilty_says if p in truth_tellers else FLIP[guilty_says]):
            accused.add(suspect)
    return askers, questions, values, accused


def sweep_asks(kw):
    """"Could q be innocent?" of every person about every other, in roster order."""
    return [(p, PossibleInnocent(q), q) for p in kw.persons for q in kw.persons if q != p]


def compact(result):
    transcript = result.transcript
    assert not transcript._tokens
    return transcript._askers, transcript._questions, transcript._values, result.accused


def check_row_step(kw, rng, replay):
    """`ask_all_about_others` and `solve_truthtellers`, given the adversary's
    source `rng`, give the askers, questions, value bytes and accused of
    their questions asked one at a time of `replay`, and neither run nor
    replay draws from its source: every draw a `CountingRandom` serves is
    counted, so a count still 0 is a state unchanged."""
    sweep, solved = run_ask_all_about_others(kw, rng), run_solve_truthtellers(kw, rng)
    one_by_one = asked_one_at_a_time(kw, replay, sweep_asks(kw))
    assert compact(sweep) == one_by_one, kw
    rest = asked_one_at_a_time(
        kw, replay, [(p, _AmongTheOthers(), p) for p in kw.persons if p not in one_by_one[3]])
    assert compact(solved) == (one_by_one[0] + rest[0], one_by_one[1] + rest[1],
                               one_by_one[2] + rest[2], one_by_one[3] | rest[3]), kw
    assert rng.draws == replay.draws == 0, kw


def test_the_row_step_on_every_world_of_up_to_three_persons():
    rng, replay = CountingRandom(1), CountingRandom(1)
    ran = 0
    for n, pool in itertools.product((1, 2, 3), POOLS.values()):
        for kw in all_worlds(n, pool):
            check_row_step(kw, rng, replay)
            ran += 1
    assert ran == 2 * sum(len(pool) ** n * (2 ** n - 1) * 2 ** (n * (n - 1))
                          for n in (1, 2, 3) for pool in POOLS.values())


def test_the_row_step_on_seeded_worlds_of_four_to_forty_persons():
    """Every crowd size from 4 to 40, at densities 0, 0.3 and 1, each island
    and count mode coming round in turn."""
    for n, density in itertools.product(range(4, 41), (0.0, 0.3, 1.0)):
        kw = generate_knowledge_world(n, list(POOLS)[n % 3], (1, n), density,
                                      count_public=bool(n % 2), seed=n)
        check_row_step(kw, CountingRandom(n), CountingRandom(n))


def column_phases(kw, classified):
    """Each runner phase that asks everyone the same question about
    themselves, as (runner, after the control question, question,
    guilty_says, truth_tellers), truth_tellers None for the true islands:
    the control question, read at face value; `solve_mixed`'s second phase,
    read by `classified`, the accused of the first; and the single-phase
    runners, `neil` only on a one-island crowd, where no liar answers "I
    don't know". `solve_truthtellers`' second phase is the row step's."""
    yes, no = AnswerValue.YES, AnswerValue.NO
    phases = [
        (run_classify_islands, False, KnownFact(True), yes, kw._person_set),
        (run_solve_mixed, True, _AmongTheOthers(), no, classified),
        (run_solve_liars, False, _AmongTheOthers(), no, None),
        (run_count_known, False, PossibleSizeExcludingSelf(kw.count_public), no, None),
        (run_count_unknown, False, PossibleExact(kw._person_set), yes, None),
    ]
    islands = {t.island for t in kw.type_of.values()}
    if islands == {Island.TRUTH_TELLERS}:
        phases.append((run_neil, False, DidDetectiveDoIt(), no, None))
    elif islands == {Island.LIARS}:
        phases.append((run_neil, False, DetectivePossiblyGuilty(), no, None))
    return phases


def check_column_step(kw, rng, replay, fresh=None):
    """Each column phase, given the adversary's source `rng`, gives the
    askers, questions, value bytes and accused of its questions asked one at
    a time of `replay`, after the control question's when it follows it,
    and neither side draws from its source. With `fresh`, a function of no
    arguments that makes the world again with its rows undrawn, each side
    runs on its own fresh world, and the phase must leave its rows drawn
    exactly when the asks one at a time do."""
    # The control question reads no row, so one world answers it for all.
    classified = asked_one_at_a_time(kw, replay, [(p, KnownFact(True), p) for p in kw.persons],
                                     AnswerValue.YES, kw._person_set)
    for run, second, question, guilty_says, truth_tellers in column_phases(kw, classified[3]):
        ran, asked = (fresh(), fresh()) if fresh else (kw, kw)
        before = classified if second else ([], [], bytearray(), set())
        one_by_one = asked_one_at_a_time(asked, replay, [(p, question, p) for p in kw.persons],
                                         guilty_says, truth_tellers)
        assert compact(run(ran, rng)) == (before[0] + one_by_one[0], before[1] + one_by_one[1],
                                          before[2] + one_by_one[2], one_by_one[3]), (run, kw)
        if fresh:
            assert undrawn(ran) is undrawn(asked), (run, kw)
    assert rng.draws == replay.draws == 0, kw


def test_the_column_step_on_every_world_of_up_to_three_persons():
    rng, replay = CountingRandom(1), CountingRandom(1)
    ran = 0
    for n, pool in itertools.product((1, 2, 3), POOLS.values()):
        for kw in all_worlds(n, pool):
            check_column_step(kw, rng, replay)
            ran += 1
    assert ran == 2 * sum(len(pool) ** n * (2 ** n - 1) * 2 ** (n * (n - 1))
                          for n in (1, 2, 3) for pool in POOLS.values())


def test_the_column_step_on_seeded_worlds_of_four_to_forty_persons():
    """Every crowd size from 4 to 40, at densities 0, 0.3 and 1, each island
    and count mode coming round in turn, each side on a world of its own
    whose rows are drawn on first read."""
    for n, density in itertools.product(range(4, 41), (0.0, 0.3, 1.0)):
        args = (n, list(POOLS)[n % 3], (1, n), density)

        def fresh():
            return generate_knowledge_world(*args, count_public=bool(n % 2), seed=n)

        check_column_step(fresh(), CountingRandom(n), CountingRandom(n), fresh)


def test_a_liar_who_must_draw_is_asked_one_at_a_time():
    """On a mixed crowd, a liar's honest answer to "did the detective do
    it?" may be "I don't know", so the phase draws, as the asks one at a
    time do, and both leave the source in the same state: on every world
    of up to two persons and on seeded mixed crowds of 3 to 30."""
    seeded = (generate_knowledge_world(n, "mixed", (1, n), density, count_public=public, seed=n)
              for n, density, public in itertools.product(range(3, 31), (0.0, 0.3), (False, True)))
    drew = 0
    for kw in itertools.chain(all_worlds(1, ALL_TYPES), all_worlds(2, ALL_TYPES), seeded):
        for seed in range(3):
            rng, replay = CountingRandom(seed), CountingRandom(seed)
            asks = [(p, DidDetectiveDoIt(), p) for p in kw.persons]
            result = interrogation._ask_about_themselves(
                kw, rng, kw.persons, DidDetectiveDoIt(), AnswerValue.NO)
            assert compact(result) == asked_one_at_a_time(kw, replay, asks), kw
            assert rng.getstate() == replay.getstate() and rng.draws == replay.draws, kw
            drew += rng.draws > 0
    assert drew > 0


def subsets(persons):
    """Every subset of `persons`, the empty one included."""
    return [frozenset(combo) for r in range(len(persons) + 1)
            for combo in itertools.combinations(persons, r)]


def knowledge_allows(kw, p, s):
    """Does the set of persons s hold p exactly when p is guilty, no one p
    knows innocent and everyone p knows guilty?"""
    return (p in s) is (p in kw.guilty) and all(
        kw.knows(p, q) is not (Knowledge.KNOWS_INNOCENT if q in s else Knowledge.KNOWS_GUILTY)
        for q in kw.persons)


def compatible_sets(kw, p):
    """The criminal sets p's knowledge allows: non-empty, allowed by p's
    knowledge, and of the public size when there is one."""
    return [s for s in subsets(kw.persons)
            if s and knowledge_allows(kw, p, s) and kw.count_public in (None, len(s))]


def test_group_questions_on_every_world_of_up_to_three_persons():
    worlds = itertools.chain(all_worlds(1, ALL_TYPES), all_worlds(2, ALL_TYPES),
                             all_worlds(3, ALL_TYPES[:1]))
    answers = 0
    for kw in worlds:
        groups = subsets(kw.persons)
        for p in kw.persons:
            sets = compatible_sets(kw, p)
            for group in groups:
                within = truthful_answer(kw, p, PossibleSubset(group)).value
                exact = truthful_answer(kw, p, PossibleExact(group)).value
                assert (within is AnswerValue.YES) == any(s <= group for s in sets), \
                    (kw, p, group)
                assert (exact is AnswerValue.YES) == (group in sets), (kw, p, group)
                answers += 2
    assert answers == 49184


def detective_possible(kw, p):
    """Could the detective, an outsider, be among the criminals as far as p
    can tell? Never for someone who knows everyone's guilt status; else when
    some set of persons that p's knowledge allows, the empty one included,
    has the public size with the detective added."""
    if all(kw.knows(p, q) is not Knowledge.UNKNOWN for q in kw.persons if q != p):
        return False
    return any(knowledge_allows(kw, p, s) and kw.count_public in (None, len(s) + 1)
               for s in subsets(kw.persons))


def oracle_questions(kw, p):
    """(question, honest answer) for every question class p can be asked,
    the honest answer read from `compatible_sets` and `detective_possible`."""
    sets = compatible_sets(kw, p)
    n = len(kw.persons)
    detective = detective_possible(kw, p)
    asked = [(KnownFact(True), True), (KnownFact(False), False),
             (DirectGuilt(), p in kw.guilty),
             (PossibleExact(kw._person_set), kw._person_set in sets),
             (DetectivePossiblyGuilty(), detective)]
    asked += [(PossibleInnocent(q), any(q not in s for s in sets)) for q in kw.persons]
    asked += [(PossibleSubset(_AllBut(kw._person_set, q)), any(q not in s for s in sets))
              for q in kw.persons]
    asked += [(PossibleSizeExcludingSelf(m), any(len(s) == m and p not in s for s in sets))
              for m in range(n + 2)]
    honest = [(question, AnswerValue.YES if yes else AnswerValue.NO) for question, yes in asked]
    honest.append((DidDetectiveDoIt(), AnswerValue.UNKNOWN if detective else AnswerValue.NO))
    honest.append((SecretAttribute(),
                   AnswerValue.TOKEN if p in kw.guilty else AnswerValue.UNKNOWN))
    return honest


FLIP = {AnswerValue.YES: AnswerValue.NO, AnswerValue.NO: AnswerValue.YES}


def settled_without_rows(kw, p, question):
    """Does the question's honest answer follow from the truth or from p's
    own guilt? The guilty set is compatible with everyone's knowledge, so
    the answer is yes when it fits the question; p knows their own guilt, so
    it is no when every set that fits disagrees with it. The questions of
    the type alone need no knowledge at all."""
    guilty, mine = kw.guilty, p in kw.guilty
    match question:
        case KnownFact() | DirectGuilt() | SecretAttribute():
            return True
        case PossibleInnocent(q):
            return q not in guilty or q == p
        case PossibleSubset(group):
            return guilty <= group or (mine and p not in group)
        case PossibleExact(group):
            return group == guilty or (p in group) is not mine
        case PossibleSizeExcludingSelf(m):
            return mine or m == len(guilty)
    return False


def deferred_copy(kw):
    """`kw` with its rows given as a deferred draw, so a read shows."""
    rows = kw.knowledge.rows
    knowledge = KnowledgeRows(kw.persons, kw.guilty, lambda: rows)
    return KnowledgeWorld(kw.persons, kw.type_of, kw.guilty, knowledge, kw.count_public, kw.secret)


def undrawn(kw):
    return "rows" not in vars(kw.knowledge) and "_askers" not in vars(kw)


def test_every_question_class_on_every_world_of_up_to_three_persons():
    """Honest answers against the oracle, and spoken answers against the type
    rule: a partial type's honest answer to the guilt question is no, a liar
    flips yes and no, names a wrong token for the secret, and turns an honest
    "I don't know" into one adversary draw; a truth-teller draws nothing.
    Each honest answer is asked again of a copy of the world whose rows are
    drawn on first read: it is the same, and one that the truth or the
    asker's own guilt settles leaves the copy undrawn."""
    worlds = itertools.chain(all_worlds(1, ALL_TYPES), all_worlds(2, ALL_TYPES),
                             all_worlds(3, ALL_TYPES[:1]))
    answers = settled = 0
    for kw in worlds:
        deferred = deferred_copy(kw)
        for p in kw.persons:
            speaker = kw.type_of[p]
            for question, honest in oracle_questions(kw, p):
                truthful = truthful_answer(kw, p, question)
                assert truthful.value is honest, (kw, p, question)
                assert truthful.token == (kw.secret if honest is AnswerValue.TOKEN else None)
                assert truthful_answer(deferred, p, question) == truthful, (kw, p, question)
                if settled_without_rows(kw, p, question):
                    assert undrawn(deferred), (kw, p, question)
                    settled += 1
                elif not undrawn(deferred):
                    deferred = deferred_copy(kw)
                if speaker.partial and isinstance(question, DirectGuilt):
                    honest = AnswerValue.NO
                rng, reference = random.Random(answers), random.Random(answers)
                spoken = spoken_answer(kw, p, question, rng)
                assert (spoken.person, spoken.question) == (p, question)
                if speaker.island is Island.TRUTH_TELLERS:
                    expected, token = honest, truthful.token
                elif isinstance(question, SecretAttribute):
                    expected, token = AnswerValue.TOKEN, f"bogus-{reference.getrandbits(32):08x}"
                elif honest is AnswerValue.UNKNOWN:
                    expected, token = reference.choice((AnswerValue.YES, AnswerValue.NO)), None
                else:
                    expected, token = FLIP[honest], None
                assert (spoken.value, spoken.token) == (expected, token), (kw, p, question)
                assert rng.getstate() == reference.getstate(), (kw, p, question)
                answers += 1
    assert (answers, settled) == (60000, 39120)


@st.composite
def worlds_and_groups(draw):
    """A world of 4 to 8 persons, with any types, guilty set and knowledge,
    the count hidden or public, and a few groups to ask about."""
    n = draw(st.integers(4, 8))
    persons = tuple(f"P{i}" for i in range(1, n + 1))
    type_of = dict(zip(persons, draw(st.lists(st.sampled_from(ALL_TYPES),
                                              min_size=n, max_size=n))))
    guilty = frozenset(draw(st.sets(st.sampled_from(persons), min_size=1)))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rows = tuple(bytes(bits[i * n + j] and i != j for j in range(n)) for i in range(n))
    count_public = len(guilty) if draw(st.booleans()) else None
    kw = KnowledgeWorld(persons, type_of, guilty, KnowledgeRows(persons, guilty, rows),
                        count_public, secret="secret")
    groups = draw(st.lists(st.frozensets(st.sampled_from(persons)), max_size=6))
    return kw, groups + [kw.guilty, kw._person_set - kw.guilty]


@settings(max_examples=150, deadline=None)
@given(worlds_and_groups())
def test_possibility_answers_past_three_persons_match_the_oracle(world_and_groups):
    """Every question class, listed groups included, against plain subset
    enumeration on worlds too large for the exhaustive tests."""
    kw, groups = world_and_groups
    for p in kw.persons:
        sets = compatible_sets(kw, p)
        asked = oracle_questions(kw, p)
        for group in groups:
            for question, yes in ((PossibleSubset(group), any(s <= group for s in sets)),
                                  (PossibleExact(group), group in sets)):
                asked.append((question, AnswerValue.YES if yes else AnswerValue.NO))
        for question, honest in asked:
            assert truthful_answer(kw, p, question).value is honest, (p, question)
