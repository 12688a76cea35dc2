"""Knowledge worlds, answer semantics, and the questioning strategies."""

import copy
import itertools
import pickle
import random
import sys
import threading
import tracemalloc

import pytest

from islander import interrogation
from islander.interrogation import (
    ISLAND_MODES,
    MAX_CROWD,
    STRATEGIES,
    Answer,
    AnswerValue,
    DetectivePossiblyGuilty,
    DidDetectiveDoIt,
    DirectGuilt,
    Knowledge,
    KnowledgeRows,
    KnowledgeWorld,
    KnowledgeWorldError,
    KnownFact,
    PossibleExact,
    PossibleInnocent,
    PossibleSizeExcludingSelf,
    PossibleSubset,
    PreconditionError,
    SecretAttribute,
    StrategyResult,
    describe_question,
    generate_knowledge_world,
    run_ask_all_about_others,
    run_classify_islands,
    run_count_known,
    run_count_unknown,
    run_neil,
    run_secret_attribute,
    run_solve_liars,
    run_solve_mixed,
    run_solve_truthtellers,
    run_strategy,
    spoken_answer,
    truthful_answer,
)
from islander.interrogation import _AllBut
from islander.model import Guilty, Island, Not, SpeakerType, World
from islander.semantics import admissible_for_type

from conftest import SUCCESSFUL_RUNS, count_constructions

AT = SpeakerType.ABSOLUTE_TRUTH_TELLER
PT = SpeakerType.PARTIAL_TRUTH_TELLER
AL = SpeakerType.ABSOLUTE_LIAR
RL = SpeakerType.RESPONSIBLE_LIAR

YES, NO, UNKNOWN, TOKEN = (
    AnswerValue.YES, AnswerValue.NO, AnswerValue.UNKNOWN, AnswerValue.TOKEN
)


def make_kw(types, guilty, knowledge=None, count_public=None, secret=None):
    persons = tuple(types)
    return KnowledgeWorld(
        persons=persons,
        type_of=dict(types),
        guilty=frozenset(guilty),
        knowledge=knowledge or {},
        count_public=count_public,
        secret=secret,
    )


def all_truth_tellers(n, guilty, **kw):
    names = tuple(f"P{i}" for i in range(1, n + 1))
    return make_kw({p: AT for p in names}, guilty, **kw)


def all_liars(n, guilty, **kw):
    names = tuple(f"P{i}" for i in range(1, n + 1))
    return make_kw({p: AL for p in names}, guilty, **kw)


_EXPLICIT_UNKNOWN_KNOWLEDGE = {
    ("A", "B"): Knowledge.UNKNOWN,
    ("A", "C"): Knowledge.KNOWS_GUILTY,
    ("B", "A"): Knowledge.KNOWS_INNOCENT,
    ("B", "C"): Knowledge.UNKNOWN,
    ("C", "A"): Knowledge.KNOWS_INNOCENT,
    ("C", "B"): Knowledge.KNOWS_INNOCENT,
    ("C", "D"): Knowledge.KNOWS_INNOCENT,
    ("D", "A"): Knowledge.UNKNOWN,
    ("D", "B"): Knowledge.UNKNOWN,
    ("D", "C"): Knowledge.UNKNOWN,
}


def explicit_unknown_world(count_public=None):
    """A hand-built world whose dict spells out UNKNOWN entries: C, the one
    criminal, knows everyone innocent; A knows C guilty; D knows nothing."""
    return make_kw({"A": AT, "B": PT, "C": AL, "D": RL}, {"C"},
                   knowledge=_EXPLICIT_UNKNOWN_KNOWLEDGE, count_public=count_public)


class TestTruthfulAnswers:
    def test_guilty_person_denies_others_only_hypothesis(self):
        kw = all_truth_tellers(4, {"P2"}, count_public=1)
        others = frozenset({"P1", "P3", "P4"})
        assert truthful_answer(kw, "P2", PossibleSubset(others)).value is NO
        assert truthful_answer(kw, "P1", PossibleSubset(others)).value is YES

    def test_innocent_person_rules_out_everyone_guilty(self):
        kw = all_truth_tellers(5, {"P1", "P2", "P3"})
        everyone = frozenset(kw.persons)
        assert truthful_answer(kw, "P4", PossibleExact(everyone)).value is NO
        assert truthful_answer(kw, "P1", PossibleExact(everyone)).value is YES

    def test_innocent_ignorant_cannot_answer_detective_question(self):
        kw = all_truth_tellers(4, {"P3"}, count_public=1)
        assert truthful_answer(kw, "P1", DidDetectiveDoIt()).value is UNKNOWN
        assert truthful_answer(kw, "P3", DidDetectiveDoIt()).value is NO

    def test_only_the_guilty_know_the_secret(self):
        kw = all_truth_tellers(5, {"P2"}, secret="secret-blue")
        answer = truthful_answer(kw, "P2", SecretAttribute())
        assert answer.value is TOKEN and answer.token == "secret-blue"
        assert truthful_answer(kw, "P1", SecretAttribute()).value is UNKNOWN

    def test_secret_question_without_secret_is_a_configuration_error(self):
        kw = all_truth_tellers(3, {"P1"})
        with pytest.raises(PreconditionError, match="secret"):
            truthful_answer(kw, "P1", SecretAttribute())

    def test_direct_guilt_and_known_fact(self):
        kw = all_truth_tellers(2, {"P1"})
        assert truthful_answer(kw, "P1", DirectGuilt()).value is YES
        assert truthful_answer(kw, "P2", DirectGuilt()).value is NO
        assert truthful_answer(kw, "P1", KnownFact(True)).value is YES
        assert truthful_answer(kw, "P1", KnownFact(False)).value is NO

    def test_possibility_questions_never_unknown(self):
        rng = random.Random(5)
        for seed in range(40):
            kw = generate_knowledge_world(
                n=5, island="mixed", criminals=(1, 4),
                density=rng.random(), count_public=seed % 2 == 0, seed=seed,
            )
            for p in kw.persons:
                for q in (
                    PossibleSubset(frozenset(rng.sample(kw.persons, 2))),
                    PossibleExact(frozenset(rng.sample(kw.persons, 2))),
                    PossibleSizeExcludingSelf(rng.randrange(6)),
                    PossibleInnocent(rng.choice(kw.persons)),
                ):
                    assert truthful_answer(kw, p, q).value in (YES, NO)

    def test_full_roster_knowledge_settles_the_detective_question(self):
        knowledge = {("P1", "P2"): Knowledge.KNOWS_GUILTY,
                     ("P1", "P3"): Knowledge.KNOWS_INNOCENT}
        kw = all_truth_tellers(3, {"P2"}, knowledge=knowledge)
        assert truthful_answer(kw, "P1", DidDetectiveDoIt()).value is NO
        assert truthful_answer(kw, "P3", DidDetectiveDoIt()).value is UNKNOWN

    @pytest.mark.parametrize("group", [["P1", "P2"], ("P1", "P2"), "P1"],
                             ids=["list", "tuple", "str"])
    @pytest.mark.parametrize("form", [PossibleSubset, PossibleExact])
    def test_a_group_that_is_not_a_set_is_refused(self, form, group):
        kw = all_truth_tellers(3, {"P2"})
        for answer in (truthful_answer, spoken_answer):
            with pytest.raises(PreconditionError,
                               match=f"question group must be a set, not {type(group).__name__}"):
                answer(kw, "P1", form(group))

    @pytest.mark.parametrize("form, group", [
        (PossibleSubset, frozenset({"P1", "X"})),
        (PossibleExact, frozenset({"P1", "X"})),
        (PossibleSubset, _AllBut(frozenset({"P1", "P2", "P3", "X"}), "P3")),
    ], ids=["subset", "exact", "view"])
    def test_a_group_that_names_a_stranger_is_refused(self, form, group):
        kw = all_truth_tellers(3, {"P2"})
        for answer in (truthful_answer, spoken_answer):
            with pytest.raises(PreconditionError,
                               match=r"question group references unknown persons \['X'\]"):
                answer(kw, "P1", form(group))

    def test_knowledge_restricts_compatible_sets(self):
        knowledge = {("P1", "P2"): Knowledge.KNOWS_GUILTY}
        kw = all_truth_tellers(3, {"P2", "P3"}, knowledge=knowledge)
        # P1 knows P2 is guilty, so a P2-free hypothesis is impossible.
        assert truthful_answer(kw, "P1", PossibleInnocent("P2")).value is NO
        assert truthful_answer(kw, "P1", PossibleInnocent("P3")).value is YES


class TestPossibilityOracle:
    """The closed-form possibility checks against plain subset enumeration."""

    @staticmethod
    def compatible_sets(kw, p):
        sets = []
        for r in range(len(kw.persons) + 1):
            for combo in itertools.combinations(kw.persons, r):
                s = frozenset(combo)
                if (p in s) != (p in kw.guilty):
                    continue
                if any(kw.knows(p, q) is Knowledge.KNOWS_GUILTY and q not in s
                       for q in kw.persons if q != p):
                    continue
                if any(kw.knows(p, q) is Knowledge.KNOWS_INNOCENT and q in s
                       for q in kw.persons if q != p):
                    continue
                if not s:
                    continue
                if kw.count_public is not None and len(s) != kw.count_public:
                    continue
                sets.append(s)
        return sets

    def test_against_enumeration(self):
        rng = random.Random(777)
        for seed in range(120):
            n = rng.randint(1, 6)
            kw = generate_knowledge_world(
                n=n, island="mixed", criminals=(1, n),
                density=rng.choice((0.0, 0.3, 0.8)),
                count_public=rng.random() < 0.5,
                seed=seed,
            )
            for p in kw.persons:
                sets = self.compatible_sets(kw, p)
                # A random group is seldom compatible: check the yes side too.
                for s in sets:
                    assert truthful_answer(kw, p, PossibleExact(s)).value is YES
                group = frozenset(rng.sample(kw.persons, rng.randint(0, n)))
                expected = any(s <= group for s in sets)
                assert (truthful_answer(kw, p, PossibleSubset(group)).value is YES) == expected
                expected = group in sets
                assert (truthful_answer(kw, p, PossibleExact(group)).value is YES) == expected
                m = rng.randrange(n + 2)
                expected = any(len(s) == m and p not in s for s in sets)
                assert (truthful_answer(kw, p, PossibleSizeExcludingSelf(m)).value is YES) \
                    == expected
                target = rng.choice(kw.persons)
                expected = any(target not in s for s in sets)
                assert (truthful_answer(kw, p, PossibleInnocent(target)).value is YES) == expected

    def test_detective_question_against_enumeration(self):
        rng = random.Random(778)
        for seed in range(120):
            n = rng.randint(1, 6)
            kw = generate_knowledge_world(
                n=n, island="tt", criminals=(1, n),
                density=rng.choice((0.0, 0.4, 1.0)),
                count_public=rng.random() < 0.5,
                seed=seed,
            )
            for p in kw.persons:
                if all(kw.knows(p, q) is not Knowledge.UNKNOWN for q in kw.persons if q != p):
                    expected = False
                else:
                    expected = False
                    for r in range(len(kw.persons) + 1):
                        for combo in itertools.combinations(kw.persons, r):
                            s = frozenset(combo)
                            if (p in s) != (p in kw.guilty):
                                continue
                            if any(kw.knows(p, q) is Knowledge.KNOWS_GUILTY and q not in s
                                   for q in kw.persons if q != p):
                                continue
                            if any(kw.knows(p, q) is Knowledge.KNOWS_INNOCENT and q in s
                                   for q in kw.persons if q != p):
                                continue
                            # The detective joins the set, so it may be empty
                            # and contributes one to the public count.
                            if kw.count_public is not None and len(s) + 1 != kw.count_public:
                                continue
                            expected = True
                assert (truthful_answer(kw, p, DetectivePossiblyGuilty()).value is YES) \
                    == expected, (seed, p)
                honest = truthful_answer(kw, p, DidDetectiveDoIt()).value
                assert honest is (UNKNOWN if expected else NO)


class TestKnowledgeIndex:
    """The per-asker counts against a plain rescan of the crowd."""

    @staticmethod
    def rescan(kw, p):
        must = {q for q in kw.persons if q != p and kw.knows(p, q) is Knowledge.KNOWS_GUILTY}
        banned = {q for q in kw.persons if q != p and kw.knows(p, q) is Knowledge.KNOWS_INNOCENT}
        (must if p in kw.guilty else banned).add(p)
        return frozenset(must), frozenset(banned)

    def assert_matches_rescan(self, kw):
        for p in kw.persons:
            must, banned = self.rescan(kw, p)
            assert kw._askers[p] == (len(must), len(banned),
                                     kw.knowledge.rows[kw.persons.index(p)]), p

    def test_known_criminals_match_a_rescan(self):
        for seed in range(30):
            kw = generate_knowledge_world(8, "mixed", (1, 4), 0.2, seed=seed)
            rescan = {q for p in kw.persons for q in kw.persons
                      if kw.knows(p, q) is Knowledge.KNOWS_GUILTY}
            assert kw.known_criminals() == rescan

    def test_generated_worlds(self):
        rng = random.Random(31)
        for seed in range(80):
            n = rng.randint(1, 12)
            kw = generate_knowledge_world(
                n=n, island="mixed", criminals=(1, n),
                density=rng.choice((0.0, 0.3, 0.8, 1.0)), seed=seed,
            )
            self.assert_matches_rescan(kw)
            assert set(kw._askers) == set(kw.persons)

    def test_hand_built_worlds_with_explicit_unknown_entries(self):
        kw = explicit_unknown_world()
        self.assert_matches_rescan(kw)
        assert kw._askers["A"][:2] == (1, 1)
        assert kw._askers["D"][:2] == (0, 1)
        assert not kw.all_knowledge_unknown()
        blank = make_kw({"A": AT, "B": AL}, {"B"},
                        knowledge={("A", "B"): Knowledge.UNKNOWN,
                                   ("B", "A"): Knowledge.UNKNOWN})
        self.assert_matches_rescan(blank)
        assert blank.all_knowledge_unknown()

    def test_fast_path_worlds(self):
        for kw in fast_path_worlds():
            self.assert_matches_rescan(kw)

    def test_no_answer_rescans_the_crowd(self, monkeypatch):
        def no_rescan(self, p, q):
            raise AssertionError("an answer looked up a knowledge pair")

        monkeypatch.setattr(KnowledgeWorld, "knows", no_rescan)

        def world(island, density, public=False, criminals=(1, 3), secret=False):
            return generate_knowledge_world(
                n=9, island=island, criminals=criminals, density=density,
                count_public=public, secret=secret, seed=seed,
            )

        for seed in range(12):
            tt = world("tt", 0.4, secret=True)
            liars = world("liars", 0.4)
            mixed = world("mixed", 0.4, public=seed % 2 == 0)
            blank_public = world("mixed", 0.0, public=True)
            blank_secret = world("mixed", 0.0)
            lone_tt = world("tt", 0.0, public=True, criminals=1)
            lone_liars = world("liars", 0.0, public=True, criminals=1)
            blank_liars = world("liars", 0.0, public=True)
            assert run_solve_truthtellers(tt).accused == tt.guilty
            assert run_secret_attribute(tt).accused == tt.guilty
            assert run_solve_liars(liars).accused == liars.guilty
            assert run_solve_liars(blank_liars, mode="paper-literal").accused \
                == blank_liars.guilty
            assert run_solve_mixed(mixed).accused == mixed.guilty
            assert run_ask_all_about_others(mixed).accused <= mixed.guilty
            run_classify_islands(mixed)
            assert run_count_known(blank_public).accused == blank_public.guilty
            assert run_count_unknown(blank_secret).accused == blank_secret.guilty
            assert run_neil(lone_tt).accused == lone_tt.guilty
            assert run_neil(lone_liars).accused == lone_liars.guilty
            for p in mixed.persons:
                for question in (
                    PossibleSubset(frozenset(mixed.persons[:4])),
                    PossibleExact(frozenset(mixed.persons[2:5])),
                    PossibleSizeExcludingSelf(2),
                    PossibleInnocent(mixed.persons[-1]),
                    DidDetectiveDoIt(),
                    DetectivePossiblyGuilty(),
                ):
                    truthful_answer(mixed, p, question)

    def test_control_questions_stay_small_at_a_thousand(self):
        kw = generate_knowledge_world(
            n=1000, island="mixed", criminals=(1, 3), density=0.3, seed=5,
        )
        tracemalloc.start()
        try:
            result = run_classify_islands(kw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tt, transcript = result.accused, result.transcript
        liars = frozenset(kw.persons) - tt
        assert len(transcript) == 1000 and len(tt) + len(liars) == 1000
        assert peak < 2 * 2 ** 20


def fast_path_worlds():
    """Generated worlds at densities 0, 0.3 and 1, with the count public and
    hidden, on every island mode, and hand-built worlds whose dicts spell out
    UNKNOWN entries."""
    worlds = []
    for island, density, public, seed in itertools.product(
        ISLAND_MODES, (0.0, 0.3, 1.0), (False, True), range(3)
    ):
        n = (1, 6, 11)[seed]
        worlds.append(generate_knowledge_world(
            n, island, (1, n), density, count_public=public, seed=seed,
        ))
    worlds.append(explicit_unknown_world())
    worlds.append(explicit_unknown_world(count_public=1))
    worlds.append(make_kw({"A": AT, "B": AL}, {"B"}, count_public=1,
                          knowledge={("A", "B"): Knowledge.UNKNOWN,
                                     ("B", "A"): Knowledge.UNKNOWN}))
    return worlds


class TestEveryoneButFastPath:
    """The count-read answers against the set-read answers they replace."""

    def test_view_answers_equal_the_listed_group_answers(self):
        for kw in fast_path_worlds():
            roster = kw._person_set
            fast = [PossibleSubset(_AllBut(roster, q)) for q in kw.persons]
            fast_answers = [spoken_answer(kw, p, question, random.Random(0))
                            for question in fast for p in kw.persons]
            listed = [PossibleSubset(roster - {q}) for q in kw.persons]
            listed_answers = [spoken_answer(kw, p, question, random.Random(0))
                              for question in listed for p in kw.persons]
            # Answers carry their question, so this also holds the view equal
            # to the frozenset it stands for.
            assert fast_answers == listed_answers
            for q, question in zip(kw.persons, listed):
                for p in kw.persons:
                    assert truthful_answer(kw, p, PossibleSubset(_AllBut(roster, q))) \
                        == truthful_answer(kw, p, question), (p, q)

    def test_a_view_over_another_roster_takes_the_set_path(self):
        for kw in fast_path_worlds():
            twin = frozenset(kw.persons)
            assert twin == kw._person_set and twin is not kw._person_set
            # An equal roster, then the first half of the crowd.
            for roster in (twin, frozenset(kw.persons[:(len(kw.persons) + 1) // 2])):
                views = [(p, PossibleSubset(_AllBut(roster, q)), PossibleSubset(roster - {q}))
                         for q in roster for p in kw.persons]
                answers = [truthful_answer(kw, p, view).value for p, view, _ in views]
                assert answers == [truthful_answer(kw, p, listed).value
                                   for p, _, listed in views]
            # A view that leaves out no one on the roster is the roster.
            whole = PossibleSubset(_AllBut(kw._person_set, "nobody"))
            for p in kw.persons:
                assert truthful_answer(kw, p, whole) \
                    == truthful_answer(kw, p, PossibleSubset(kw._person_set))

    def test_the_everyone_question_equals_a_listed_roster(self):
        for kw in fast_path_worlds():
            everyone = [truthful_answer(kw, p, PossibleExact(kw._person_set)).value
                        for p in kw.persons]
            listed = PossibleExact(frozenset(kw.persons))
            assert everyone == [truthful_answer(kw, p, listed).value for p in kw.persons]

    def test_the_view_is_the_frozenset_it_stands_for(self):
        roster = frozenset(f"P{i}" for i in range(1, 13))
        for q in sorted(roster) + ["nobody"]:
            view, listed = _AllBut(roster, q), roster - {q}
            assert view == listed and listed == view and not view != listed
            assert hash(view) == hash(listed)
            assert len(view) == len(listed)
            assert sorted(view) == sorted(listed) and len(list(view)) == len(listed)
            for person in sorted(roster) + ["nobody", 7]:
                assert (person in view) is (person in listed)
            assert describe_question(PossibleSubset(view)) \
                == describe_question(PossibleSubset(listed))
            assert PossibleSubset(view) == PossibleSubset(listed)
            assert hash(PossibleSubset(view)) == hash(PossibleSubset(listed))
            for combined in (view & roster, roster & view, view | {"X"}, view - {"P1"}):
                assert type(combined) is frozenset
            assert view & roster == listed and view | {"X"} == listed | {"X"}

    @pytest.mark.parametrize("name, island, density, public, criminals", [
        ("solve_liars", "liars", 0.3, False, (1, 3)),
        ("solve_mixed", "mixed", 0.3, False, (1, 3)),
        ("count_known", "mixed", 0.0, True, (1, 3)),
        ("neil", "tt", 0.0, True, 1),
        ("neil", "liars", 0.0, True, 1),
        ("count_unknown", "mixed", 0.0, False, (1, 3)),
        ("ask_all_about_others", "mixed", 0.3, False, (1, 3)),
        ("solve_truthtellers", "tt", 0.3, False, (1, 3)),
    ])
    def test_strategy_questions_take_the_count_paths(
        self, name, island, density, public, criminals, monkeypatch
    ):
        def listed_group(*args):
            raise AssertionError("a strategy question was read as a listed group")

        monkeypatch.setattr(interrogation, "_compatible_within", listed_group)
        kw = generate_knowledge_world(300, island, criminals, density,
                                      count_public=public, seed=3)
        result = run_strategy(kw, name)
        assert STRATEGIES[name].succeeds(kw, result)
        # "Could everyone have done it?" holds the world's own roster; no
        # question holds a set built for it.
        own_roster = kw._person_set if name == "count_unknown" else None
        for answer in result.transcript:
            for field in answer.question.__match_args__:
                value = getattr(answer.question, field)
                assert not isinstance(value, frozenset) or value is own_roster, answer.question

    def test_robust_questions_stay_small_at_a_thousand(self):
        kw = generate_knowledge_world(
            n=1000, island="mixed", criminals=(1, 3), density=0.3, seed=5,
        )
        tracemalloc.start()
        try:
            result = run_solve_mixed(kw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.accused == kw.guilty and len(result.transcript) == 2000
        # About 0.7 MiB with the view; a listed 999-person group per question
        # took about 48 MiB.
        assert peak < 2 * 2 ** 20


class TestSpokenAnswers:
    def test_responsible_liar_always_admits_guilt(self):
        for guilty in (True, False):
            kw = make_kw({"S": RL, "O": AL}, {"S"} if guilty else {"O"})
            assert spoken_answer(kw, "S", DirectGuilt()).value is YES

    def test_partial_truth_teller_denies_guilt_when_guilty(self):
        kw = make_kw({"S": PT, "O": AT}, {"S"})
        assert spoken_answer(kw, "S", DirectGuilt()).value is NO
        innocent = make_kw({"S": PT, "O": AT}, {"O"})
        assert spoken_answer(innocent, "S", DirectGuilt()).value is NO

    def test_absolute_liar_flips_the_random_list_answer(self):
        kw = all_liars(4, {"P1"})
        question = PossibleExact(frozenset({"P2", "P3"}))
        assert truthful_answer(kw, "P1", question).value is NO
        assert spoken_answer(kw, "P1", question).value is YES

    def test_known_fact_classifies(self):
        kw = make_kw({"T": AT, "L": AL}, {"T"})
        assert spoken_answer(kw, "T", KnownFact(True)).value is YES
        assert spoken_answer(kw, "L", KnownFact(True)).value is NO

    def test_liar_unknown_becomes_adversarial_yes_or_no(self):
        kw = all_liars(3, {"P1"})
        seen = set()
        for seed in range(30):
            answer = spoken_answer(kw, "P2", DidDetectiveDoIt(), random.Random(seed))
            assert answer.value in (YES, NO)
            seen.add(answer.value)
        assert seen == {YES, NO}  # genuinely both possible

    def test_liar_secret_answer_is_a_wrong_token(self):
        kw = make_kw({"S": AL, "O": AT}, {"S"}, secret="secret-red")
        answer = spoken_answer(kw, "S", SecretAttribute(), random.Random(1))
        assert answer.value is TOKEN
        assert answer.token != "secret-red"

    def test_answers_echo_person_and_question(self):
        kw = all_truth_tellers(2, {"P1"})
        question = PossibleInnocent("P2")
        answer = spoken_answer(kw, "P1", question)
        assert answer.person == "P1"
        assert answer.question == question


class TestQuestionText:
    """The transcript text of every question class, pinned: `DirectGuilt`
    and `KnownFact(False)` are asked by no registered strategy, so the
    golden transcripts never show them."""

    @pytest.mark.parametrize("question, text", [
        (KnownFact(True), "known_fact(true)"),
        (KnownFact(False), "known_fact(false)"),
        (DirectGuilt(), "direct_guilt"),
        (PossibleSubset(frozenset({"P3", "P1", "P10"})), "possible_subset(P1, P10, P3)"),
        (PossibleExact(frozenset({"B", "A"})), "possible_exact(A, B)"),
        (PossibleExact(frozenset()), "possible_exact()"),
        (PossibleSizeExcludingSelf(2), "possible_size_excluding_self(2)"),
        (PossibleInnocent("P7"), "possible_innocent(P7)"),
        (DidDetectiveDoIt(), "did_detective_do_it"),
        (DetectivePossiblyGuilty(), "detective_possibly_guilty"),
        (SecretAttribute(), "secret_attribute"),
    ])
    def test_describe_question(self, question, text):
        assert describe_question(question) == text


class TestKnowledgeWorldEquality:
    """Worlds compare by what is known, however the knowledge was given."""

    TYPES = {"A": AT, "B": AL, "C": PT}

    def test_explicit_unknown_entries_equal_an_empty_mapping(self):
        explicit = make_kw(self.TYPES, {"B"}, knowledge={("A", "B"): Knowledge.UNKNOWN})
        blank = make_kw(self.TYPES, {"B"})
        assert explicit == blank and blank == explicit

    def test_one_differing_row_byte_is_unequal(self):
        blank = make_kw(self.TYPES, {"B"})
        informed = make_kw(self.TYPES, {"B"}, knowledge={("C", "A"): Knowledge.KNOWS_INNOCENT})
        assert sum(x != y for r, s in zip(blank.knowledge.rows, informed.knowledge.rows)
                   for x, y in zip(r, s)) == 1
        assert blank != informed and informed != blank

    def test_dict_built_and_generated_worlds_hold_knowledge_rows(self):
        entries = {("A", "B"): Knowledge.KNOWS_GUILTY, ("C", "A"): Knowledge.UNKNOWN,
                   ("C", "B"): Knowledge.KNOWS_GUILTY}
        built = make_kw(self.TYPES, {"B"}, knowledge=entries)
        generated = generate_knowledge_world(n=30, island="mixed", criminals=(1, 3),
                                             density=0.3, seed=4)
        for kw in (built, make_kw(self.TYPES, {"B"}), generated):
            assert type(kw.knowledge) is KnowledgeRows
            assert (kw.knowledge.persons, kw.knowledge.guilty) == (kw.persons, kw.guilty)
            assert not hasattr(kw, "rows")
        assert built.knowledge.rows == (b"\x00\x01\x00", b"\x00\x00\x00", b"\x00\x01\x00")
        assert dict(built.knowledge) == {("A", "B"): Knowledge.KNOWS_GUILTY,
                                         ("C", "B"): Knowledge.KNOWS_GUILTY}
        assert built.knowledge == KnowledgeRows.from_entries(built.persons, built.guilty, entries)
        assert built.knowledge != make_kw(self.TYPES, {"B"}).knowledge


class TestPaperRuleAcrossLayers:
    """The simulator's answers agree with the solver's admissibility rule."""

    @pytest.mark.parametrize("guilty", [False, True])
    @pytest.mark.parametrize("t", [AT, PT, AL, RL])
    def test_direct_guilt_answer_is_the_admissible_claim(self, t, guilty):
        kw = make_kw({"S": t, "O": AT}, {"S"} if guilty else {"O"})
        world = World(kw.type_of, kw.guilty)
        answer = spoken_answer(kw, "S", DirectGuilt()).value
        assert (answer is YES) is admissible_for_type(world, "S", Guilty("S"), t)
        assert (answer is NO) is admissible_for_type(world, "S", Not(Guilty("S")), t)

    @pytest.mark.parametrize("guilty", [False, True])
    @pytest.mark.parametrize("t", [AT, PT, AL, RL])
    def test_control_answer_is_flipped_exactly_for_liars(self, t, guilty):
        kw = make_kw({"S": t, "O": AT}, {"S"} if guilty else {"O"})
        for truth in (False, True):
            spoken = spoken_answer(kw, "S", KnownFact(truth)).value
            assert (spoken is (YES if truth else NO)) is (t not in (AL, RL))


class TestClassifyIslands:
    def test_one_of_each_partition(self):
        kw = make_kw({"A": AT, "B": PT, "C": AL, "D": RL}, {"A", "C"})
        tt = run_classify_islands(kw).accused
        liars = frozenset(kw.persons) - tt
        assert tt == frozenset({"A", "B"})
        assert liars == frozenset({"C", "D"})


class TestAskAllAboutOthers:
    def test_partners_identify_each_other(self):
        knowledge = {
            ("P1", "P2"): Knowledge.KNOWS_GUILTY,
            ("P2", "P1"): Knowledge.KNOWS_GUILTY,
        }
        kw = all_truth_tellers(3, {"P1", "P2"}, knowledge=knowledge)
        assert run_ask_all_about_others(kw).accused == frozenset({"P1", "P2"})

    def test_unknown_lone_criminal_goes_unaccused(self):
        kw = all_truth_tellers(3, {"P1"})
        assert run_ask_all_about_others(kw).accused == frozenset()

    def test_liar_island_knowledge_flips_through(self):
        knowledge = {("P1", "P2"): Knowledge.KNOWS_GUILTY}
        kw = make_kw({"P1": RL, "P2": AL, "P3": AL}, {"P2"}, knowledge=knowledge)
        assert run_ask_all_about_others(kw).accused == frozenset({"P2"})

    def test_no_false_positives_on_random_worlds(self):
        for seed in range(150):
            kw = generate_knowledge_world(
                n=6, island="mixed", criminals=(1, 5),
                density=(seed % 5) / 4.0, seed=seed,
            )
            accused = run_ask_all_about_others(kw).accused
            assert accused <= kw.guilty
            known = {
                q for (p, q), e in kw.knowledge.items()
                if e is Knowledge.KNOWS_GUILTY
            }
            assert accused >= known


class TestCountStrategies:
    def test_public_count_two_of_five(self):
        kw = all_truth_tellers(5, {"P2", "P4"}, count_public=2)
        assert run_count_known(kw).accused == frozenset({"P2", "P4"})

    def test_public_count_one_reduces_to_lone_culprit(self):
        kw = all_truth_tellers(4, {"P3"}, count_public=1)
        assert run_count_known(kw).accused == frozenset({"P3"})

    def test_public_count_on_liars_island(self):
        kw = all_liars(5, {"P2", "P4"}, count_public=2)
        assert run_count_known(kw).accused == frozenset({"P2", "P4"})

    def test_public_count_requires_public_count(self):
        kw = all_truth_tellers(4, {"P1"})
        with pytest.raises(PreconditionError, match="public"):
            run_strategy(kw, "count_known")

    def test_public_count_refuses_informed_crowds(self):
        knowledge = {("P1", "P2"): Knowledge.KNOWS_GUILTY}
        kw = all_truth_tellers(4, {"P2"}, knowledge=knowledge, count_public=1)
        with pytest.raises(PreconditionError, match="know"):
            run_strategy(kw, "count_known")

    def test_unknown_count_money_parade(self):
        kw = all_truth_tellers(6, {"P1", "P3", "P5"})
        assert run_count_unknown(kw).accused == frozenset({"P1", "P3", "P5"})

    def test_unknown_count_everyone_guilty(self):
        kw = all_truth_tellers(4, {"P1", "P2", "P3", "P4"})
        assert run_count_unknown(kw).accused == frozenset(kw.persons)

    def test_unknown_count_lone_liar(self):
        kw = all_liars(3, {"P2"})
        assert run_count_unknown(kw).accused == frozenset({"P2"})

    def test_unknown_count_refuses_public_count(self):
        kw = all_truth_tellers(3, {"P1"}, count_public=1)
        with pytest.raises(PreconditionError, match="count"):
            run_strategy(kw, "count_unknown")


class TestSolveStrategies:
    def test_truth_tellers_two_phases(self):
        # A known duo plus a criminal nobody knows about.
        knowledge = {
            ("P1", "P2"): Knowledge.KNOWS_GUILTY,
            ("P2", "P1"): Knowledge.KNOWS_GUILTY,
        }
        kw = all_truth_tellers(5, {"P1", "P2", "P4"}, knowledge=knowledge)
        result = run_solve_truthtellers(kw)
        assert result.accused == frozenset({"P1", "P2", "P4"})

    def test_truth_tellers_all_secrets(self):
        kw = all_truth_tellers(4, {"P2"})
        result = run_solve_truthtellers(kw)
        assert result.accused == frozenset({"P2"})

    def test_truth_tellers_complete_knowledge(self):
        knowledge = {
            (p, "P2"): Knowledge.KNOWS_GUILTY for p in ("P1", "P3", "P4")
        }
        kw = all_truth_tellers(4, {"P2"}, knowledge=knowledge)
        result = run_solve_truthtellers(kw)
        assert result.accused == frozenset({"P2"})

    def test_truth_tellers_refuses_liars(self):
        kw = all_liars(3, {"P1"})
        with pytest.raises(PreconditionError, match="island"):
            run_strategy(kw, "solve_truthtellers")

    def test_liars_robust_two_secret_criminals(self):
        kw = all_liars(4, {"P2", "P3"})
        result = run_solve_liars(kw)
        assert result.accused == frozenset({"P2", "P3"})

    def test_liars_single_guilty(self):
        kw = all_liars(1, {"P1"})
        result = run_solve_liars(kw)
        assert result.accused == frozenset({"P1"})

    def test_liars_literal_exact_under_blank_knowledge(self):
        for seed in range(50):
            kw = generate_knowledge_world(
                n=5, island="liars", criminals=(1, 5), density=0.0, seed=seed,
            )
            result = run_solve_liars(kw, random.Random(seed), mode="paper-literal")
            assert result.accused == kw.guilty

    def test_liars_literal_can_misaccuse_an_informed_innocent(self):
        # P1 knows of P2's guilt; a drawn list that misses P2 cannot be the
        # whole story for P1, so the honest answer flips to an accusing yes.
        knowledge = {("P1", "P2"): Knowledge.KNOWS_GUILTY}
        kw = make_kw({"P1": AL, "P2": AL, "P3": AL}, {"P2"}, knowledge=knowledge)
        failed = []
        for seed in range(100):
            result = run_solve_liars(kw, random.Random(seed), mode="paper-literal")
            if result.accused != kw.guilty:
                failed.append((seed, result.accused))
        assert failed, "expected at least one misaccusing seed"
        assert any("P1" in accused for _, accused in failed)
        # The robust variant is exact on the very same world.
        for seed, _ in failed:
            assert run_solve_liars(kw, random.Random(seed)).accused == kw.guilty

    def test_mixed_one_of_each(self):
        kw = make_kw({"A": AT, "B": PT, "C": AL, "D": RL}, {"B", "C"})
        result = run_solve_mixed(kw)
        assert result.accused == frozenset({"B", "C"})

    def test_mixed_degenerates_to_truth_tellers(self):
        kw = all_truth_tellers(4, {"P1", "P4"})
        result = run_solve_mixed(kw)
        assert result.accused == frozenset({"P1", "P4"})

    def test_mixed_question_budget(self):
        for seed in range(50):
            n = 2 + seed % 7
            kw = generate_knowledge_world(
                n=n, island="mixed", criminals=(1, n),
                density=(seed % 4) / 3.0, seed=seed,
            )
            result = run_solve_mixed(kw)
            assert result.accused == kw.guilty
            assert result.questions_asked <= 2 * n

    def test_adversary_seed_does_not_matter_for_robust_strategies(self):
        for seed in range(30):
            kw = generate_knowledge_world(
                n=6, island="mixed", criminals=(1, 6),
                density=(seed % 3) / 2.0, seed=seed,
            )
            accusations = {
                run_solve_mixed(kw, random.Random(adv)).accused
                for adv in (0, 1, 2, 3)
            }
            assert len(accusations) == 1


class TestNeil:
    def test_lone_criminal_answers_no(self):
        kw = all_truth_tellers(4, {"P3"}, count_public=1)
        assert run_neil(kw).accused == {"P3"}
        result = run_neil(kw)
        values = {a.person: a.value for a in result.transcript}
        assert values["P3"] is NO
        assert all(values[p] is UNKNOWN for p in ("P1", "P2", "P4"))

    def test_single_suspect(self):
        kw = all_truth_tellers(1, {"P1"}, count_public=1)
        assert run_neil(kw).accused == {"P1"}

    def test_liars_island_variant_flips_to_yes(self):
        kw = all_liars(4, {"P2"}, count_public=1)
        assert run_neil(kw).accused == {"P2"}
        result = run_neil(kw)
        values = {a.person: a.value for a in result.transcript}
        assert values["P2"] is YES
        assert all(values[p] is NO for p in ("P1", "P3", "P4"))

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="one criminal"):
            run_strategy(all_truth_tellers(3, {"P1", "P2"}, count_public=2), "neil")
        with pytest.raises(PreconditionError, match="public"):
            run_strategy(all_truth_tellers(3, {"P1"}), "neil")
        knowledge = {("P2", "P1"): Knowledge.KNOWS_GUILTY}
        with pytest.raises(PreconditionError, match="know"):
            run_strategy(all_truth_tellers(3, {"P1"}, knowledge=knowledge, count_public=1),
                         "neil")
        mixed = make_kw({"A": AT, "B": AL}, {"A"}, count_public=1)
        with pytest.raises(PreconditionError, match="island"):
            run_strategy(mixed, "neil")


class TestSecretAttribute:
    def test_five_neighbors_one_thief(self):
        kw = all_truth_tellers(5, {"P4"}, secret="secret-blue")
        assert run_secret_attribute(kw).accused == frozenset({"P4"})

    def test_colluding_thieves_both_know(self):
        kw = all_truth_tellers(5, {"P1", "P2"}, secret="secret-blue")
        assert run_secret_attribute(kw).accused == frozenset({"P1", "P2"})

    def test_refuses_liar_crowds(self):
        kw = all_liars(3, {"P1"}, secret="secret-blue")
        with pytest.raises(PreconditionError, match="island"):
            run_strategy(kw, "secret_attribute")

    def test_requires_a_secret(self):
        kw = all_truth_tellers(3, {"P1"})
        with pytest.raises(PreconditionError, match="secret"):
            run_secret_attribute(kw)


class TestZeroFalseAccusations:
    def test_all_strategies_only_accuse_criminals(self):
        for seed in range(100):
            n = 2 + seed % 6
            tt = generate_knowledge_world(
                n=n, island="tt", criminals=(1, n), density=(seed % 4) / 3.0, seed=seed,
            )
            liars = generate_knowledge_world(
                n=n, island="liars", criminals=(1, n), density=(seed % 4) / 3.0, seed=seed,
            )
            mixed = generate_knowledge_world(
                n=n, island="mixed", criminals=(1, n), density=(seed % 4) / 3.0, seed=seed,
            )
            assert run_solve_truthtellers(tt).accused <= tt.guilty
            assert run_solve_liars(liars).accused <= liars.guilty
            assert run_solve_mixed(mixed).accused <= mixed.guilty
            assert run_ask_all_about_others(mixed).accused <= mixed.guilty


class TestGenerator:
    def test_same_seed_same_world(self):
        a = generate_knowledge_world(6, "mixed", (1, 4), 0.5, True, True, seed=42)
        b = generate_knowledge_world(6, "mixed", (1, 4), 0.5, True, True, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        worlds = {
            generate_knowledge_world(6, "mixed", (1, 4), 0.5, seed=s).guilty
            for s in range(20)
        }
        assert len(worlds) > 1

    def test_density_zero_means_blank_knowledge(self):
        kw = generate_knowledge_world(4, "tt", 1, density=0.0, seed=1)
        assert kw.all_knowledge_unknown()

    def test_density_one_means_full_knowledge(self):
        kw = generate_knowledge_world(4, "tt", 2, density=1.0, seed=1)
        for p in kw.persons:
            for q in kw.persons:
                if p != q:
                    assert kw.knows(p, q) is not Knowledge.UNKNOWN

    def test_factivity_holds_by_construction(self):
        for seed in range(60):
            kw = generate_knowledge_world(
                n=5, island="mixed", criminals=(1, 5), density=0.7, seed=seed,
            )
            for (p, q), entry in kw.knowledge.items():
                if entry is Knowledge.KNOWS_GUILTY:
                    assert q in kw.guilty
                if entry is Knowledge.KNOWS_INNOCENT:
                    assert q not in kw.guilty

    def test_island_pools(self):
        tt = generate_knowledge_world(5, "tt", 1, seed=3)
        assert all(t.island is Island.TRUTH_TELLERS for t in tt.type_of.values())
        liars = generate_knowledge_world(5, "liars", 1, seed=3)
        assert all(t.island is Island.LIARS for t in liars.type_of.values())

    def test_crowd_limit_refuses_before_drawing(self):
        for n in (MAX_CROWD + 1, 10 ** 6):
            tracemalloc.start()
            try:
                with pytest.raises(PreconditionError, match=f"limit of {MAX_CROWD}"):
                    generate_knowledge_world(n, "mixed", 1, density=0.5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2 ** 10
        assert MAX_CROWD * (MAX_CROWD - 1) <= 2 ** 22

    def test_infeasible_configs(self):
        with pytest.raises(PreconditionError):
            generate_knowledge_world(0, "tt", 1)
        with pytest.raises(PreconditionError):
            generate_knowledge_world(3, "tt", 4)
        with pytest.raises(PreconditionError):
            generate_knowledge_world(3, "tt", 1, density=1.5)
        with pytest.raises(PreconditionError):
            generate_knowledge_world(3, "atlantis", 1)


class TestKnowledgeWorldInvariants:
    def test_rejects_non_factive_knowledge(self):
        with pytest.raises(KnowledgeWorldError, match="know"):
            make_kw({"A": AT, "B": AT}, {"A"},
                    knowledge={("A", "B"): Knowledge.KNOWS_GUILTY})

    def test_rejects_empty_guilt(self):
        with pytest.raises(KnowledgeWorldError, match="empty"):
            make_kw({"A": AT}, set())

    def test_rejects_wrong_public_count(self):
        with pytest.raises(KnowledgeWorldError, match="count"):
            make_kw({"A": AT, "B": AT}, {"A"}, count_public=2)

    def test_rejects_types_that_are_not_speaker_types(self):
        # Accepted once, to fail later in `spoken_answer` with an AttributeError.
        with pytest.raises(KnowledgeWorldError, match="type of 'B' is 'AT', not a speaker type"):
            make_kw({"A": AT, "B": "AT"}, {"A"})

    def test_rejects_self_knowledge_entry(self):
        with pytest.raises(KnowledgeWorldError, match="pair"):
            make_kw({"A": AT, "B": AT}, {"A"},
                    knowledge={("A", "A"): Knowledge.KNOWS_GUILTY})

    def test_rejects_entries_that_are_not_knowledge(self):
        with pytest.raises(KnowledgeWorldError, match="bad knowledge entry"):
            make_kw({"A": AT, "B": AT}, {"A"}, knowledge={("B", "A"): "knows_guilty"})

    def test_rejects_malformed_knowledge_rows(self):
        persons, guilty = ("A", "B"), frozenset({"A"})
        good = (b"\x00\x01", b"\x01\x00")
        for rows in (
            good[:1],
            (b"\x00\x01", b"\x01"),
            (b"\x01\x01", b"\x01\x00"),
            (b"\x00\x02", b"\x01\x00"),
            (bytearray(b"\x00\x01"), b"\x01\x00"),
            # One row shared by every person, as a world of density 0 has.
            (b"\x00\x01",) * 2,
            (bytearray(2),) * 2,
            (bytes(3),) * 2,
            (bytes(2),) * 3,
        ):
            with pytest.raises(KnowledgeWorldError, match="knowledge rows"):
                KnowledgeRows(persons, guilty, rows)
        for table in (
            KnowledgeRows(("A", "C"), guilty, good),
            KnowledgeRows(persons, frozenset({"B"}), good),
        ):
            with pytest.raises(KnowledgeWorldError, match="knowledge rows"):
                make_kw({"A": AT, "B": AT}, guilty, knowledge=table)
        assert len(KnowledgeRows(persons, guilty, (bytes(2),) * 2)) == 0
        table = KnowledgeRows(persons, guilty, good)
        kw = make_kw({"A": AT, "B": AT}, guilty, knowledge=table)
        assert dict(kw.knowledge) == {("A", "B"): Knowledge.KNOWS_INNOCENT,
                                      ("B", "A"): Knowledge.KNOWS_GUILTY}
        assert len(table) == 2 and ("A", "A") not in table and ("A", "X") not in table

    def test_a_key_that_is_not_a_pair_is_missing(self):
        kw = all_truth_tellers(3, {"P1"}, knowledge={("P2", "P1"): Knowledge.KNOWS_GUILTY})
        table = kw.knowledge
        assert ("P2", "P1") in table
        for key in (("P2",), ("P2", "P1", "P3"), "P2P1", "ab", ["P2", "P1"], None, 7):
            assert key not in table
            assert table.get(key) is None and table.get(key, Knowledge.UNKNOWN) \
                is Knowledge.UNKNOWN
            with pytest.raises(KeyError):
                table[key]
        # A two-letter string is not read as the pair of its letters.
        letters = make_kw({"a": AT, "b": AT}, {"a"}, knowledge={("b", "a"): Knowledge.KNOWS_GUILTY})
        assert ("b", "a") in letters.knowledge and "ba" not in letters.knowledge


def plain_rows(rng, n, density):
    """The reference `_draw_rows` must equal, written apart from it: one
    `rng.random()` per ordered pair of distinct persons, p-major."""
    draw = rng.random
    return tuple(
        bytes(1 if p != q and draw() < density else 0 for q in range(n)) for p in range(n)
    )


def plain_world(n, island, criminals, density, count_public=False, secret=False, seed=0,
                draw_rows=False):
    """`generate_knowledge_world` with the knowledge always drawn, after the
    secret: by the plain loop into a (p, q)-keyed dict, or with `draw_rows`
    through `_draw_rows`."""
    rng = random.Random(seed)
    persons = tuple(f"P{i}" for i in range(1, n + 1))
    pool = {"tt": interrogation.TT_POOL, "liars": interrogation.LIAR_POOL,
            "mixed": interrogation.TT_POOL + interrogation.LIAR_POOL}[island]
    type_of = {p: rng.choice(pool) for p in persons}
    low, high = (criminals, criminals) if isinstance(criminals, int) else criminals
    k = low if low == high else rng.randint(low, high)
    guilty = frozenset(rng.sample(persons, k))
    secret = f"secret-{rng.getrandbits(32):08x}" if secret else None
    if draw_rows:
        knowledge = KnowledgeRows(persons, guilty, interrogation._draw_rows(rng, n, density))
    else:
        knowledge = {}
        for p in persons:
            for q in persons:
                if p != q and rng.random() < density:
                    knowledge[(p, q)] = (
                        Knowledge.KNOWS_GUILTY if q in guilty else Knowledge.KNOWS_INNOCENT
                    )
    return KnowledgeWorld(
        persons=persons, type_of=type_of, guilty=guilty, knowledge=knowledge,
        count_public=k if count_public else None, secret=secret,
    )


_DENSITIES = (
    [0.0, 1.0, 2 ** -53, 5e-324, 1 - 2 ** -53, 1 / 3]
    + [k / 256 for k in (1, 77, 128, 255)]
    + [random.Random(11).random() for _ in range(4)]
)


class TestTypeDraw:
    """`_draw_types` against n calls of `rng.choice`: the same types and
    the same generator state after. It reads the 32-bit words that
    `random.Random.choice` takes, so it is checked on every Python version
    the tests run on."""

    SEEDS = list(range(60)) + [random.Random(5).getrandbits(64) for _ in range(4)]

    @pytest.mark.parametrize("island", ISLAND_MODES)
    @pytest.mark.parametrize("n", [1, 2, 10, 1000, MAX_CROWD])
    def test_types_and_generator_state_match_one_choice_per_person(self, island, n):
        pool = {"tt": interrogation.TT_POOL, "liars": interrogation.LIAR_POOL,
                "mixed": interrogation.TT_POOL + interrogation.LIAR_POOL}[island]
        assert len(pool) == (4 if island == "mixed" else 2)
        for seed in self.SEEDS if n <= 10 else self.SEEDS[:8]:
            drawn, plain = random.Random(seed), random.Random(seed)
            assert interrogation._draw_types(drawn, pool, n) \
                == tuple(plain.choice(pool) for _ in range(n)), (island, n, seed)
            assert drawn.getstate() == plain.getstate(), (island, n, seed)


class TestRowDraw:
    """`_draw_rows` against the plain per-pair loop of `plain_rows`."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 129])
    def test_rows_and_generator_state_match_the_plain_loop(self, n):
        for density in _DENSITIES:
            for seed in (0, 1, 2):
                drawn, plain = random.Random(seed), random.Random(seed)
                assert interrogation._draw_rows(drawn, n, density) \
                    == plain_rows(plain, n, density), (n, density, seed)
                assert drawn.getrandbits(64) == plain.getrandbits(64), (n, density, seed)

    @pytest.mark.parametrize("n", [100, 300])
    def test_generated_worlds_equal_plain_loop_worlds(self, n):
        for seed in (0, 1):
            args = (n, "mixed", (1, 3), 0.3)
            kw = generate_knowledge_world(*args, count_public=True, secret=True, seed=seed)
            ref = plain_world(*args, count_public=True, secret=True, seed=seed)
            assert kw == ref and ref == kw
            assert kw.knowledge.rows == ref.knowledge.rows
            assert kw.secret == ref.secret
            assert len(kw.knowledge) == len(ref.knowledge)
            assert list(kw.knowledge.items()) == list(ref.knowledge.items())
            assert kw._askers == ref._askers
            for p in kw.persons:
                for q in kw.persons:
                    assert kw.knows(p, q) is ref.knows(p, q)

    def test_memory_bound_at_max_crowd(self):
        tracemalloc.start()
        try:
            kw = generate_knowledge_world(MAX_CROWD, "mixed", (1, 3), 0.5)
            # Read inside the traced span: the rows are drawn on first read.
            assert len(kw.knowledge.rows) == MAX_CROWD
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The rows take MAX_CROWD**2 bytes, 4 MiB.
        assert peak < 8 * 2 ** 20


class TestBlankWorlds:
    """A world of density 0 skips the row draws; every seeded output stays
    that of the world drawn in full."""

    def test_blank_worlds_equal_drawn_worlds(self):
        for island, n, seed, public in itertools.product(
            ISLAND_MODES, (1, 2, 5, 40), range(4), (False, True)
        ):
            args = (n, island, (1, n), 0.0)
            kw = generate_knowledge_world(*args, count_public=public, seed=seed)
            ref = plain_world(*args, count_public=public, seed=seed, draw_rows=True)
            assert kw == ref and kw.knowledge.rows == ref.knowledge.rows, (island, n, seed)

    def test_a_secret_is_drawn_before_the_blank_rows(self):
        for island, n, seed in itertools.product(ISLAND_MODES, (2, 5, 40), range(4)):
            args = (n, island, (1, n), 0.0)
            kw = generate_knowledge_world(*args, secret=True, seed=seed)
            ref = plain_world(*args, secret=True, seed=seed, draw_rows=True)
            assert kw == ref and kw.secret == ref.secret, (island, n, seed)

    def test_no_generated_world_draws_at_generation(self, monkeypatch):
        monkeypatch.setattr(interrogation, "_draw_rows", no_draws)
        for density, secret in itertools.product((0.0, 2 ** -53, 0.3, 1.0), (False, True)):
            kw = generate_knowledge_world(50, "mixed", (1, 3), density, secret=secret, seed=1)
            assert (kw.secret is not None) is secret, (density, secret)
            if density == 0:
                # Zeros from the start: there is nothing left to draw.
                assert kw.all_knowledge_unknown()
            else:
                assert undrawn(kw), (density, secret)
                with pytest.raises(AssertionError, match="drawn"):
                    kw.knowledge.rows


def no_draws(rng, n, density):
    raise AssertionError("the knowledge rows were drawn")


def undrawn(kw):
    """Has nothing read the world's rows, or counted them per asker, yet?"""
    return "rows" not in vars(kw.knowledge) and "_askers" not in vars(kw)


class TestDeferredDraw:
    """A generated world draws its rows on first read, after its secret when
    it has one, and they are the rows of the plain draw in that order."""

    def test_the_first_read_draws_once_and_as_generation_would(self, monkeypatch):
        calls = []

        def counted(rng, n, density):
            calls.append(n)
            return eager(rng, n, density)

        eager = interrogation._draw_rows
        monkeypatch.setattr(interrogation, "_draw_rows", counted)
        for island, n, density, secret in itertools.product(
            ISLAND_MODES, (1, 2, 5, 40), (2 ** -53, 0.3, 1.0), (False, True)
        ):
            for seed in range(3):
                where = (island, n, density, secret, seed)
                args = (n, island, (1, n), density)
                ref = plain_world(*args, secret=secret, seed=seed, draw_rows=True)
                calls.clear()
                kw = generate_knowledge_world(*args, secret=secret, seed=seed)
                assert not calls and undrawn(kw), where
                assert kw.secret == ref.secret, where
                assert kw.knowledge.rows == ref.knowledge.rows, where
                assert calls == [n], where
                assert kw == ref and len(kw.knowledge) == len(ref.knowledge)
                assert kw._askers == ref._askers and kw.known_criminals() == ref.known_criminals()
                assert calls == [n], where

    def test_copies_and_pickles_of_an_undrawn_world_draw_the_same_rows(self):
        for density, seed in itertools.product((2 ** -53, 0.3, 1.0), range(3)):
            args = (40, "mixed", (1, 3), density)
            ref = plain_world(*args, seed=seed, draw_rows=True)
            kw = generate_knowledge_world(*args, seed=seed)
            copies = [copy.copy(kw), copy.deepcopy(kw), pickle.loads(pickle.dumps(kw)),
                      copy.copy(kw.knowledge), copy.deepcopy(kw.knowledge)]
            assert undrawn(kw) and all(undrawn(c) for c in copies[1:3])
            # Copies first, the original last: a shallow copy shares the
            # table, and a deep one draws from a copy of the generator.
            for table in [c if isinstance(c, KnowledgeRows) else c.knowledge for c in copies]:
                assert table.rows == ref.knowledge.rows, (density, seed)
            assert kw.knowledge.rows == ref.knowledge.rows
            assert all(c == (ref.knowledge if isinstance(c, KnowledgeRows) else ref)
                       for c in copies)

    def test_threads_reading_first_share_one_draw(self):
        ref = plain_world(300, "mixed", (1, 3), 0.3, seed=7, draw_rows=True).knowledge.rows
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                kw = generate_knowledge_world(300, "mixed", (1, 3), 0.3, seed=7)
                seen = []
                threads = [threading.Thread(target=lambda: seen.append(kw.knowledge.rows))
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 8 and all(rows == ref for rows in seen)
        finally:
            sys.setswitchinterval(switch)

    def test_rows_of_a_deferred_draw_get_the_shape_check_on_first_read(self):
        persons, guilty = ("A", "B"), frozenset({"B"})
        table = KnowledgeRows(persons, guilty, lambda: (b"\0\1", b"\1\1"))
        with pytest.raises(KnowledgeWorldError, match="bytes row"):
            table.rows
        kw = make_kw({"A": AT, "B": AL}, guilty,
                     knowledge=KnowledgeRows(persons, guilty, lambda: (b"\0\1", b"\0\0")))
        assert kw.knows("A", "B") is Knowledge.KNOWS_GUILTY

    def test_questions_of_the_type_alone_leave_the_world_undrawn(self, monkeypatch):
        monkeypatch.setattr(interrogation, "_draw_rows", no_draws)
        kw = generate_knowledge_world(60, "mixed", (1, 3), 0.3, seed=4)
        result = run_classify_islands(kw, random.Random(1))
        assert result.accused == kw.truth_tellers() and undrawn(kw)
        secret = generate_knowledge_world(60, "mixed", (1, 3), 0.3, secret=True, seed=4)
        rng = random.Random(2)
        for world in (kw, secret):
            for p in world.persons:
                for question in (KnownFact(True), KnownFact(False), DirectGuilt()):
                    truthful_answer(world, p, question)
                    spoken_answer(world, p, question, rng)
            assert undrawn(world)
        for p in secret.persons:
            truthful_answer(secret, p, SecretAttribute())
            spoken_answer(secret, p, SecretAttribute(), rng)
        assert undrawn(secret)
        # Could a criminal other than the asker be innocent? Only the asker's
        # row can tell.
        target = min(kw.guilty)
        asker = next(p for p in kw.persons if p != target)
        with pytest.raises(AssertionError, match="drawn"):
            truthful_answer(kw, asker, PossibleInnocent(target))

    @pytest.mark.parametrize("density", [2 ** -53, 0.3, 1.0])
    def test_robust_strategies_about_the_askers_themselves_leave_the_world_undrawn(
            self, monkeypatch, density):
        """Robust `solve_liars` and `solve_mixed` ask each person about
        themselves: the truth or the asker's own guilt settles every answer.
        Asking about others still reads the rows."""
        monkeypatch.setattr(interrogation, "_draw_rows", no_draws)
        for name, island in (("solve_liars", "liars"), ("solve_mixed", "mixed")):
            for public, seed in itertools.product((False, True), range(3)):
                kw = generate_knowledge_world(40, island, (1, 40), density,
                                              count_public=public, seed=seed)
                result = run_strategy(kw, name, random.Random(seed))
                assert result.accused == kw.guilty and undrawn(kw), (name, public, seed)
        for name in ("ask_all_about_others", "solve_truthtellers"):
            kw = generate_knowledge_world(40, "tt", (1, 3), density, seed=1)
            with pytest.raises(AssertionError, match="drawn"):
                run_strategy(kw, name, random.Random(1))

    def test_strategies_run_alike_on_drawn_and_undrawn_worlds(self):
        for name, strategy in STRATEGIES.items():
            publics = (False, True) if strategy.count_public is None else (strategy.count_public,)
            criminals = (lambda n: 1) if name == "neil" else (lambda n: (1, n))
            for island, n, public, mode, seed in itertools.product(
                strategy.islands, (1, 2, 5, 12), publics, strategy.modes, range(4)
            ):
                outcomes = []
                for read_first in (False, True):
                    kw = generate_knowledge_world(n, island, criminals(n), 0.3, count_public=public,
                                                  secret=strategy.needs_secret, seed=seed)
                    if read_first:
                        kw.knowledge.rows
                    try:
                        result = run_strategy(kw, name, random.Random(seed), mode)
                        outcomes.append((result.accused, result.transcript,
                                         strategy.succeeds(kw, result)))
                    except PreconditionError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (name, island, n, public, mode, seed)


class TestDeferredTranscript:
    """A strategy keeps each answer as one byte beside its asker and question,
    and builds the `Answer` records when its transcript is first read."""

    def test_the_runs_cover_every_entry_and_mode(self):
        assert {(name, mode) for name, mode, *_ in SUCCESSFUL_RUNS} == \
            {(name, mode) for name, strategy in STRATEGIES.items() for mode in strategy.modes}

    @pytest.mark.parametrize("name, mode, island, criminals, density, public", SUCCESSFUL_RUNS)
    def test_a_run_builds_no_answer_until_its_transcript_is_read(
        self, monkeypatch, name, mode, island, criminals, density, public
    ):
        built = count_constructions(monkeypatch, Answer, PossibleSubset, _AllBut)
        strategy = STRATEGIES[name]
        robust = mode == "robust" and name in ("solve_liars", "solve_mixed")
        for seed in range(3):
            kw = generate_knowledge_world(30, island, criminals, density, public,
                                          strategy.needs_secret, seed)
            built.clear()
            result = run_strategy(kw, name, random.Random(seed), mode)
            assert strategy.succeeds(kw, result) and result.questions_asked > 0
            assert built[Answer] == 0 and len(result.transcript) == result.questions_asked
            if robust:
                # "Everyone but p" is asked in its normal form, the asker absent.
                assert built[PossibleSubset] == built[_AllBut] == 0
            answers = tuple(result.transcript)
            assert built[Answer] == len(answers) == result.questions_asked
            if robust:
                assert built[PossibleSubset] == built[_AllBut] == len(kw.persons)
                assert all(a.question == PossibleSubset(kw._person_set - {a.person})
                           for a in answers[-len(kw.persons):])
            assert tuple(result.transcript) == answers and built[Answer] == len(answers)

    def test_the_first_read_builds_once_whichever_thread_reads_first(self, monkeypatch):
        built = count_constructions(monkeypatch, Answer)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(5):
                kw = generate_knowledge_world(100, "mixed", (1, 3), 0.3, seed=seed)
                transcript = run_solve_mixed(kw, random.Random(seed)).transcript
                seen = []
                threads = [threading.Thread(target=lambda: seen.append(transcript.answers))
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 8 and all(answers is seen[0] for answers in seen)
                assert built[Answer] == len(transcript) == 200
                assert transcript.answers is seen[0] and tuple(transcript) == seen[0]
                assert built[Answer] == 200
                built.clear()
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("name, island, secret", [
        ("solve_mixed", "mixed", False), ("solve_truthtellers", "tt", False),
        ("solve_liars", "liars", False), ("secret_attribute", "tt", True),
    ])
    def test_an_unread_result_is_the_result_of_its_answers(self, name, island, secret):
        def world():
            return generate_knowledge_world(12, island, (1, 3), 0.5, secret=secret, seed=4)

        def unread():
            return run_strategy(world(), name, random.Random(4))

        read = unread()
        eager = StrategyResult(read.accused, tuple(read.transcript), read.questions_asked)
        assert type(eager.transcript) is tuple
        assert not secret or any(answer.token == world().secret for answer in eager.transcript)
        assert unread() == eager and eager == unread() and unread() == unread()
        assert unread().transcript == eager.transcript == unread().transcript
        assert hash(unread()) == hash(eager)
        assert repr(unread()) == repr(eager)
        for copied in (copy.copy(unread()), copy.deepcopy(unread()),
                       pickle.loads(pickle.dumps(unread()))):
            assert copied == eager and hash(copied) == hash(eager)
            assert repr(copied) == repr(eager)
        assert type(pickle.loads(pickle.dumps(unread())).transcript) is tuple

    def test_a_shallow_copy_shares_the_unread_transcript(self, monkeypatch):
        built = count_constructions(monkeypatch, Answer)
        kw = generate_knowledge_world(12, "mixed", (1, 3), 0.5, seed=4)
        result = run_solve_mixed(kw, random.Random(4))
        copied = copy.copy(result)
        assert copied.transcript is result.transcript and built[Answer] == 0
        assert copied.transcript.answers is result.transcript.answers and built[Answer] == 24


class TestStrategyRegistry:
    """Each registry entry's declared premises against what its runner does."""

    @pytest.mark.parametrize("name", list(STRATEGIES))
    def test_worlds_outside_the_declared_premises_are_refused(self, name):
        strategy = STRATEGIES[name]

        def world(island, count_public):
            return generate_knowledge_world(
                n=30, island=island, criminals=1, density=0.0,
                count_public=count_public, secret=strategy.needs_secret, seed=17,
            )

        public = bool(strategy.count_public)
        for island in ISLAND_MODES:
            if island not in strategy.islands:
                with pytest.raises(PreconditionError, match="island"):
                    run_strategy(world(island, public), name)
        if strategy.count_public is not None:
            with pytest.raises(PreconditionError, match="count"):
                run_strategy(world(strategy.islands[0], not public), name)

    def test_only_a_strategy_that_declares_a_mode_accepts_it(self):
        kw = generate_knowledge_world(5, "liars", (1, 3), 0.0, seed=2)
        for name, strategy in STRATEGIES.items():
            if "paper-literal" in strategy.modes:
                assert run_strategy(kw, name, mode="paper-literal").accused == kw.guilty
            else:
                with pytest.raises(PreconditionError, match="mode"):
                    run_strategy(kw, name, mode="paper-literal")

    def test_a_direct_call_in_an_unknown_mode_is_refused(self, monkeypatch):
        """The runner checks no mode name, yet an unknown mode asks nothing:
        neither the robust nor the literal question is put."""
        kw = generate_knowledge_world(5, "liars", (1, 3), 0.0, seed=2)
        asked = []
        answer = interrogation._answer
        monkeypatch.setattr(interrogation, "_answer",
                            lambda *args: asked.append(args[2]) or answer(*args))
        for mode in ("bogus", "Robust", ""):
            with pytest.raises(PreconditionError, match="unknown question"):
                run_solve_liars(kw, random.Random(0), mode)
        assert all(not isinstance(question, (PossibleSubset, PossibleExact))
                   for question in asked)

    def test_an_unknown_name_is_refused_with_the_registered_names(self):
        kw = generate_knowledge_world(5, "mixed", 1, 0.0, seed=2)
        with pytest.raises(PreconditionError) as refused:
            run_strategy(kw, "nope")
        assert str(refused.value) == f"no strategy 'nope' (the strategies: {', '.join(STRATEGIES)})"
