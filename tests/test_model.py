"""Formula evaluation, equality, rewriting (map_atoms, self-guilt substitution,
person renaming), and puzzle validation."""

import copy
import pickle
import sys
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from islander.model import (
    ALL_TYPES,
    And,
    AtMostDistinct,
    Const,
    CountCmp,
    ExactTruthTellers,
    FALSE,
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
    PuzzleError,
    SpeakerType,
    Statement,
    TRUE,
    Truthful,
    UnknownReference,
    World,
    eval_formula,
    knows_whodunit_key,
    lies_when_asked_guilt,
    map_atoms,
    replace_person,
    substitute_self_guilt,
)

AT = SpeakerType.ABSOLUTE_TRUTH_TELLER
PT = SpeakerType.PARTIAL_TRUTH_TELLER
AL = SpeakerType.ABSOLUTE_LIAR
RL = SpeakerType.RESPONSIBLE_LIAR

PERSONS = ("A", "B", "C")
FREES = ("f1", "f2")


def make_world(types=None, guilty=(), frees=None):
    type_of = dict(zip(PERSONS, types or (AT, AT, AT)))
    free_values = {name: False for name in FREES}
    free_values.update({knows_whodunit_key(p): False for p in PERSONS})
    free_values.update(frees or {})
    return World(type_of, frozenset(guilty), free_values)


world_strategy = st.builds(
    make_world,
    types=st.tuples(*[st.sampled_from(ALL_TYPES)] * len(PERSONS)),
    guilty=st.frozensets(st.sampled_from(PERSONS)),
    frees=st.fixed_dictionaries(
        {name: st.booleans() for name in FREES}
        | {knows_whodunit_key(p): st.booleans() for p in PERSONS}
    ),
)


def atom_strategy(persons=PERSONS):
    person = st.sampled_from(persons)
    return st.one_of(
        st.builds(Guilty, person),
        st.builds(HasType, person, st.sampled_from(ALL_TYPES)),
        st.builds(FromIsland, person, st.sampled_from(list(Island))),
        st.builds(CountCmp, st.sampled_from(("=", "<=", ">=")), st.integers(0, 3)),
        st.builds(Free, st.sampled_from(FREES)),
        st.builds(KnowsWhodunit, person),
        st.builds(LiesWhenAskedGuilt, person),
        st.builds(Const, st.booleans()),
    )


def formula_strategy(persons=PERSONS):
    return st.recursive(
        atom_strategy(persons),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
        ),
        max_leaves=8,
    )


class TestEval:
    def test_constants(self):
        w = make_world()
        assert eval_formula(w, TRUE) is True
        assert eval_formula(w, FALSE) is False

    def test_guilty_lookup(self):
        w = make_world(guilty={"A"})
        assert eval_formula(w, Guilty("A"))
        assert not eval_formula(w, Guilty("B"))

    def test_count_comparison_against_single_culprit(self):
        # The snowflake puzzle's resolved world: one culprit, so a claim of
        # exactly two criminals comes out false.
        w = World({"Mike": AL, "Leon": AL, "Ashwin": AL}, frozenset({"Mike"}), {})
        assert eval_formula(w, CountCmp("=", 2)) is False
        assert eval_formula(w, CountCmp(">=", 1)) is True
        assert eval_formula(w, CountCmp("<=", 1)) is True

    def test_truthful_evaluates_referenced_body_at_face_value(self):
        # Resolved hole-digging world: Neil is an absolute liar and Mike is a
        # partial truth-teller, so Neil's compound self-description is false.
        w = World(
            {"Neil": AL, "Mike": PT, "Nastia": RL, "Leon": AT},
            frozenset({"Neil", "Leon"}),
            {},
        )
        stmt = Statement(
            "neil_turn1",
            "Neil",
            And(HasType("Neil", PT), Not(HasType("Mike", PT))),
        )
        table = {"neil_turn1": stmt}
        assert eval_formula(w, Truthful("neil_turn1"), table) is False

    def test_connectives(self):
        w = make_world(guilty={"A"})
        assert eval_formula(w, And(Guilty("A"), Not(Guilty("B"))))
        assert eval_formula(w, Or(Guilty("B"), Guilty("A")))
        assert eval_formula(w, Implies(Guilty("B"), FALSE))
        assert eval_formula(w, Iff(Guilty("A"), TRUE))
        assert not eval_formula(w, Iff(Guilty("A"), Guilty("B")))

    def test_knows_whodunit_guilty_always_true(self):
        w = make_world(guilty={"A"}, frees={knows_whodunit_key("A"): False})
        assert eval_formula(w, KnowsWhodunit("A")) is True

    def test_knows_whodunit_innocent_reads_free_value(self):
        w = make_world(frees={knows_whodunit_key("B"): True})
        assert eval_formula(w, KnowsWhodunit("B")) is True
        w2 = make_world(frees={knows_whodunit_key("B"): False})
        assert eval_formula(w2, KnowsWhodunit("B")) is False

    def test_island_and_type_atoms(self):
        w = make_world(types=(AT, AL, RL))
        assert eval_formula(w, HasType("A", AT))
        assert not eval_formula(w, HasType("A", PT))
        assert eval_formula(w, FromIsland("B", Island.LIARS))
        assert eval_formula(w, FromIsland("C", Island.LIARS))
        assert not eval_formula(w, FromIsland("C", Island.TRUTH_TELLERS))

    def test_unknown_person_raises_naming_offender(self):
        w = make_world()
        with pytest.raises(UnknownReference, match="Zelda"):
            eval_formula(w, Guilty("Zelda"))

    def test_unknown_label_raises(self):
        w = make_world()
        with pytest.raises(UnknownReference, match="nope"):
            eval_formula(w, Truthful("nope"), {})

    def test_unknown_free_atom_raises(self):
        w = World({"A": AT}, frozenset(), {})
        with pytest.raises(UnknownReference, match="mystery"):
            eval_formula(w, Free("mystery"))

    def test_missing_whodunit_value_raises(self):
        w = World({"A": AT}, frozenset(), {})
        with pytest.raises(UnknownReference):
            eval_formula(w, KnowsWhodunit("A"))

    @given(world_strategy, formula_strategy())
    def test_eval_is_deterministic_and_total(self, world, formula):
        assert eval_formula(world, formula) == eval_formula(world, formula)

    @given(world_strategy, formula_strategy(PERSONS + ("Zelda",)))
    def test_eval_reads_operands_as_a_plain_recursion_would(self, world, formula):
        """Left operand first, skipping the right one as Python's `and` and
        `or` do: the same value as a recursive reading, or the same unknown
        person raised."""
        def plain(node):
            match node:
                case Not(operand):
                    return not plain(operand)
                case And(left, right):
                    return plain(left) and plain(right)
                case Or(left, right):
                    return plain(left) or plain(right)
                case Implies(left, right):
                    return (not plain(left)) or plain(right)
                case Iff(left, right):
                    return plain(left) == plain(right)
            return eval_formula(world, node)

        def outcome(evaluate):
            try:
                return evaluate(formula)
            except UnknownReference as exc:
                return str(exc)

        assert outcome(plain) == outcome(lambda node: eval_formula(world, node))

    def test_a_body_that_reaches_its_own_label_raises(self):
        w = make_world()
        table = {"s": Statement("s", "A", Or(Guilty("B"), Truthful("s"))),
                 "t": Statement("t", "B", Guilty("A")),
                 "u": Statement("u", "C", Iff(Truthful("t"), Not(Truthful("t"))))}
        with pytest.raises(UnknownReference, match="'s' refers to itself"):
            eval_formula(w, Truthful("s"), table)
        # A label read twice, neither time within its own body, is no cycle.
        assert eval_formula(w, Truthful("u"), table) is False


class TestLiesWhenAskedGuilt:
    def test_table(self):
        for t, guilty, expected in [
            (AT, False, False), (AT, True, False),
            (PT, False, False), (PT, True, True),
            (AL, False, True), (AL, True, True),
            (RL, False, True), (RL, True, False),
        ]:
            w = make_world(types=(t, AT, AT), guilty={"A"} if guilty else ())
            assert lies_when_asked_guilt(w, "A") is expected, (t, guilty)

    def test_atom_matches_function(self):
        w = make_world(types=(RL, AT, AT), guilty=())
        assert eval_formula(w, LiesWhenAskedGuilt("A")) is True


class TestSubstituteSelfGuilt:
    def test_disjunction_keeps_other_conjunct(self):
        # "I did it, or the other one didn't" with the speaker's own guilt
        # treated as false leaves only the second disjunct standing.
        body = Or(Guilty("Essra"), Not(Guilty("Jakob")))
        out = substitute_self_guilt(body, "Essra", False)
        assert out == Or(FALSE, Not(Guilty("Jakob")))
        # The substituted sentence only holds in worlds where Jakob is innocent.
        innocent = World({"Essra": PT, "Jakob": PT}, frozenset({"Essra"}), {})
        guilty = World({"Essra": PT, "Jakob": PT}, frozenset({"Essra", "Jakob"}), {})
        assert eval_formula(innocent, out) is True
        assert eval_formula(guilty, out) is False

    def test_no_occurrence_is_identity(self):
        body = And(Guilty("B"), CountCmp(">=", 1))
        assert substitute_self_guilt(body, "A", False) == body

    def test_single_atom(self):
        assert substitute_self_guilt(Guilty("A"), "A", False) == FALSE
        assert substitute_self_guilt(Guilty("A"), "A", True) == TRUE

    def test_does_not_reach_into_truthful_references(self):
        body = Truthful("s1")
        assert substitute_self_guilt(body, "A", False) == body

    @given(formula_strategy(), st.sampled_from(PERSONS), st.booleans())
    def test_idempotent(self, formula, speaker, value):
        once = substitute_self_guilt(formula, speaker, value)
        assert substitute_self_guilt(once, speaker, value) == once

    @given(world_strategy, formula_strategy(), formula_strategy(),
           st.sampled_from(PERSONS), st.booleans())
    def test_commutes_with_conjunction(self, world, phi, psi, speaker, value):
        joint = eval_formula(world, substitute_self_guilt(And(phi, psi), speaker, value))
        split = eval_formula(world, substitute_self_guilt(phi, speaker, value)) and \
            eval_formula(world, substitute_self_guilt(psi, speaker, value))
        assert joint == split

    @given(world_strategy, formula_strategy(persons=("B", "C")), st.booleans())
    def test_formulas_without_self_guilt_unchanged_under_eval(self, world, formula, value):
        assert eval_formula(world, substitute_self_guilt(formula, "A", value)) == \
            eval_formula(world, formula)


class TestFormulaEquality:
    def test_connectives_of_different_kinds_are_unequal(self):
        a, b = Guilty("A"), Guilty("B")
        assert And(a, b) != Or(a, b)
        assert Implies(a, b) != Iff(a, b)
        assert And(a, b) == And(Guilty("A"), Guilty("B"))
        assert hash(And(a, b)) == hash(And(Guilty("A"), Guilty("B")))

    def test_a_connective_never_equals_an_atom_or_a_non_formula(self):
        formula = Not(Guilty("A"))
        for other in ("not guilty(A)", None, (Guilty("A"),), Guilty("A")):
            assert formula != other
            assert not formula == other

    def test_repr_is_the_dataclass_text(self):
        assert repr(And(Guilty("A"), Not(HasType("B", AL)))) == \
            "And(left=Guilty(person='A'), right=Not(operand=HasType(person='B', speaker_type=AL)))"

    @given(formula_strategy(), formula_strategy())
    def test_equality_is_structural_and_hash_follows_it(self, f, g):
        copy = map_atoms(f, lambda atom: type(atom)(
            *(getattr(atom, name) for name in atom.__match_args__)))
        assert copy == f and hash(copy) == hash(f)
        assert (f == g) == (repr(f) == repr(g))
        if f == g:
            assert hash(f) == hash(g)


class TestSpeakerTypeHash:
    """Members of `SpeakerType` and `Island` hash by identity: they are
    singletons and `==` is identity."""

    def test_each_member_and_its_hash_survive_containers_copies_and_pickles(self):
        for members, kind in ((ALL_TYPES, SpeakerType), (tuple(Island), Island)):
            for t in members:
                assert hash(t) == object.__hash__(t)
                for same in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t)),
                             kind(t.value), kind[t.name]):
                    assert same is t and hash(same) == hash(t)
            every = frozenset(members)
            codes = {t: t.value for t in members}
            for clone in (set(members), copy.copy(every), copy.deepcopy(every),
                          pickle.loads(pickle.dumps(every))):
                assert clone == every and all(t in clone for t in members)
            for clone in (dict(codes), copy.deepcopy(codes), pickle.loads(pickle.dumps(codes))):
                assert clone == codes and all(clone[t] == t.value for t in members)
        assert {t.island for t in ALL_TYPES} == set(Island)

    def test_a_pickled_puzzle_keeps_its_type_domains(self):
        puzzle = Puzzle(
            suspects=("A", "B"),
            type_domain={"A": frozenset({AT, RL}), "B": frozenset(ALL_TYPES)},
            count=CountCmp("=", 1),
            statements=(Statement("s1", "A", HasType("B", PT)),),
        )
        clone = pickle.loads(pickle.dumps(puzzle))
        assert clone == puzzle and clone.type_domain == puzzle.type_domain
        assert RL in clone.type_domain["A"] and PT not in clone.type_domain["A"]


class TestReplacePerson:
    def test_renames_all_five_person_atoms_keeping_their_other_fields(self):
        def body(p):
            return And(Guilty(p), Or(HasType(p, PT), Implies(
                FromIsland(p, Island.LIARS),
                Iff(LiesWhenAskedGuilt(p), Not(KnowsWhodunit(p))))))

        assert replace_person(body("X"), "X", "A") == body("A")

    def test_other_atoms_and_persons_are_untouched(self):
        others = (Truthful("X"), Free("X"), CountCmp(">=", 1), Const(True),
                  Guilty("B"), HasType("B", AT), FromIsland("B", Island.LIARS),
                  LiesWhenAskedGuilt("B"), KnowsWhodunit("B"))
        formula = reduce(Or, others)
        assert replace_person(formula, "X", "A") is formula
        renamed = replace_person(And(Guilty("X"), formula), "X", "A")
        assert renamed == And(Guilty("A"), formula)
        assert renamed.right is formula

    @given(formula_strategy())
    def test_identity_map_shares_the_whole_formula(self, formula):
        assert map_atoms(formula, lambda atom: atom) is formula


class TestPuzzleValidation:
    def base_puzzle(self, **overrides):
        fields = dict(
            suspects=("A", "B"),
            type_domain={"A": frozenset(ALL_TYPES), "B": frozenset(ALL_TYPES)},
            count=CountCmp(">=", 1),
            statements=(Statement("s1", "A", Guilty("B")),),
        )
        fields.update(overrides)
        return Puzzle(**fields)

    def test_valid_puzzle_passes(self):
        self.base_puzzle().validate()

    @pytest.mark.parametrize("overrides, message", [
        (dict(suspects=(), type_domain={}), "a puzzle needs at least one suspect"),
        (dict(type_domain={"A": frozenset(ALL_TYPES)}),
         "type domain must cover exactly the suspects"),
        (dict(count=CountCmp("<", 1)), "bad count comparison op '<'"),
        (dict(count=CountCmp(">=", -1)), "criminal count bound must be non-negative"),
        (dict(type_cardinality=OneOfEach()),
         "one-of-each cardinality needs exactly four suspects"),
        (dict(type_cardinality=ExactTruthTellers(3)), "truth-teller count out of range"),
        (dict(type_cardinality=AtMostDistinct(0)), "distinct-type bound must be at least 1"),
        # What serialize could not write as text that parses back.
        (dict(axioms=(Or(Guilty("A"), CountCmp(">=", -1)),)),
         "axiom 1 has a negative count bound"),
        (dict(suspects=("A", "a b"), type_domain={"A": frozenset(ALL_TYPES),
                                                  "a b": frozenset(ALL_TYPES)},
              statements=()),
         "suspect name 'a b' is not an identifier"),
        (dict(statements=(Statement("s 1", "A", TRUE),)),
         "statement label 's 1' is not an identifier"),
        (dict(axioms=(Free("a b"),)),
         "axiom 1 has free atom name 'a b', which is not an identifier"),
        (dict(suspects=("A", "guilty"), type_domain={"A": frozenset(ALL_TYPES),
                                                     "guilty": frozenset(ALL_TYPES)},
              statements=()),
         "suspect name 'guilty' is a reserved word"),
        (dict(statements=(Statement("not", "A", TRUE),)),
         "statement label 'not' is a reserved word"),
        (dict(statements=(Statement("s1", "A", None, text="two\nlines"),)),
         "statement 's1' has a newline in its text"),
        # A's reserved whodunit key: the solver would mistake it for A's knowledge.
        (dict(type_domain={"A": frozenset({AT}), "B": frozenset({AT})},
              count=CountCmp("=", 1), statements=(),
              axioms=(KnowsWhodunit("A"), Not(Free(knows_whodunit_key("A"))))),
         "axiom 2 has free atom name '@knows_whodunit:A', which is not an identifier"),
    ])
    def test_invalid_puzzle_is_refused_at_construction(self, overrides, message):
        with pytest.raises(PuzzleError) as info:
            self.base_puzzle(**overrides)
        assert str(info.value) == message

    @pytest.mark.parametrize("fields, message", [
        (lambda k: dict(count=CountCmp(">=", k)), "criminal count bound"),
        (lambda k: dict(axioms=(Or(Guilty("A"), CountCmp("=", k)),)),
         "axiom 1 has a count bound that"),
        (lambda k: dict(type_cardinality=AtMostDistinct(k)), "distinct-type bound"),
    ], ids=["criminals", "count_atom", "at_most_distinct"])
    def test_integer_past_the_conversion_limit_is_refused(self, fields, message):
        """An integer that str() cannot write would make serialize raise, so
        a puzzle refuses it, as the parser refuses its literal; one digit
        shorter, it is kept."""
        limit = sys.get_int_max_str_digits()
        with pytest.raises(PuzzleError) as info:
            self.base_puzzle(**fields(10 ** limit))
        assert str(info.value) == f"{message} has more than {limit} digits"
        self.base_puzzle(**fields(10 ** limit - 1))

    def test_duplicate_suspects(self):
        with pytest.raises(PuzzleError, match="duplicate"):
            self.base_puzzle(
                suspects=("A", "A"),
                type_domain={"A": frozenset(ALL_TYPES)},
            )

    def test_unknown_speaker(self):
        with pytest.raises(PuzzleError, match="speaker"):
            self.base_puzzle(statements=(Statement("s1", "Z", TRUE),))

    def test_duplicate_label(self):
        with pytest.raises(PuzzleError, match="label"):
            self.base_puzzle(
                statements=(Statement("s1", "A", TRUE), Statement("s1", "B", TRUE)),
            )

    def test_forward_truthful_reference(self):
        with pytest.raises(PuzzleError, match="earlier"):
            self.base_puzzle(
                statements=(
                    Statement("s1", "A", Truthful("s2")),
                    Statement("s2", "B", TRUE),
                ),
            )

    def test_self_truthful_reference(self):
        with pytest.raises(PuzzleError, match="earlier"):
            self.base_puzzle(
                statements=(Statement("s1", "A", Truthful("s1")),),
            )

    def test_truthful_reference_to_unmodeled(self):
        with pytest.raises(PuzzleError):
            self.base_puzzle(
                statements=(
                    Statement("s1", "A", None, text="whatever"),
                    Statement("s2", "B", Truthful("s1")),
                ),
            )

    def test_empty_type_domain(self):
        with pytest.raises(PuzzleError, match="empty"):
            self.base_puzzle(
                type_domain={"A": frozenset(), "B": frozenset(ALL_TYPES)},
            )

    def test_type_domain_of_codes(self):
        # Accepted once: `solve` then found it inconsistent, and `serialize`
        # wrote `types A: {};`, which `parse` refuses.
        with pytest.raises(PuzzleError, match="suspect 'A' holds 'AT', not a speaker type"):
            Puzzle(("A",), {"A": frozenset({"AT"})}, CountCmp("=", 1))

    def test_axiom_unknown_person(self):
        with pytest.raises(PuzzleError, match="Z"):
            self.base_puzzle(axioms=(Guilty("Z"),))

    @pytest.mark.parametrize("body, axiom, message", [
        (And(CountCmp("<", 1), And(Truthful("s0"), Guilty("Z"))), TRUE,
         "statement 's1' references unknown person 'Z'"),
        (And(CountCmp("<", 1), Truthful("s0")), TRUE,
         "statement 's1' references unmodeled statement 's0'"),
        (Or(CountCmp("<", 1), Truthful("s9")), TRUE,
         "statement 's1' has a truthful() reference to 's9', which is not an earlier "
         "modeled statement"),
        (Or(CountCmp("<", 1), Guilty("A")), TRUE,
         "statement 's1' uses bad count comparison op '<'"),
        (Guilty("A"), Truthful("s0"),
         "axiom 1 has a truthful() reference to 's0', which is not an earlier "
         "modeled statement"),
        (Or(Free("a b"), Or(CountCmp(">=", -1), CountCmp("<", 1))), TRUE,
         "statement 's1' uses bad count comparison op '<'"),
        (Or(Free("a b"), CountCmp(">=", -1)), TRUE,
         "statement 's1' has a negative count bound"),
    ])
    def test_formula_reference_errors_in_order_of_precedence(self, body, axiom, message):
        """Unknown persons before bad labels before bad count ops before bad
        count bounds before bad free atom names, wherever each sits in the
        formula."""
        with pytest.raises(PuzzleError) as info:
            self.base_puzzle(
                statements=(Statement("s0", "A", None, text="noise"),
                            Statement("s1", "A", body)),
                axioms=(axiom,),
            )
        assert str(info.value) == message
