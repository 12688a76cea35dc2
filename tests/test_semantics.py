"""Admissibility for the four speaker types, derived from their island and
`partial` fields, and its symmetries."""

from hypothesis import given
from hypothesis import strategies as st

from islander.model import (
    ALL_TYPES,
    FALSE,
    Guilty,
    Island,
    Not,
    SpeakerType,
    World,
)
from islander.semantics import admissible_for_type, lies_when_asked_guilt

from test_model import PERSONS, formula_strategy, world_strategy

AT = SpeakerType.ABSOLUTE_TRUTH_TELLER
PT = SpeakerType.PARTIAL_TRUTH_TELLER
AL = SpeakerType.ABSOLUTE_LIAR
RL = SpeakerType.RESPONSIBLE_LIAR


def world_with(speaker_type, guilty):
    return World(
        {"S": speaker_type, "O": AT},
        frozenset({"S"}) if guilty else frozenset(),
        {},
    )


class TestRuleTable:
    def test_modes_and_substitution(self):
        # The island sets what an utterance must evaluate to; `partial`
        # turns on the self-guilt substitution.
        assert [(t.value, t.island, t.partial) for t in ALL_TYPES] == [
            ("AT", Island.TRUTH_TELLERS, False),
            ("PT", Island.TRUTH_TELLERS, True),
            ("AL", Island.LIARS, False),
            ("RL", Island.LIARS, True),
        ]
        assert [SpeakerType(t.value) for t in ALL_TYPES] == [AT, PT, AL, RL]

    def test_islands(self):
        assert AT.island is Island.TRUTH_TELLERS
        assert PT.island is Island.TRUTH_TELLERS
        assert AL.island is Island.LIARS
        assert RL.island is Island.LIARS


class TestExamples:
    def test_guilty_absolute_truth_teller_cannot_claim_innocence(self):
        w = world_with(AT, guilty=True)
        assert not admissible_for_type(w, "S", Not(Guilty("S")), w.type_of["S"])

    def test_guilty_partial_truth_teller_claims_innocence(self):
        w = world_with(PT, guilty=True)
        assert admissible_for_type(w, "S", Not(Guilty("S")), w.type_of["S"])

    def test_innocent_responsible_liar_claims_guilt_never_innocence(self):
        w = world_with(RL, guilty=False)
        assert admissible_for_type(w, "S", Guilty("S"), w.type_of["S"])
        assert not admissible_for_type(w, "S", Not(Guilty("S")), w.type_of["S"])

    @given(world_strategy)
    def test_absolute_liar_can_always_state_a_falsehood(self, world):
        assert admissible_for_type(world, "A", FALSE, AL)

    def test_partial_truth_teller_can_never_admit_guilt(self):
        for guilty in (False, True):
            w = world_with(PT, guilty)
            assert not admissible_for_type(w, "S", Guilty("S"), w.type_of["S"])

    def test_responsible_liar_can_always_admit_guilt(self):
        for guilty in (False, True):
            w = world_with(RL, guilty)
            assert admissible_for_type(w, "S", Guilty("S"), w.type_of["S"])


class TestLiesWhenAskedGuilt:
    def test_partial_truth_teller_lies_exactly_when_guilty(self):
        assert lies_when_asked_guilt(world_with(PT, True), "S") is True
        assert lies_when_asked_guilt(world_with(PT, False), "S") is False

    def test_absolute_truth_teller_never_lies(self):
        assert lies_when_asked_guilt(world_with(AT, True), "S") is False
        assert lies_when_asked_guilt(world_with(AT, False), "S") is False

    def test_responsible_liar_truthful_only_when_guilty(self):
        assert lies_when_asked_guilt(world_with(RL, False), "S") is True
        assert lies_when_asked_guilt(world_with(RL, True), "S") is False

    def test_absolute_liar_always_lies(self):
        assert lies_when_asked_guilt(world_with(AL, True), "S") is True
        assert lies_when_asked_guilt(world_with(AL, False), "S") is True


class TestMirrorSymmetry:
    @given(world_strategy, formula_strategy(), st.sampled_from(PERSONS))
    def test_absolute_types_are_complements(self, world, formula, speaker):
        assert admissible_for_type(world, speaker, formula, AL) == \
            (not admissible_for_type(world, speaker, formula, AT))

    @given(world_strategy, formula_strategy(), st.sampled_from(PERSONS))
    def test_partial_types_are_complements(self, world, formula, speaker):
        assert admissible_for_type(world, speaker, formula, RL) == \
            (not admissible_for_type(world, speaker, formula, PT))

    @given(world_strategy, formula_strategy(persons=("B", "C")))
    def test_partial_types_match_absolute_on_indirect_sentences(self, world, formula):
        # Sentences with no self-guilt atom: the substitution is a no-op.
        assert admissible_for_type(world, "A", formula, PT) == \
            admissible_for_type(world, "A", formula, AT)
        assert admissible_for_type(world, "A", formula, RL) == \
            admissible_for_type(world, "A", formula, AL)


class TestAdmissionProperties:
    @given(world_strategy, st.sampled_from(PERSONS),
           st.sampled_from((AT, PT)))
    def test_guilt_admission_on_truth_tellers_island_implies_guilt(
        self, world, speaker, speaker_type
    ):
        if admissible_for_type(world, speaker, Guilty(speaker), speaker_type):
            assert speaker in world.guilty

    @given(world_strategy, st.sampled_from(PERSONS),
           st.sampled_from((AL, RL)))
    def test_innocence_claim_on_liars_island_implies_guilt(
        self, world, speaker, speaker_type
    ):
        if admissible_for_type(world, speaker, Not(Guilty(speaker)), speaker_type):
            assert speaker in world.guilty

    @given(world_strategy, st.sampled_from(PERSONS), st.sampled_from(ALL_TYPES))
    def test_statements_about_others_have_fixed_truth_value(self, world, speaker, t):
        # A truth-teller's claim about someone else is true; a liar's is false.
        other = "B" if speaker != "B" else "C"
        claim = Guilty(other)
        if admissible_for_type(world, speaker, claim, t):
            value = other in world.guilty
            assert value is (t.island is Island.TRUTH_TELLERS)
