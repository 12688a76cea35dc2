"""Utterance semantics: which sentences can each speaker type actually say.

A speaker on the truth-tellers' island may utter a sentence only if it is
true; one on the liars' island only if it is false. A partial type
(`SpeakerType.partial`) first pretends to be innocent: the speaker's own
guilt atom is substituted with false, and the island's requirement is
applied to the result. Only a literal self-guilt atom counts as "the guilt
question"; no equivalence detection is attempted, so these speakers answer
all indirect questions straight.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .model import (
    Formula,
    Island,
    SpeakerType,
    Statement,
    World,
    eval_formula,
    lies_when_asked_guilt,
    substitute_self_guilt,
)

__all__ = ["admissible_for_type", "lies_when_asked_guilt"]


def admissible_for_type(
    world: World,
    speaker: str,
    body: Formula,
    speaker_type: SpeakerType,
    statements: Optional[Mapping[str, Statement]] = None,
) -> bool:
    """Could a speaker of the given type say `body` in this world?

    The hypothetical type selects the rule; the formula itself is still
    evaluated against the world as it stands.
    """
    # An innocent person's guilt atom is false already: rebuild no body for it.
    if speaker_type.partial and (speaker in world.guilty or speaker not in world.type_of):
        body = substitute_self_guilt(body, speaker, False)
    value = eval_formula(world, body, statements)
    return value is (speaker_type.island is Island.TRUTH_TELLERS)
