"""Guilt puzzles on the islands of truth-tellers and liars.

Four speaker types live here: absolute truth-tellers, partial truth-tellers
(who lie only about their own guilt, and only when guilty), absolute liars,
and responsible liars (whose only true sentence is a guilt admission when
actually guilty). The package models their utterances, solves puzzles by
exhaustive world enumeration, parses a small `.puz` text format, and
simulates detective questioning strategies against randomized knowledge
worlds.
"""

from .model import (
    ALL_TYPES,
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
    substitute_self_guilt,
)
from .semantics import admissible_for_type, lies_when_asked_guilt
from .solver import (
    SearchSpaceError,
    SolveReport,
    Verdict,
    WorldCheck,
    check_world,
    enumerate_worlds,
    solve,
)
from .dsl import ParseError, SourceSpan, parse, serialize
from . import interrogation

__version__ = "0.1.0"
