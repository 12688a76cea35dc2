"""The record contract every frozen record of the package keeps, checked on
each class that `model.record` built (the subclasses of `model.Record`),
and the start-up guard: importing the package and its CLI loads no
`dataclasses`."""

import collections.abc
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import islander.cli  # noqa: F401  (imports every module that defines a record)
from islander.dsl import SourceSpan
from islander.interrogation import (
    STRATEGIES,
    Answer,
    AnswerValue,
    DetectivePossiblyGuilty,
    DidDetectiveDoIt,
    DirectGuilt,
    KnowledgeRows,
    KnowledgeWorld,
    KnownFact,
    PossibleExact,
    PossibleInnocent,
    PossibleSizeExcludingSelf,
    PossibleSubset,
    SecretAttribute,
    Strategy,
    StrategyResult,
)
from islander.model import (
    ALL_TYPES,
    And,
    AtMostDistinct,
    Const,
    CountCmp,
    ExactTruthTellers,
    Factory,
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
    Record,
    SpeakerType,
    Statement,
    Truthful,
    World,
    record,
)
from islander.solver import SolveReport, Verdict, WorldCheck

AT = SpeakerType.ABSOLUTE_TRUTH_TELLER
AL = SpeakerType.ABSOLUTE_LIAR

# Field values for one record of each class, in constructor order; the
# values of defaulted fields are given too.
SAMPLES = {
    Guilty: ("A",),
    HasType: ("A", AT),
    FromIsland: ("A", Island.LIARS),
    CountCmp: (">=", 1),
    Truthful: ("s1",),
    LiesWhenAskedGuilt: ("A",),
    KnowsWhodunit: ("A",),
    Free: ("x",),
    Const: (True,),
    Not: (Guilty("A"),),
    And: (Guilty("A"), Guilty("B")),
    Or: (Guilty("A"), Not(Guilty("B"))),
    Implies: (Guilty("A"), Free("x")),
    Iff: (Const(False), Guilty("B")),
    Statement: ("s1", "A", Guilty("B"), "B did it"),
    OneOfEach: (),
    ExactTruthTellers: (1,),
    AtMostDistinct: (2,),
    Puzzle: (("A", "B"), {"A": frozenset(ALL_TYPES), "B": frozenset({AL})}, CountCmp("=", 1),
             (Statement("s1", "A", Guilty("B")),), (Truthful("s1"),), ExactTruthTellers(1)),
    World: ({"A": AT, "B": AL}, frozenset({"B"}), {"x": True}),
    SourceSpan: (1, 2, 3),
    SolveReport: (Verdict.UNIQUE_GUILT, 2, ("B",), ("A",), {"A": AT}, ("B",), ("a warning",)),
    WorldCheck: (False, ("s1 is false",)),
    KnowledgeWorld: (("A", "B"), {"A": AT, "B": AL}, frozenset({"B"}),
                     KnowledgeRows(("A", "B"), frozenset({"B"}), (b"\0\1", b"\0\0")), 1, "knife"),
    KnownFact: (True,),
    DirectGuilt: (),
    PossibleSubset: (frozenset({"A", "B"}),),
    PossibleExact: (frozenset({"B"}),),
    PossibleSizeExcludingSelf: (1,),
    PossibleInnocent: ("B",),
    DidDetectiveDoIt: (),
    DetectivePossiblyGuilty: (),
    SecretAttribute: (),
    Answer: ("A", PossibleInnocent("B"), AnswerValue.TOKEN, "knife"),
    StrategyResult: (frozenset({"B"}), (Answer("A", DirectGuilt(), AnswerValue.NO),), 1),
    Strategy: tuple(getattr(STRATEGIES["solve_mixed"], name) for name in Strategy.__match_args__),
}

# How many leading fields each class requires; the rest have defaults.
REQUIRED = {Statement: 3, Puzzle: 3, World: 2, KnowledgeWorld: 3, Answer: 3, Strategy: 1}


def record_classes():
    """Every record class the package defines, found by walking the subclasses
    of `Record`; private bases such as the connectives' are left out."""
    found, stack = [], Record.__subclasses__()
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("islander.") and not cls.__name__.startswith("_"):
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


RECORD_CLASSES = record_classes()


def test_every_record_class_has_a_sample():
    assert len(RECORD_CLASSES) == 36
    assert set(RECORD_CLASSES) == set(SAMPLES)


@pytest.fixture(params=RECORD_CLASSES, ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_fields_are_the_annotations_in_constructor_order(cls):
    fields = cls.__match_args__
    assert fields == tuple(cls.__dict__.get("__annotations__", ()))
    record = cls(*SAMPLES[cls])
    assert tuple(getattr(record, name) for name in fields) == SAMPLES[cls]
    assert cls(**dict(zip(fields, SAMPLES[cls]))) == record


def test_equality_and_hash_follow_the_class_and_every_field(cls):
    values = SAMPLES[cls]
    record, twin = cls(*values), cls(*values)
    assert record == twin and not record != twin
    try:
        hash(values)
    except TypeError:  # a dict field: unhashable, as the values are
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    for name in cls.__match_args__:
        object.__setattr__(twin, name, object())
        assert record != twin and twin != record
        object.__setattr__(twin, name, getattr(record, name))
    assert record == twin


def test_a_record_never_equals_a_tuple_or_another_class_with_its_fields(cls):
    values = SAMPLES[cls]
    built = cls(*values)
    lookalike = record(type(cls.__name__, (), {
        "__module__": __name__,
        "__annotations__": {name: object for name in cls.__match_args__},
    }))
    for other in (values, list(values), lookalike(*values)):
        assert built != other and other != built
        assert not built == other
    for other_cls in RECORD_CLASSES:
        if other_cls is not cls and other_cls.__match_args__ == cls.__match_args__:
            assert built != other_cls(*values)


def test_positional_match(cls):
    values = SAMPLES[cls]
    # A sequence pattern stops at its first failing item, so each class
    # pattern below is only tried with as many sub-patterns as it has fields.
    match len(values), cls(*values):
        case 0, cls():
            matched = ()
        case 1, cls(first):
            matched = (first,)
        case 2, cls(first, second):
            matched = (first, second)
        case _, cls(first, second, third):
            matched = (first, second, third)
        case _:
            pytest.fail(f"{cls.__name__} did not match its own class pattern")
    assert matched == values[:3]


def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(*SAMPLES[cls])
    for name in cls.__match_args__ + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in cls.__match_args__) == SAMPLES[cls]
    assert not hasattr(record, "not_a_field")


def test_copy_and_pickle_rebuild_an_equal_record(cls):
    record = cls(*SAMPLES[cls])
    for rebuilt in (copy.copy(record), copy.deepcopy(record),
                    pickle.loads(pickle.dumps(record))):
        assert type(rebuilt) is cls and rebuilt == record


def test_repr_is_the_dataclass_text(cls):
    record = cls(*SAMPLES[cls])
    fields = ", ".join(f"{name}={value!r}"
                       for name, value in zip(cls.__match_args__, SAMPLES[cls]))
    assert repr(record) == f"{cls.__qualname__}({fields})"


def test_a_missing_argument_is_a_type_error_naming_the_field(cls):
    values, required = SAMPLES[cls], REQUIRED.get(cls, len(SAMPLES[cls]))
    for given in range(required):
        with pytest.raises(TypeError, match=f"'{cls.__match_args__[given]}'"):
            cls(*values[:given])
    cls(*values[:required])
    with pytest.raises(TypeError):
        cls(*values, None)


def test_a_factory_default_is_fresh_for_each_record(cls):
    values, required = SAMPLES[cls], REQUIRED.get(cls, len(SAMPLES[cls]))
    first, second = cls(*values[:required]), cls(*values[:required])
    assert first == second
    for name in cls.__match_args__[required:]:
        value = getattr(first, name)
        if isinstance(value, collections.abc.Mapping):  # World's and KnowledgeWorld's
            assert not value and value is not getattr(second, name)


def test_unchecked_builds_an_equal_record_without_post_init(cls, monkeypatch):
    if not hasattr(cls, "__post_init__"):
        assert not hasattr(cls, "_unchecked")
        return
    expected = cls(*SAMPLES[cls])

    def refuse(record):
        raise AssertionError("__post_init__ ran")
    monkeypatch.setattr(cls, "__post_init__", refuse)
    record = cls._unchecked(*SAMPLES[cls])
    assert type(record) is cls and record == expected
    assert cls._unchecked(**dict(zip(cls.__match_args__, SAMPLES[cls]))) == expected


@record
class NineFields:
    """More fields than any record of the package has; the last two default."""

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    g: int
    h: int = 8
    i: list = Factory(list)


def test_a_record_may_have_nine_fields():
    values = (1, 2, 3, 4, 5, 6, 7, 8, [9])
    built = NineFields(*values)
    assert tuple(getattr(built, name) for name in NineFields.__match_args__) == values
    assert NineFields(**dict(zip(NineFields.__match_args__, values))) == built
    for given in range(7):
        with pytest.raises(TypeError, match=f"'{NineFields.__match_args__[given]}'"):
            NineFields(*values[:given])
    with pytest.raises(TypeError):
        NineFields(*values, None)
    first, second = NineFields(*values[:7]), NineFields(*values[:7])
    assert first.h == 8 and first.i == [] and first.i is not second.i
    for rebuilt in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert type(rebuilt) is NineFields and rebuilt == built


def test_init_is_named_for_its_record():
    assert Answer.__init__.__qualname__ == "Answer.__init__"
    assert Answer.__init__.__code__.co_filename == "<record Answer>"
    assert KnowledgeWorld._unchecked.__qualname__ == "KnowledgeWorld._unchecked"


def test_importing_the_package_and_its_cli_loads_no_dataclasses():
    """The set-up a user waits for on every CLI run. The child runs without
    `site` (-S), so that only the package's own imports count."""
    src = str(Path(islander.cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import islander, islander.cli;"
         " print('dataclasses' in sys.modules)", src],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == ["False"]
