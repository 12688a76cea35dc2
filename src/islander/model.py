"""Core domain model: speaker types, formulas, statements, puzzles and worlds.

A puzzle fixes a roster of suspects, a per-suspect set of allowed speaker
types, a constraint on how many suspects are guilty, a list of labelled
statements, and extra axioms. A hand-built puzzle validates itself when
built, raising PuzzleError; the DSL parser checks a parsed one as it reads
it, with source spans. No later layer checks a puzzle again. A world is one
complete candidate resolution: a type for every suspect, a guilty set, and
values for any free atoms.
Everything here is immutable and side-effect free; the solver enumerates
worlds and the semantics module decides which statements a speaker of a
given type could actually utter.

`SpeakerType` is the one table of the paper's rule: each type's island and
whether it is partial, answering the guilt question as if innocent.
`lies_when_asked_guilt`, admissibility, spoken answers and the island type
sets are all derived from those two fields.
"""

from __future__ import annotations

import enum
import re
import sys
from functools import cached_property
from operator import attrgetter
from types import CellType, FunctionType
from typing import Callable, Iterator, Mapping, Optional, Union


class Island(enum.Enum):
    TRUTH_TELLERS = "truthtellers"
    LIARS = "liars"


class SpeakerType(enum.Enum):
    """The four speaker types, one row each: (code, island, partial).

    `island` says whether the type tells the truth or lies; `partial` marks
    the paper's one deviation, a type that answers "Are you guilty?" as if
    innocent. Every rule in the package is derived from these two fields.
    The code is the member's value, as written in `.puz` files and JSON.
    """

    island: Island
    partial: bool

    ABSOLUTE_TRUTH_TELLER = ("AT", Island.TRUTH_TELLERS, False)
    PARTIAL_TRUTH_TELLER = ("PT", Island.TRUTH_TELLERS, True)
    ABSOLUTE_LIAR = ("AL", Island.LIARS, False)
    RESPONSIBLE_LIAR = ("RL", Island.LIARS, True)

    def __new__(cls, code: str, island: Island, partial: bool) -> "SpeakerType":
        member = object.__new__(cls)
        member._value_ = code
        member.island = island
        member.partial = partial
        return member

    def __repr__(self) -> str:  # keeps solver reports and test diffs short
        return self.value


ALL_TYPES: tuple[SpeakerType, ...] = tuple(SpeakerType)

TRUTH_TELLER_TYPES = frozenset(t for t in ALL_TYPES if t.island is Island.TRUTH_TELLERS)
LIAR_TYPES = frozenset(ALL_TYPES) - TRUTH_TELLER_TYPES


class UnknownReference(ValueError):
    """A formula mentioned a person, label or atom the puzzle does not define."""


class PuzzleError(ValueError):
    """A puzzle violates a structural invariant (duplicate names, bad refs...)."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class Factory:
    """A field default made anew for each record by calling `make()`."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[], object]) -> None:
        self.make = make


def _init_templates() -> tuple[Callable[..., None], ...]:
    """One `__init__` per number of fields, setting the fields in order
    through the closure cells s0, s1, ...; `_record_init` gives each record
    class a copy with its own parameter names and cells."""
    s0 = s1 = s2 = s3 = s4 = s5 = s6 = None

    def init0(self):
        pass

    def init1(self, a0):
        s0(self, a0)

    def init2(self, a0, a1):
        s0(self, a0)
        s1(self, a1)

    def init3(self, a0, a1, a2):
        s0(self, a0)
        s1(self, a1)
        s2(self, a2)

    def init4(self, a0, a1, a2, a3):
        s0(self, a0)
        s1(self, a1)
        s2(self, a2)
        s3(self, a3)

    def init5(self, a0, a1, a2, a3, a4):
        s0(self, a0)
        s1(self, a1)
        s2(self, a2)
        s3(self, a3)
        s4(self, a4)

    def init6(self, a0, a1, a2, a3, a4, a5):
        s0(self, a0)
        s1(self, a1)
        s2(self, a2)
        s3(self, a3)
        s4(self, a4)
        s5(self, a5)

    def init7(self, a0, a1, a2, a3, a4, a5, a6):
        s0(self, a0)
        s1(self, a1)
        s2(self, a2)
        s3(self, a3)
        s4(self, a4)
        s5(self, a5)
        s6(self, a6)

    return init0, init1, init2, init3, init4, init5, init6, init7


_INIT_TEMPLATES = _init_templates()


def _record_init(cls: type, fields: tuple[str, ...],
                 defaults: dict[str, object]) -> Callable[..., None]:
    """`cls.__init__`: the template for len(fields), renamed so that its
    parameters are the field names and its cells hold the setters of the
    fields' slots. Python itself then binds positional and keyword
    arguments, fills in defaults and names a missing field; no source is
    generated. For a class with `__post_init__`, `cls.__init__` calls it
    after the fields are set, and `cls._unchecked` builds a record with the
    plain field setting alone."""
    if len(fields) >= len(_INIT_TEMPLATES):
        raise TypeError(f"{cls.__name__}: a record has at most "
                        f"{len(_INIT_TEMPLATES) - 1} fields")
    setters = {}
    for i, name in enumerate(fields):
        set_slot = cls.__dict__[name].__set__
        default = defaults.get(name)
        if isinstance(default, Factory):  # the Factory itself stands for "not given"
            set_slot = _fresh_setter(set_slot, default)
        setters[f"s{i}"] = set_slot
    template = _INIT_TEMPLATES[len(fields)]
    code = template.__code__.replace(co_name="__init__", co_varnames=("self", *fields))
    init = FunctionType(code, template.__globals__, "__init__",
                        tuple(defaults.values()) or None,
                        tuple(CellType(setters[cell]) for cell in code.co_freevars))
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    if not hasattr(cls, "__post_init__"):
        return init

    def unchecked(cls: type, *args, **kwargs) -> object:
        self = object.__new__(cls)
        init(self, *args, **kwargs)
        return self
    cls._unchecked = classmethod(unchecked)

    def init_then_post_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.__post_init__()
    return init_then_post_init


def _fresh_setter(set_slot: Callable[[object, object], None],
                  factory: Factory) -> Callable[[object, object], None]:
    def set_fresh(record: object, value: object) -> None:
        set_slot(record, factory.make() if value is factory else value)
    return set_fresh


def _no_values(record: object) -> tuple:
    return ()


class Record:
    """Base of the package's immutable records, which `record` builds: `==`
    and `hash` over the class and the fields, a `Name(field=value, ...)`
    repr, fields that cannot be assigned or deleted (`__post_init__` may
    set one with `object.__setattr__`), and `copy` and `pickle` support."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        cls = type(self)
        if type(other) is not cls:
            return NotImplemented
        return cls._values(self) == cls._values(other)

    def __hash__(self) -> int:
        return hash(type(self)._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        """Copy and pickle through `__init__`: the default way sets each
        slot with `setattr`, which a record refuses."""
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def record(cls: type) -> type:
    """Make `cls` a frozen `Record`, as a class decorator. Its fields are its
    annotations, in constructor order, each optionally with a default (a
    `Factory` for a fresh one per instance). The class is built again with
    `Record` after its bases and one slot per field, and gets
    `__match_args__` (the field tuple, for positional `match`), `_values`
    (the getter of the field values that `==` and `hash` read) and an
    `__init__` that takes the fields positionally or by keyword, then calls
    `__post_init__` if the class has one; such a class also gets
    `_unchecked`, the constructor without it, for a caller that has made
    its checks already (the DSL parser). A class with a `cached_property`
    also gets a `__dict__` to hold its caches. Built this way, a record
    class is a plain `type`: with a metaclass, every `isinstance` test
    against it that fails would take the slow `__instancecheck__` path."""
    name, bases = cls.__name__, cls.__bases__
    if any(getattr(base, "__match_args__", ()) for base in bases):
        raise TypeError(f"{name}: a record's base may not have fields")
    namespace = {key: value for key, value in cls.__dict__.items()
                 if key not in ("__dict__", "__weakref__")}
    fields = tuple(namespace.get("__annotations__", ()))
    has_default = [f in namespace for f in fields]
    if has_default != sorted(has_default):
        raise TypeError(f"{name}: a field without a default follows one with a default")
    defaults = {f: namespace.pop(f) for f in fields if f in namespace}
    namespace["__slots__"] = fields + ("__dict__",) * any(
        isinstance(value, cached_property) for value in namespace.values())
    namespace["__match_args__"] = fields
    # One field gives its value, more a tuple of them: equal either way.
    namespace["_values"] = attrgetter(*fields) if fields else _no_values
    cls = type(name, tuple(base for base in bases if base is not object) + (Record,), namespace)
    cls.__init__ = _record_init(cls, fields, defaults)
    return cls


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------

@record
class Guilty:
    person: str


@record
class HasType:
    person: str
    speaker_type: SpeakerType


@record
class FromIsland:
    person: str
    island: Island


@record
class CountCmp:
    """Compare the number of guilty suspects with a constant. op is =, <= or >=."""

    op: str
    k: int


@record
class Truthful:
    """True iff the referenced statement's body holds in the same world.

    The referenced body is evaluated at face value: no speaker substitution
    is applied even when the referenced speaker is a partial type.
    """

    label: str


@record
class LiesWhenAskedGuilt:
    person: str


@record
class KnowsWhodunit:
    person: str


@record
class Free:
    """An uninterpreted boolean ("I like potatoes"): no fixed truth value."""

    name: str


@record
class Const:
    value: bool


class _Connective:
    """Shared base of Not, And, Or, Implies and Iff, before `Record` in
    their bases: `==`, `hash` and `repr` walk the tree in pre-order over an
    explicit stack, so depth never reaches the Python stack. `repr` prints
    the record text, as `Record.__repr__` would with unbounded recursion."""

    __slots__ = ()

    def _key(self) -> tuple:
        """The pre-order walk with each connective replaced by its class.
        Every class has a fixed arity, so the sequence determines the tree."""
        return tuple(type(node) if isinstance(node, _Connective) else node
                     for node in iter_subformulas(self))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        parts: list[str] = []
        stack: list[object] = [self]  # nodes still to print, and the text between them
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is str:
                parts.append(node)
            elif kind is Not:
                parts.append("Not(operand=")
                stack += (")", node.operand)
            elif kind in _BINARY_CONNECTIVES:
                parts.append(f"{kind.__qualname__}(left=")
                stack += (")", node.right, ", right=", node.left)
            else:
                parts.append(repr(node))
        return "".join(parts)


@record
class Not(_Connective):
    operand: "Formula"


@record
class And(_Connective):
    left: "Formula"
    right: "Formula"


@record
class Or(_Connective):
    left: "Formula"
    right: "Formula"


@record
class Implies(_Connective):
    left: "Formula"
    right: "Formula"


@record
class Iff(_Connective):
    left: "Formula"
    right: "Formula"


Formula = Union[
    Guilty, HasType, FromIsland, CountCmp, Truthful, LiesWhenAskedGuilt,
    KnowsWhodunit, Free, Const, Not, And, Or, Implies, Iff,
]

TRUE = Const(True)
FALSE = Const(False)

COUNT_OPS = ("=", "<=", ">=")


_BINARY_CONNECTIVES = frozenset({And, Or, Implies, Iff})
_PERSON_ATOMS = (Guilty, HasType, FromIsland, LiesWhenAskedGuilt, KnowsWhodunit)


def iter_subformulas(formula: Formula) -> Iterator[Formula]:
    """Pre-order walk over a formula tree, left operand first, over an
    explicit stack: its depth never touches the Python stack."""
    stack = [formula]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        yield node
        if type(node) in _BINARY_CONNECTIVES:
            push(node.right)
            push(node.left)
        elif type(node) is Not:
            push(node.operand)


def free_names(formula: Formula) -> set[str]:
    return {node.name for node in iter_subformulas(formula) if isinstance(node, Free)}


def knows_whodunit_persons(formula: Formula) -> set[str]:
    return {node.person for node in iter_subformulas(formula) if isinstance(node, KnowsWhodunit)}


def map_atoms(formula: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """Rebuild `formula` with every atom replaced by fn(atom), post-order over
    an explicit stack; fn should be pure, as its call order is unspecified. A
    subtree whose atoms fn all returns unchanged is shared, not copied."""
    done: list[Formula] = []
    # Reversed, a left-first pre-order meets each node after its operands,
    # with the left operand's result on top of the right one's.
    for node in reversed(list(iter_subformulas(formula))):
        if type(node) is Not:
            operand = done.pop()
            done.append(node if operand is node.operand else Not(operand))
        elif type(node) in _BINARY_CONNECTIVES:
            left, right = done.pop(), done.pop()
            done.append(node if left is node.left and right is node.right
                        else type(node)(left, right))
        else:
            done.append(fn(node))
    return done.pop()


def replace_person(formula: Formula, old: str, new: str) -> Formula:
    """Rename every person reference `old` to `new` (used by the DSL forall sugar)."""
    return map_atoms(formula, lambda atom: type(atom)(*(
        new if name == "person" else getattr(atom, name) for name in atom.__match_args__))
        if isinstance(atom, _PERSON_ATOMS) and atom.person == old else atom)


def substitute_self_guilt(formula: Formula, speaker: str, value: bool) -> Formula:
    """Replace every Guilty(speaker) atom with the constant `value`.

    All other atoms, including Truthful references and the speaker's other
    atoms, are left untouched. Idempotent, and distributes over connectives.
    """
    return map_atoms(formula, lambda atom: Const(value)
                     if isinstance(atom, Guilty) and atom.person == speaker else atom)


# ---------------------------------------------------------------------------
# Statements, puzzles, worlds
# ---------------------------------------------------------------------------

@record
class Statement:
    """One labelled sentence by one speaker.

    `body is None` marks an unmodeled sentence: it contributes no constraint
    and only surfaces as a warning in solve reports; `text` keeps its wording.
    """

    label: str
    speaker: str
    body: Optional[Formula]
    text: Optional[str] = None

    @property
    def is_unmodeled(self) -> bool:
        return self.body is None


@record
class OneOfEach:
    """Each of the four speaker types occurs exactly once."""


@record
class ExactTruthTellers:
    """Exactly n suspects are from the truth-tellers' island."""

    n: int


@record
class AtMostDistinct:
    """At most n distinct speaker types occur among the suspects."""

    n: int


TypeCardinality = Union[OneOfEach, ExactTruthTellers, AtMostDistinct]


def knows_whodunit_key(person: str) -> str:
    """Reserved free-value key for an innocent person's whodunit knowledge.

    The '@' prefix keeps it disjoint from user free-atom names, which a
    puzzle restricts to identifiers.
    """
    return f"@knows_whodunit:{person}"


# The DSL's identifier: what a suspect, a statement label or a free atom's
# name must be for the puzzle to be written as text and read back.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_name(name: object) -> bool:
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def _writable(k: int) -> bool:
    """Whether str(k) works: k is no longer than the interpreter's int-to-str
    limit. A puzzle holds only integers that its text can."""
    try:
        str(k)
    except ValueError:
        return False
    return True


def _too_long(what: str) -> PuzzleError:
    return PuzzleError(f"{what} has more than {sys.get_int_max_str_digits()} digits")


@record
class Puzzle:
    suspects: tuple[str, ...]
    type_domain: Mapping[str, frozenset[SpeakerType]]
    count: CountCmp
    statements: tuple[Statement, ...] = ()
    axioms: tuple[Formula, ...] = ()
    type_cardinality: Optional[TypeCardinality] = None

    def __post_init__(self) -> None:  # valid when built
        self.validate()

    def statement_table(self) -> dict[str, Statement]:
        return {s.label: s for s in self.statements}

    def constraint_formulas(self) -> tuple[Formula, ...]:
        """All formulas that constrain worlds: modeled bodies plus axioms."""
        bodies = tuple(s.body for s in self.statements if s.body is not None)
        return bodies + tuple(self.axioms)

    def validate(self) -> None:
        """Raise PuzzleError on any structural violation."""
        from .dsl import KEYWORDS  # dsl imports this module

        if not self.suspects:
            raise PuzzleError("a puzzle needs at least one suspect")
        if len(set(self.suspects)) != len(self.suspects):
            raise PuzzleError("duplicate suspect names")
        for person in self.suspects:
            if not _is_name(person):
                raise PuzzleError(f"suspect name '{person}' is not an identifier")
            if person in KEYWORDS:
                raise PuzzleError(f"suspect name '{person}' is a reserved word")
        if set(self.type_domain) != set(self.suspects):
            raise PuzzleError("type domain must cover exactly the suspects")
        for person, domain in self.type_domain.items():
            if not domain:
                raise PuzzleError(f"empty type domain for suspect '{person}'")
        if self.count.op not in COUNT_OPS:
            raise PuzzleError(f"bad count comparison op '{self.count.op}'")
        if self.count.k < 0:
            raise PuzzleError("criminal count bound must be non-negative")
        if not _writable(self.count.k):
            raise _too_long("criminal count bound")

        labels_seen: set[str] = set()
        modeled = {s.label for s in self.statements if not s.is_unmodeled}
        for stmt in self.statements:
            if not _is_name(stmt.label):
                raise PuzzleError(f"statement label '{stmt.label}' is not an identifier")
            if stmt.label in KEYWORDS:
                raise PuzzleError(f"statement label '{stmt.label}' is a reserved word")
            if stmt.label in labels_seen:
                raise PuzzleError(f"duplicate statement label '{stmt.label}'")
            if stmt.speaker not in self.type_domain:
                raise PuzzleError(
                    f"statement '{stmt.label}' has unknown speaker '{stmt.speaker}'"
                )
            if stmt.body is not None:
                self._check_formula_refs(stmt.body, labels_seen, modeled,
                                         where=f"statement '{stmt.label}'")
            elif stmt.text is not None and "\n" in stmt.text:  # no string literal holds one
                raise PuzzleError(f"statement '{stmt.label}' has a newline in its text")
            labels_seen.add(stmt.label)

        for i, axiom in enumerate(self.axioms):
            self._check_formula_refs(axiom, modeled, modeled, where=f"axiom {i + 1}")

        card = self.type_cardinality
        if isinstance(card, OneOfEach) and len(self.suspects) != len(ALL_TYPES):
            raise PuzzleError("one-of-each cardinality needs exactly four suspects")
        if isinstance(card, ExactTruthTellers) and not 0 <= card.n <= len(self.suspects):
            raise PuzzleError("truth-teller count out of range")
        if isinstance(card, AtMostDistinct):
            if card.n < 1:
                raise PuzzleError("distinct-type bound must be at least 1")
            if not _writable(card.n):
                raise _too_long("distinct-type bound")

    def _check_formula_refs(self, formula: Formula, earlier_labels: set[str],
                            modeled: set[str], where: str) -> None:
        """One walk over `formula`. An unknown person is reported first, then
        a bad truthful() label, then a bad count op, then a count bound too
        long to write or negative, then a free atom name that is not an
        identifier, each the first met in pre-order."""
        bad_label: Optional[str] = None
        bad_op: Optional[str] = None
        bad_bound: Optional[int] = None
        bad_free: Optional[str] = None
        for node in iter_subformulas(formula):
            if isinstance(node, _PERSON_ATOMS):
                if node.person not in self.type_domain:
                    raise PuzzleError(f"{where} references unknown person '{node.person}'")
            elif isinstance(node, Truthful):
                if bad_label is None and (node.label not in earlier_labels
                                          or node.label not in modeled):
                    bad_label = node.label
            elif isinstance(node, CountCmp):
                if bad_op is None and node.op not in COUNT_OPS:
                    bad_op = node.op
                if bad_bound is None and (node.k < 0 or not _writable(node.k)):
                    bad_bound = node.k
            elif isinstance(node, Free):
                if bad_free is None and not _is_name(node.name):
                    bad_free = node.name
        if bad_label is not None:
            if bad_label not in earlier_labels:
                raise PuzzleError(
                    f"{where} has a truthful() reference to '{bad_label}', which is not "
                    "an earlier modeled statement"
                )
            raise PuzzleError(f"{where} references unmodeled statement '{bad_label}'")
        if bad_op is not None:
            raise PuzzleError(f"{where} uses bad count comparison op '{bad_op}'")
        if bad_bound is not None:
            if bad_bound < 0:
                raise PuzzleError(f"{where} has a negative count bound")
            raise _too_long(f"{where} has a count bound that")
        if bad_free is not None:
            raise PuzzleError(f"{where} has free atom name '{bad_free}', which is not an "
                              "identifier")


@record
class World:
    """One candidate resolution of a puzzle. Treat as immutable once built."""

    type_of: Mapping[str, SpeakerType]
    guilty: frozenset[str]
    free_values: Mapping[str, bool] = Factory(dict)

    def key(self) -> tuple:
        """Canonical hashable identity, for set comparisons in tests."""
        return (
            tuple(sorted((p, t.value) for p, t in self.type_of.items())),
            tuple(sorted(self.guilty)),
            tuple(sorted(self.free_values.items())),
        )

    def knows_whodunit(self, person: str) -> bool:
        """Guilty people know the crime's resolution; for the innocent it is a
        free boolean stored under a reserved key."""
        if person in self.guilty:
            return True
        key = knows_whodunit_key(person)
        if key not in self.free_values:
            raise UnknownReference(f"no whodunit-knowledge value for '{person}'")
        return self.free_values[key]


def lies_when_asked_guilt(world: World, person: str) -> bool:
    """Would this person lie if asked point-blank whether they are guilty?

    A partial type answers as if innocent, which is a lie exactly when
    guilty; a liar then says the opposite of that answer.
    """
    if person not in world.type_of:
        raise UnknownReference(f"unknown person '{person}'")
    t = world.type_of[person]
    return (t.island is Island.LIARS) is not (t.partial and person in world.guilty)


# Marks an evaluation frame that waits for its left operand.
_WAITING = object()


def eval_formula(
    world: World,
    formula: Formula,
    statements: Optional[Mapping[str, Statement]] = None,
) -> bool:
    """Classical two-valued evaluation of a formula in a world.

    Truthful(label) evaluates the referenced statement's body in the same
    world, at face value; a body that reaches its own label again raises
    UnknownReference. KnowsWhodunit is true for the guilty by construction
    and reads a free value for the innocent.

    The walk runs over an explicit stack, so any depth works. Operands are
    evaluated left first and short-circuit as Python's `and` and `or` do:
    `and` skips its right operand after a false left one, `or` and `->`
    after a true one, `<->` never; so a bad reference in a skipped operand
    raises nothing.
    """
    # Each pending frame is a node waiting for the value of its left operand
    # (`left` _WAITING), for that of its right one (`left` the left value,
    # which only `<->` reads), or for that of its only operand or body.
    pending: list[tuple[Formula, object]] = []
    push, pop = pending.append, pending.pop
    active: set[str] = set()  # labels whose bodies are being evaluated
    node = formula
    while True:
        # Down the left operands to an atom.
        while True:
            kind = type(node)
            if kind in _BINARY_CONNECTIVES:
                push((node, _WAITING))
                node = node.left
            elif kind is Not:
                push((node, None))
                node = node.operand
            elif kind is Truthful:
                label = node.label
                if statements is None or label not in statements:
                    raise UnknownReference(f"unknown statement label '{label}'")
                body = statements[label].body
                if body is None:
                    raise UnknownReference(f"statement '{label}' is unmodeled")
                if label in active:
                    raise UnknownReference(f"statement '{label}' refers to itself")
                active.add(label)
                push((node, None))
                node = body
            else:
                value = _atom_value(world, node)
                break
        # Up to the first node whose right operand is still due.
        while pending:
            parent, left = pop()
            kind = type(parent)
            if left is _WAITING:
                # `a and b` is a when a is false, `a or b` a when a is true,
                # and `a -> b` true when a is false; else b decides.
                if kind is And:
                    if not value:
                        continue
                elif kind is Or:
                    if value:
                        continue
                elif kind is Implies:
                    if not value:
                        value = True
                        continue
                else:  # `<->` keeps a's value until b's is known
                    push((parent, value))
                node = parent.right
                break
            if kind is Not:
                value = not value
            elif kind is Iff:
                value = left == value
            else:
                active.discard(parent.label)
        else:
            return value


def _atom_value(world: World, formula: Formula) -> bool:
    """The value of a formula that is neither a connective nor `truthful()`."""
    match formula:
        case Const(value):
            return value
        case Guilty(person):
            _require_person(world, person)
            return person in world.guilty
        case HasType(person, speaker_type):
            _require_person(world, person)
            return world.type_of[person] is speaker_type
        case FromIsland(person, island):
            _require_person(world, person)
            return world.type_of[person].island is island
        case CountCmp(op, k):
            n = len(world.guilty)
            if op == "=":
                return n == k
            if op == "<=":
                return n <= k
            if op == ">=":
                return n >= k
            raise UnknownReference(f"bad count comparison op '{op}'")
        case LiesWhenAskedGuilt(person):
            return lies_when_asked_guilt(world, person)
        case KnowsWhodunit(person):
            _require_person(world, person)
            return world.knows_whodunit(person)
        case Free(name):
            if name not in world.free_values:
                raise UnknownReference(f"unknown free atom '{name}'")
            return world.free_values[name]
        case _:
            raise UnknownReference(f"unknown formula node {formula!r}")


def _require_person(world: World, person: str) -> None:
    if person not in world.type_of:
        raise UnknownReference(f"unknown person '{person}'")
