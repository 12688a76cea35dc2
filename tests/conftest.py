"""Shared test helpers: corpus access, random puzzle generation, and the
independent brute-force oracles the solver and possibility semantics are
checked against."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from importlib import resources
from typing import NamedTuple

import pytest

from islander.dsl import _FINE_RE, _locate, _read
from islander.model import (
    ALL_TYPES,
    And,
    AtMostDistinct,
    Const,
    CountCmp,
    ExactTruthTellers,
    Free,
    Guilty,
    HasType,
    Iff,
    Implies,
    KnowsWhodunit,
    LiesWhenAskedGuilt,
    Not,
    OneOfEach,
    Or,
    Puzzle,
    Statement,
    World,
    free_names,
    knows_whodunit_key,
    knows_whodunit_persons,
)
from islander.solver import check_world, enumerate_worlds


def corpus_text(name: str) -> str:
    return (resources.files("islander") / "corpus" / f"{name}.puz").read_text(encoding="utf-8")


CORPUS_NAMES = (
    "andrew", "ashwin", "ben", "ezra_liars", "ezra_open",
    "jacob", "jonathan", "mike", "nastia", "will",
)


class PlacedToken(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def placed_tokens(text: str) -> list[PlacedToken]:
    """The fine tokens `dsl._read` finds in `text`, each with the line and
    column that `dsl._locate`, the position walk of an error report, gives
    its index."""
    return [PlacedToken(tok.kind, tok.text, *_locate(text, i)[2:])
            for i, tok in enumerate(_read(text, _FINE_RE))]


# ---------------------------------------------------------------------------
# Brute-force oracle for the solver: iterate the whole candidate space with
# plain nested loops and keep what check_world accepts.
# ---------------------------------------------------------------------------

def oracle_world_keys(puzzle: Puzzle) -> set[tuple]:
    names: set[str] = set()
    kw_persons: set[str] = set()
    for formula in puzzle.constraint_formulas():
        names |= free_names(formula)
        kw_persons |= knows_whodunit_persons(formula)

    accepted: set[tuple] = set()
    suspects = puzzle.suspects
    domains = [sorted(puzzle.type_domain[p], key=lambda t: t.value) for p in suspects]
    for types in itertools.product(*domains):
        type_of = dict(zip(suspects, types))
        for r in range(len(suspects) + 1):
            for combo in itertools.combinations(suspects, r):
                guilty = frozenset(combo)
                keys = sorted(names | {knows_whodunit_key(p) for p in kw_persons if p not in guilty})
                for bits in itertools.product((False, True), repeat=len(keys)):
                    world = World(type_of, guilty, dict(zip(keys, bits)))
                    if check_world(puzzle, world).ok:
                        accepted.add(world.key())
    return accepted


def enumerated_world_keys(puzzle: Puzzle) -> set[tuple]:
    keys = set()
    for world in enumerate_worlds(puzzle):
        key = world.key()
        assert key not in keys, "enumeration yielded a duplicate world"
        keys.add(key)
    return keys


def no_recursion(call, *args):
    """`call(*args)`, or a one-line test failure if it raises RecursionError.

    For every call on a formula 1000 or more levels deep: pytest takes
    minutes to report a traceback thousands of frames deep, each frame
    holding a deep formula, so the error is caught here and the test fails
    after the handler, with no traceback."""
    try:
        return call(*args)
    except RecursionError:
        pass
    pytest.fail(f"{call.__qualname__} raised RecursionError", pytrace=False)


def chain_puzzle_text(terms: int, op: str) -> str:
    """A puzzle whose first statement chains `terms` atoms with `op`, cycling
    through three atoms; for `and`/`or` any length >= 3 means the same as 3."""
    atoms = ("guilty(A)", "type(B)=PT", "knows_whodunit(C)")
    chain = f" {op} ".join(atoms[i % 3] for i in range(terms))
    return (
        "puzzle {\n  suspects A, B, C;\n  criminals >= 1;\n"
        f"  statement s1 A: {chain};\n"
        "  statement s2 B: truthful(s1) or guilty(C);\n}\n"
    )


# ---------------------------------------------------------------------------
# Random puzzles for soundness/completeness and property tests
# ---------------------------------------------------------------------------

_FREE_POOL = ("f1", "f2")


def random_formula(rng: random.Random, persons, labels=(), depth: int = 2):
    if depth <= 0 or rng.random() < 0.4:
        kind = rng.randrange(8)
        person = rng.choice(persons)
        if kind == 0:
            return Guilty(person)
        if kind == 1:
            return HasType(person, rng.choice(ALL_TYPES))
        if kind == 2:
            return CountCmp(rng.choice(("=", "<=", ">=")), rng.randrange(len(persons) + 1))
        if kind == 3:
            return Free(rng.choice(_FREE_POOL))
        if kind == 4:
            return Const(rng.random() < 0.5)
        if kind == 5:
            return KnowsWhodunit(person)
        if kind == 6:
            return LiesWhenAskedGuilt(person)
        if labels and rng.random() < 0.7:
            from islander.model import Truthful
            return Truthful(rng.choice(labels))
        return Guilty(person)
    connective = rng.randrange(5)
    left = random_formula(rng, persons, labels, depth - 1)
    if connective == 0:
        return Not(left)
    right = random_formula(rng, persons, labels, depth - 1)
    return (And, Or, Implies, Iff)[connective - 1](left, right)


def random_puzzle(rng: random.Random, max_n: int = 4, max_candidates: int = 20_000) -> Puzzle:
    while True:
        n = rng.randint(1, max_n)
        suspects = tuple("ABCD"[:n])
        type_domain = {}
        for s in suspects:
            size = rng.randint(1, len(ALL_TYPES))
            type_domain[s] = frozenset(rng.sample(ALL_TYPES, size))
        count = CountCmp(rng.choice(("=", "<=", ">=")), rng.randrange(n + 1))

        statements = []
        labels: list[str] = []
        for i in range(rng.randint(0, 4)):
            label = f"s{i}"
            speaker = rng.choice(suspects)
            if rng.random() < 0.1:
                statements.append(Statement(label, speaker, None, text="noise"))
            else:
                body = random_formula(rng, suspects, tuple(labels), depth=2)
                statements.append(Statement(label, speaker, body))
                labels.append(label)
        axioms = tuple(
            random_formula(rng, suspects, tuple(labels), depth=2)
            for _ in range(rng.randint(0, 2))
        )
        cardinality = None
        roll = rng.random()
        if roll < 0.15 and n == 4:
            cardinality = OneOfEach()
        elif roll < 0.3:
            cardinality = ExactTruthTellers(rng.randrange(n + 1))
        elif roll < 0.45:
            cardinality = AtMostDistinct(rng.randint(1, len(ALL_TYPES)))

        puzzle = Puzzle(
            suspects=suspects,
            type_domain=type_domain,
            count=count,
            statements=tuple(statements),
            axioms=axioms,
            type_cardinality=cardinality,
        )

        total = 1
        for s in suspects:
            total *= len(type_domain[s])
        frees: set[str] = set()
        kw: set[str] = set()
        for f in puzzle.constraint_formulas():
            frees |= free_names(f)
            kw |= knows_whodunit_persons(f)
        total *= 2 ** n * 2 ** (len(frees) + len(kw))
        if total <= max_candidates:
            return puzzle


# ---------------------------------------------------------------------------
# Hand-rolled oracle for the liar-only encoding of the stolen-files puzzle:
# every admissibility rule is written out longhand, independent of the
# library, over all 8 x 8 type/guilt assignments.
# ---------------------------------------------------------------------------

def stolen_files_consistent_assignments() -> list:
    """All (types, guilty) assignments passing a longhand re-derivation of the
    constraints in ezra_liars.puz."""
    consistent = []
    for t_a, t_n, t_b in itertools.product(("AL", "RL"), repeat=3):
        for g_a, g_n, g_b in itertools.product((False, True), repeat=3):
            count = sum((g_a, g_n, g_b))
            if count < 1:
                continue
            # Statement truth values in this assignment.
            lies_b = True if t_b == "AL" else (not g_b)
            v_a1 = not g_a          # Andrew: I am innocent
            v_a2 = lies_b           # Andrew: Ben will lie about his guilt
            v_b2 = g_n              # Ben: Neil was involved
            v_n3 = g_b and count == 1  # Neil: Ben did it alone

            # Admissibility, rule by rule. A liar's sentence must be false;
            # a responsible liar first treats their own guilt as false.
            ok = True
            # a1 by Andrew: AL needs it false; RL's substituted form is
            # "not false" = true, which can never be false.
            ok = ok and (t_a == "AL" and not v_a1)
            # a2 has no self-guilt atom: both liar types need it false.
            ok = ok and not v_a2
            # b1 "I am guilty" by Ben: AL needs it false; RL's substituted
            # form is the constant false, always admissible.
            ok = ok and ((t_b == "AL" and not g_b) or t_b == "RL")
            # b2 has no self-guilt atom for Ben.
            ok = ok and not v_b2
            # n1 "I am innocent" by Neil: AL needs it false (Neil guilty);
            # RL can never say it.
            ok = ok and (t_n == "AL" and g_n)
            # n3 has no self-guilt atom for Neil.
            ok = ok and not v_n3
            if ok:
                consistent.append(((t_a, t_n, t_b), (g_a, g_n, g_b)))
    return consistent


# ---------------------------------------------------------------------------
# Strategy runs
# ---------------------------------------------------------------------------

# A crowd on which each registry entry succeeds in each of its modes, whatever
# the seed: (strategy, mode, island, criminals, knowledge density, count public).
SUCCESSFUL_RUNS = (
    ("classify_islands", "robust", "mixed", (1, 3), 0.3, False),
    ("ask_all_about_others", "robust", "mixed", (1, 3), 0.3, False),
    ("count_known", "robust", "mixed", (1, 3), 0.0, True),
    ("count_unknown", "robust", "mixed", (1, 3), 0.0, False),
    ("solve_truthtellers", "robust", "tt", (1, 3), 0.3, False),
    ("solve_liars", "robust", "liars", (1, 3), 0.3, False),
    ("solve_liars", "paper-literal", "liars", (1, 3), 0.0, True),
    ("solve_mixed", "robust", "mixed", (1, 3), 0.3, False),
    ("neil", "robust", "tt", (1, 1), 0.0, True),
    ("neil", "robust", "liars", (1, 1), 0.0, True),
    ("secret_attribute", "robust", "tt", (1, 3), 0.3, False),
)


def count_constructions(monkeypatch, *classes) -> Counter:
    """Count, by class, each object of `classes` built while the test runs,
    however its constructor is reached: the count wraps `__init__`."""
    built: Counter = Counter()
    for cls in classes:
        def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return built
