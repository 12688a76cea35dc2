"""Seeded input generators for the islander benchmark.

Every generator is a pure function of its seed: the same seed gives the same
puzzle texts and the same simulate sweep, byte for byte. The texts are
written here in `.puz` syntax, independently of the package's own
serializer, so a change to the program never changes its inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

TYPES = ("AT", "PT", "AL", "RL")
ISLAND_TYPES = {"truthtellers": ("AT", "PT"), "liars": ("AL", "RL")}


@dataclass(frozen=True)
class PuzzleInput:
    """One generated `.puz` text and what the generator knows about it."""

    name: str
    text: str
    suspects: int
    statements: int
    candidates: int  # nominal search space: types x guilt sets x free atoms
    defect: Optional[str] = None  # "deep" or "long": a known parser defect probe


@dataclass(frozen=True)
class FormulaGen:
    """Random formulas over a fixed roster, as `.puz` text."""

    rng: random.Random
    persons: tuple[str, ...]
    atoms: tuple[str, ...] = ()  # free(...) / knows_whodunit(...) atoms in play

    def atom(self, labels: list[str]) -> str:
        r = self.rng
        p = r.choice(self.persons)
        roll = r.random()
        if roll < 0.34:
            return f"guilty({p})"
        if roll < 0.50:
            return f"type({p})={r.choice(TYPES)}"
        if roll < 0.60:
            return f"island({p})={r.choice(('truthtellers', 'liars'))}"
        if roll < 0.68:
            return f"count {r.choice(('=', '<=', '>='))} {r.randint(0, min(3, len(self.persons)))}"
        if roll < 0.80 and labels:
            return f"truthful({r.choice(labels)})"
        if roll < 0.86:
            return f"lies_about_guilt({p})"
        if roll < 0.96 and self.atoms:
            return r.choice(self.atoms)
        return f"guilty({p})"

    def tree(self, labels: list[str], depth: int) -> str:
        """A full binary tree of 2^depth atoms: random content, fixed size."""
        if depth == 0:
            return self.atom(labels)
        op = self.rng.choice(("and", "or", "->", "<->"))
        left = self.tree(labels, depth - 1)
        if self.rng.random() < 0.2:
            left = f"not {left}" if depth == 1 else f"not ({left})"
        return f"({left}) {op} ({self.tree(labels, depth - 1)})"

    def chain(self, labels: list[str], terms: int) -> str:
        """A flat `and`/`or` chain, the shape a parser loop (not recursion) handles."""
        op = self.rng.choice((" and ", " or "))
        return op.join(self.atom(labels) for _ in range(terms))


# ---------------------------------------------------------------------------
# solve_large: 5-6 suspect puzzles with 2^12..2^14 candidate worlds
# ---------------------------------------------------------------------------

# (suspects, full four-type domains, free/whodunit atoms, tight, typecount).
# The candidate count is 2^(2*suspects + full + atoms). The shapes, count and
# type-cardinality constraints are the same for every seed, so seeds vary
# names and atoms but not the size profile or the share of the space pruned
# before evaluation. Tight puzzles have more statements and few surviving
# worlds; loose ones have few statements and up to thousands of survivors.
# Each shape appears twice in a pool, so the shapes fall into three tiers of
# similar solve times (about 40, 70 and 220 ms today): the median lies inside
# the middle tier and the 90th percentile inside the top one, never in a gap
# between two tiers where a little seed-to-seed variation would move it far.
SOLVE_SHAPES = (
    # Small: 6 puzzles.
    (5, 1, 1, False, "exactly"), (5, 2, 0, True, "distinct"), (5, 3, 0, False, "exactly"),
    # Middle: 10 puzzles.
    (5, 2, 0, False, None), (5, 2, 0, True, None), (5, 2, 1, True, None),
    (6, 1, 0, True, None), (5, 3, 1, False, "exactly"),
    # Top: 4 puzzles. Tight ones: their cost varies least with the seed, and
    # the 90th percentile falls between the second and third of these four.
    (6, 1, 1, True, None), (6, 2, 0, True, None),
)

# Statement templates: the shape of every body is fixed, the seed picks the
# persons, types, labels and dimension atoms. {s} is the speaker, {p} and {q}
# other persons, {t} a type, {i} an island, {b} an earlier statement without
# truthful() and {x} a free/whodunit atom (or a guilt atom when the puzzle
# has none).
TIGHT_TEMPLATES = (
    "not guilty({s})",
    "guilty({p}) -> island({q})={i}",
    "type({p})={t} or guilty({q})",
    "truthful({b}) <-> not guilty({p})",
    "{x} or (guilty({p}) and lies_about_guilt({q}))",
    "not (guilty({p}) and guilty({q})) and count <= 2",
)
LOOSE_TEMPLATES = (
    "guilty({p}) or guilty({q}) or {x}",
    "island({p})={i} or not guilty({s}) or truthful({b})",
    "type({p})={t} or count >= 1",
)


def _solve_puzzle(rng: random.Random, name: str, n: int, full: int, n_atoms: int,
                  tight: bool, typecount: Optional[str]) -> PuzzleInput:
    # Everything that sets how much of the space survives each step is a
    # function of the shape: which suspects have full domains, which island
    # the others are restricted to, the kind of each atom, and the opening
    # "gate" statements. The seed draws the rest of the statements.
    persons = tuple(f"S{i}" for i in range(1, n + 1))
    atoms = tuple(
        f'free("f{i}")' if i % 2 == 0 else f"knows_whodunit({persons[-1 - i]})"
        for i in range(n_atoms)
    )
    lines = ["puzzle {", f"  suspects {', '.join(persons)};"]
    restricted = persons[full:]
    for j, p in enumerate(restricted):
        lines.append(f"  types {p}: {{{', '.join(ISLAND_TYPES[('truthtellers', 'liars')[j % 2]])}}};")
    lines.append("  criminals in {1, 2};" if tight else "  criminals >= 1;")
    if typecount == "exactly":
        lines.append(f"  typecount exactly {n // 2} truthtellers;")
    elif typecount == "distinct":
        lines.append("  typecount at_most_distinct 3;")

    gates = 2 if tight else 1
    for g in range(gates):
        lines.append(f"  statement s{g} {persons[g]}: not guilty({persons[g]});")
    templates = TIGHT_TEMPLATES if tight else LOOSE_TEMPLATES
    n_statements = n + 2 if tight else 3
    unused = list(atoms)
    labels = [f"s{g}" for g in range(gates)]
    for i in range(gates, n_statements):
        speaker = rng.choice(persons)
        p, q = rng.sample([x for x in persons if x != speaker], 2)
        template = templates[i % len(templates)]
        x = f"guilty({p})"
        if "{x}" in template and (unused or atoms):
            x = unused.pop() if unused else rng.choice(atoms)
        body = template.format(
            s=speaker, p=p, q=q, t=rng.choice(TYPES),
            i=rng.choice(("truthtellers", "liars")), b=rng.choice(labels), x=x,
        )
        lines.append(f"  statement s{i} {speaker}: {body};")
        if "truthful" not in body:
            labels.append(f"s{i}")
    # Every free/whodunit atom must occur somewhere, or it is no dimension.
    for atom in unused:
        lines.append(f"  axiom {atom} or count >= 1;")
    lines.append("}")
    return PuzzleInput(name, "\n".join(lines) + "\n", n, n_statements,
                       2 ** (2 * n + full + n_atoms))


SOLVE_ROUNDS = 2  # puzzles per shape: 20 in all, about 1.8 s a pass today


def solve_pool(seed: int) -> list[PuzzleInput]:
    rng = random.Random(f"solve_large:{seed}")
    return [
        _solve_puzzle(rng, f"large{r}-{i:02d}", *shape)
        for r in range(SOLVE_ROUNDS)
        for i, shape in enumerate(SOLVE_SHAPES)
    ]


# ---------------------------------------------------------------------------
# dsl_roundtrip: big texts with long chains and a fixed share of deep ones
# ---------------------------------------------------------------------------

NAME_STEMS = ("Ada", "Bo", "Cy", "Dee", "Eli", "Fay", "Gus", "Hal", "Ivy", "Jo")

# (kind, defect size, statements) of each text: eight ordinary texts and
# four known-defect probes, each with one statement the parser should accept
# but that raises RecursionError today (150 nested parentheses or 500
# chained terms suffice): parentheses nested 250 and 400 deep, and `and`/`or`
# chains of 1000 and 3000 terms. An iterative parser should accept them. The
# three largest ordinary texts have the same length, so the 90th percentile,
# which falls among them, does not hang on one text. Kinds and sizes are
# fixed by position, so every seed's pool has the same profile.
DSL_TEXTS = (
    ("plain", 0, 100), ("plain", 0, 110), ("plain", 0, 120), ("plain", 0, 130),
    ("plain", 0, 150), ("plain", 0, 150), ("plain", 0, 150), ("plain", 0, 110),
    ("deep", 250, 120), ("deep", 400, 130), ("long", 1000, 140), ("long", 3000, 150),
)


def _dsl_text(rng: random.Random, name: str, kind: str, size: int, n_statements: int,
              index: int) -> PuzzleInput:
    # The roster size is spread evenly by position (10-40 suspects), so every
    # seed's pool has the same size profile.
    n = 10 + (index * 13) % 31
    persons = tuple(f"{rng.choice(NAME_STEMS)}{i}" for i in range(n))
    gen = FormulaGen(rng, persons, tuple(f'free("a{i}")' for i in range(4))
                     + tuple(f"knows_whodunit({p})" for p in persons[:3]))
    lines = [f"# generated puzzle {name}", "puzzle {",
             f"  suspects {', '.join(persons)};",
             f"  island {rng.choice(('truthtellers', 'liars', 'mixed'))};"]
    for p in rng.sample(persons, n // 3):
        lines.append(f"  types {p}: {{{', '.join(sorted(rng.sample(TYPES, rng.randint(1, 4)), key=TYPES.index))}}};")
    lines.append("  criminals in {1, 2, 3};" if rng.random() < 0.5 else "  criminals >= 1;")
    lines.append(f"  typecount at_most_distinct {rng.randint(2, 4)};")

    # The kind and size of each statement follow from its position, so a
    # text's length, and with it the op's cost, hardly varies with the seed.
    labels: list[str] = []
    # A probe's defect is its last statement, so the parser reads the whole
    # text before it fails and the probe costs the same for every seed.
    defect_at = n_statements - 1 if kind != "plain" else -1
    for i in range(n_statements):
        label = f"st{i}"
        speaker = rng.choice(persons)
        if i == defect_at and kind == "deep":
            body = "(" * size + gen.atom(labels) + ")" * size
        elif i == defect_at:
            body = gen.chain(labels, size)
        elif i % 20 == 7:
            lines.append(f'  statement {label} {speaker}: unmodeled "said \\"{label}\\" aloud";')
            continue
        elif i % 10 == 1:
            body = gen.chain(labels, 20 + (i * 37) % 181)
        elif i % 10 == 3:
            depth = 10 + i % 31
            body = "not " * (i % 3) + "(" * depth + gen.tree(labels, 2) + ")" * depth
        else:
            body = gen.tree(labels, 4 if i % 10 == 8 else 2)
        lines.append(f"  statement {label} {speaker}: {body};")
        labels.append(label)
    for _ in range(4):
        lines.append(f"  axiom {gen.tree(labels, 3)};")
    lines.append("  axiom forall X: guilty(X) -> knows_whodunit(X);")
    lines.append("}")
    return PuzzleInput(name, "\n".join(lines) + "\n", n, n_statements, 0,
                       None if kind == "plain" else kind)


def dsl_pool(seed: int) -> list[PuzzleInput]:
    rng = random.Random(f"dsl_roundtrip:{seed}")
    return [_dsl_text(rng, f"text{i:02d}", kind, size, statements, i)
            for i, (kind, size, statements) in enumerate(DSL_TEXTS)]


# ---------------------------------------------------------------------------
# simulate: all nine strategies under their premises, crowds of 10 to 1000
# ---------------------------------------------------------------------------

# (strategy, island, criminals, density, count_public, mode, (n, trials)...).
# Every strategy runs at n = 10 (ten trials) and at 100 (three), or at 30
# for the two that ask O(n^2) questions at O(n) each and grow as n^3. The
# linear strategies also run one trial at 300, and two crowds run near 1000,
# one per regime: generation-dominated (classify_islands at n = 1000,
# d = 0.3) and question-dominated (count_known at n = 500). Several trials
# per op average out the random crowd, so an op costs about the same for
# every seed, and a pass takes about 2.5 s today.
SIM_CONFIGS = (
    ("classify_islands", "mixed", "1-3", 0.0, False, None, ((10, 10), (100, 3))),
    ("classify_islands", "mixed", "1-3", 0.3, False, None, ((10, 10), (100, 3), (1000, 1))),
    ("ask_all_about_others", "mixed", "1-3", 0.3, False, None, ((10, 10), (30, 3))),
    ("count_known", "mixed", "1-3", 0.0, True, None, ((10, 10), (100, 3), (500, 1))),
    ("count_unknown", "mixed", "1-3", 0.0, False, None, ((10, 10), (100, 3), (300, 1))),
    ("solve_truthtellers", "tt", "1-3", 0.3, False, None, ((10, 10), (30, 3))),
    ("solve_truthtellers", "tt", "1-3", 0.0, False, None, ((10, 10), (30, 3))),
    ("solve_liars", "liars", "1-3", 0.3, False, "robust", ((10, 10), (100, 3), (300, 1))),
    ("solve_liars", "liars", "1-3", 0.0, True, "paper-literal", ((10, 10), (100, 3))),
    ("solve_mixed", "mixed", "1-3", 0.3, False, None, ((10, 10), (100, 3), (300, 1))),
    ("solve_mixed", "mixed", "1-3", 0.0, False, None, ((10, 10), (100, 3))),
    ("neil", "tt", "1", 0.0, True, None, ((10, 10), (100, 3), (300, 1))),
    ("neil", "liars", "1", 0.0, True, None, ((10, 10), (100, 3))),
    ("secret_attribute", "tt", "1-3", 0.3, False, None, ((10, 10), (100, 3), (300, 1))),
)


@dataclass(frozen=True)
class SimulateInput:
    name: str
    argv: tuple[str, ...]
    trials: int


def simulate_sweep(seed: int) -> list[SimulateInput]:
    rng = random.Random(f"simulate:{seed}")
    sweep = []
    for strategy, island, criminals, density, public, mode, sizes in SIM_CONFIGS:
        for n, trials in sizes:
            argv = ["simulate", "--strategy", strategy, "--island", island,
                    "--n", str(n), "--criminals", criminals, "--trials", str(trials),
                    "--seed", str(rng.randrange(2 ** 32)),
                    "--knowledge-density", str(density), "--json"]
            if public:
                argv.append("--count-public")
            if mode:
                argv += ["--mode", mode]
            sweep.append(SimulateInput(f"{strategy}-{island}-d{density}-n{n}", tuple(argv), trials))
    return sweep
