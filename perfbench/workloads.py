"""The four workloads: their inputs, the timed op, and the output checks.

Each workload holds a pool of inputs made from the seed. One pass runs every
input once, in a seeded order. `op` is the only timed call; `check` runs
untimed after every op and raises WrongOutput on any wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import Counter
from pathlib import Path
from typing import Optional

import inputs
from islander import cli, dsl, interrogation, model, semantics, solver
from islander.model import ALL_TYPES, Puzzle, World, knows_whodunit_key

CORPUS_DIR = Path(cli.__file__).resolve().parent / "corpus"

VERDICT_EXIT = {"unique_world": 0, "unique_guilt": 0, "multiple": 2, "inconsistent": 3}


class WrongOutput(Exception):
    """The program gave a wrong answer; the run is not correct."""


def run_cli(argv) -> tuple[int, str, str]:
    """`islander ARGV` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def free_dimensions(puzzle: Puzzle) -> tuple[list[str], list[str]]:
    names: set[str] = set()
    kw_persons: set[str] = set()
    for formula in puzzle.constraint_formulas():
        names |= model.free_names(formula)
        kw_persons |= model.knows_whodunit_persons(formula)
    return sorted(names), sorted(kw_persons)


def candidate_count(puzzle: Puzzle) -> int:
    """Types x guilt sets x free atoms: the space the solver has to cover.

    Worked out here from the puzzle, not taken from the solver, so a solver
    that visits fewer candidates cannot change the counter's meaning."""
    names, kw_persons = free_dimensions(puzzle)
    total = 2 ** (len(puzzle.suspects) + len(names) + len(kw_persons))
    for person in puzzle.suspects:
        total *= len(puzzle.type_domain[person])
    return total


def formula_nodes(puzzle: Puzzle) -> int:
    """AST nodes over all statement bodies and axioms, counted without recursion."""
    stack = list(puzzle.constraint_formulas())
    count = 0
    while stack:
        node = stack.pop()
        count += 1
        for attr in ("operand", "left", "right"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
    return count


def sample_worlds(puzzle: Puzzle, rng: random.Random, k: int) -> list[World]:
    """k random candidate worlds (not only consistent ones) of the puzzle."""
    names, kw_persons = free_dimensions(puzzle)
    worlds = []
    for _ in range(k):
        type_of = {p: rng.choice([t for t in ALL_TYPES if t in puzzle.type_domain[p]])
                   for p in puzzle.suspects}
        guilty = frozenset(p for p in puzzle.suspects if rng.random() < 0.4)
        keys = names + [knows_whodunit_key(p) for p in kw_persons if p not in guilty]
        worlds.append(World(type_of, guilty, {key: rng.random() < 0.5 for key in keys}))
    return worlds


class TraceState:
    """What the traced wrappers saw during one op, for the probes and counters.

    `counters` holds the machine-independent counts of the current pass.
    """

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self.puzzles: list[tuple[Puzzle, int]] = []  # (puzzle, reported worlds)
        self.transcripts: list[tuple[object, tuple]] = []  # (knowledge world, answers)

    def on_parse(self, args, puzzle) -> None:
        self.counters["dsl.parse_bytes"] += len(args[0].encode("utf-8"))
        if puzzle is not None:
            self.counters["dsl.formula_nodes"] += formula_nodes(puzzle)

    def on_solve(self, args, report) -> None:
        self.counters["solver.candidates"] += candidate_count(args[0])
        if report is not None:
            self.counters["solver.worlds"] += report.world_count
            self.puzzles.append((args[0], report.world_count))

    def on_generate(self, args, kw) -> None:
        if kw is not None:
            self.counters["interrogation.knowledge_entries"] += len(kw.knowledge)

    def on_strategy(self, args, result) -> None:
        if result is None:
            return
        transcript = result.transcript if hasattr(result, "transcript") else result[-1]
        self.counters["interrogation.questions"] += len(transcript)
        self.transcripts.append((args[0], tuple(transcript)))


def trace_targets(state: TraceState) -> list:
    """(owner, attribute, span name, observer) for every layer entry point.

    The strategy runners are found by name in the CLI's namespace, so every
    runner the CLI can call is covered.
    """
    targets = [
        (cli, "parse", "dsl.parse", state.on_parse),
        (dsl, "parse", "dsl.parse", state.on_parse),
        (dsl, "serialize", "dsl.serialize", None),
        (model.Puzzle, "validate", "model.validate", None),
        (cli, "solve", "solver.solve", state.on_solve),
        (cli, "generate_knowledge_world", "interrogation.generate", state.on_generate),
    ]
    for attr, value in sorted(vars(cli).items()):
        if (attr.startswith(("run_", "strategy_")) and callable(value)
                and getattr(value, "__module__", None) == interrogation.__name__):
            targets.append((cli, attr, "interrogation.strategy", state.on_strategy))
    return targets


def run_probes(tracer, state: TraceState, rng: random.Random) -> None:
    """Untimed-by-the-op layer measurements over what the traced op touched:
    a drained enumerate_worlds, eval_formula and admissible_for_type on sampled
    worlds, and each transcript's questions replayed through the answer
    functions."""
    for puzzle, reported in state.puzzles:
        with tracer.span("solver.enumerate_worlds"):
            drained = sum(1 for _ in solver.enumerate_worlds(puzzle))
        if drained != reported:
            raise WrongOutput(f"enumerate_worlds yielded {drained} worlds, solve reported {reported}")
        table = puzzle.statement_table()
        formulas = puzzle.constraint_formulas()
        modeled = [s for s in puzzle.statements if s.body is not None]
        worlds = sample_worlds(puzzle, rng, 16)
        with tracer.span("model.eval_formula"):
            for world in worlds:
                for formula in formulas:
                    model.eval_formula(world, formula, table)
        with tracer.span("semantics.admissible_for_type"):
            for world in worlds:
                for stmt in modeled:
                    for t in ALL_TYPES:
                        semantics.admissible_for_type(world, stmt.speaker, stmt.body, t, table)
        state.counters["model.evals"] += len(worlds) * len(formulas)
        state.counters["semantics.admissible_calls"] += len(worlds) * len(modeled) * len(ALL_TYPES)
    for kw, transcript in state.transcripts:
        with tracer.span("interrogation.truthful_answer"):
            for answer in transcript:
                interrogation.truthful_answer(kw, answer.person, answer.question)
        replay_rng = random.Random(0)
        with tracer.span("interrogation.spoken_answer"):
            for answer in transcript:
                interrogation.spoken_answer(kw, answer.person, answer.question, replay_rng)
    state.puzzles.clear()
    state.transcripts.clear()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.inputs: list = []

    def op(self, item):
        """The timed call."""
        return run_cli(item.argv)

    def check(self, item, result, error: Optional[BaseException]) -> bool:
        """True when the op succeeded, False when it failed in a way this
        workload counts as a known defect; raises WrongOutput otherwise."""
        raise NotImplementedError

    def warmup(self) -> tuple[str, list[str]]:
        """("cli", argv) or ("roundtrip", [path]): the set-up run's one op."""
        raise NotImplementedError

    def _check_cli(self, item, result, error) -> tuple[int, str]:
        if error is not None:
            raise WrongOutput(f"{item.name}: islander raised {error!r}")
        rc, out, err = result
        if rc == 1:
            raise WrongOutput(f"{item.name}: exit code 1: {err.strip()}")
        return rc, out


class CliInput:
    def __init__(self, name: str, argv: list[str], **extra) -> None:
        self.name = name
        self.argv = tuple(argv)
        self.__dict__.update(extra)


class CorpusWorkload(Workload):
    name = "corpus"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(workdir)
        for path in sorted(CORPUS_DIR.glob("*.puz")):
            expected = json.loads(path.with_suffix(".expected.json").read_text(encoding="utf-8"))
            self.inputs.append(CliInput(path.stem, ["solve", "--json", str(path)], expected=expected))
        if len(self.inputs) != 10:
            raise WrongOutput(f"expected the 10 bundled puzzles, found {len(self.inputs)}")

    def check(self, item, result, error) -> bool:
        rc, out = self._check_cli(item, result, error)
        if json.loads(out) != item.expected:
            raise WrongOutput(f"{item.name}: report differs from {item.name}.expected.json")
        if rc != VERDICT_EXIT[item.expected["verdict"]]:
            raise WrongOutput(f"{item.name}: exit code {rc} for verdict {item.expected['verdict']}")
        return True

    def warmup(self):
        return "cli", ["solve", "--json", str(CORPUS_DIR / "andrew.puz")]


class SolveLargeWorkload(Workload):
    name = "solve_large"
    # Puzzles per run also checked against the nested-loop oracle: the first
    # ones, in the run's seeded order, with at most 2^13 candidates and at
    # least one consistent world (an empty world set checks little).
    ORACLE_SUBSET = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(workdir)
        for spec in inputs.solve_pool(seed):
            path = workdir / f"{spec.name}.puz"
            path.write_text(spec.text, encoding="utf-8")
            self.inputs.append(CliInput(spec.name, ["solve", "--json", str(path)],
                                        text=spec.text, candidates=spec.candidates))
        self.oracle_left = self.ORACLE_SUBSET
        self.verified: dict[str, tuple[dict, int]] = {}

    def check(self, item, result, error) -> bool:
        rc, out = self._check_cli(item, result, error)
        if item.name not in self.verified:
            self.verified[item.name] = self._verify(item)
        expected, expected_rc = self.verified[item.name]
        if json.loads(out) != expected:
            raise WrongOutput(f"{item.name}: report disagrees with the checked worlds")
        if rc != expected_rc:
            raise WrongOutput(f"{item.name}: exit code {rc}, expected {expected_rc}")
        return True

    def _verify(self, item) -> tuple[dict, int]:
        """The report the yielded worlds imply, after every world passed
        check_world; on the oracle subset, also the same world set as a plain
        nested loop over all candidates finds."""
        puzzle = dsl.parse(item.text)
        if candidate_count(puzzle) != item.candidates:
            raise WrongOutput(f"{item.name}: parsed puzzle has an unexpected search space")
        suspects = puzzle.suspects
        guilt_sets = set()
        always, never = set(suspects), set(suspects)
        seen: dict[str, set] = {p: set() for p in suspects}

        def checked_worlds():
            for world in solver.enumerate_worlds(puzzle):
                checked = solver.check_world(puzzle, world)
                if not checked.ok:
                    raise WrongOutput(f"{item.name}: yielded world fails check_world: {checked.violations}")
                guilt_sets.add(world.guilty)
                always.intersection_update(world.guilty)
                never.difference_update(world.guilty)
                for p in suspects:
                    seen[p].add(world.type_of[p].value)
                yield world

        count, digest = fingerprint(checked_worlds())
        if count and item.candidates <= 2 ** 13 and self.oracle_left:
            self.oracle_left -= 1
            if (count, digest) != fingerprint(oracle_worlds(puzzle)):
                raise WrongOutput(f"{item.name}: enumerated worlds differ from the nested-loop oracle")
        if count == 0:
            verdict, seen = "inconsistent", {}
            always.clear()
            never.clear()
        elif count == 1:
            verdict = "unique_world"
        elif len(guilt_sets) == 1:
            verdict = "unique_guilt"
        else:
            verdict = "multiple"
        report = {
            "verdict": verdict,
            "consistent_world_count": count,
            "forced_guilty": [p for p in suspects if p in always],
            "forced_innocent": [p for p in suspects if p in never],
            "forced_types": {p: next(iter(seen[p])) for p in suspects if len(seen.get(p, ())) == 1},
            "unresolved": [
                p for p in suspects if p in seen
                and ((p not in always and p not in never) or len(seen[p]) > 1)
            ],
            "warnings": [],
        }
        return report, VERDICT_EXIT[verdict]

    def warmup(self):
        return "cli", list(self.inputs[0].argv)


def fingerprint(worlds) -> tuple[int, int]:
    """(count, sum of key hashes) of a world stream: compares two world sets
    without holding them, so the checks do not move the run's peak memory."""
    count = total = 0
    for world in worlds:
        count += 1
        total = (total + hash(world.key())) & 0xFFFFFFFFFFFFFFFF
    return count, total


def oracle_worlds(puzzle: Puzzle):
    """Every candidate world check_world accepts, by plain nested loops."""
    names, kw_persons = free_dimensions(puzzle)
    suspects = puzzle.suspects
    domains = [sorted(puzzle.type_domain[p], key=lambda t: t.value) for p in suspects]
    for types in itertools.product(*domains):
        type_of = dict(zip(suspects, types))
        for r in range(len(suspects) + 1):
            for combo in itertools.combinations(suspects, r):
                guilty = frozenset(combo)
                keys = sorted(set(names) | {knows_whodunit_key(p) for p in kw_persons if p not in guilty})
                for bits in itertools.product((False, True), repeat=len(keys)):
                    world = World(type_of, guilty, dict(zip(keys, bits)))
                    if solver.check_world(puzzle, world).ok:
                        yield world


class SimulateWorkload(Workload):
    name = "simulate"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(workdir)
        self.inputs = [CliInput(s.name, list(s.argv), trials=s.trials)
                       for s in inputs.simulate_sweep(seed)]

    def check(self, item, result, error) -> bool:
        rc, out = self._check_cli(item, result, error)
        payload = json.loads(out)
        if rc != 0 or payload["successes"] != item.trials or payload["failures"]:
            raise WrongOutput(f"{item.name}: {payload['successes']} of {item.trials} trials succeeded")
        return True

    def warmup(self):
        return "cli", list(self.inputs[0].argv)


class DslRoundtripWorkload(Workload):
    name = "dsl_roundtrip"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(workdir)
        self.inputs = inputs.dsl_pool(seed)

    def op(self, item):
        first = dsl.parse(item.text)
        return first, dsl.parse(dsl.serialize(first))

    def check(self, item, result, error) -> bool:
        if error is not None:
            if item.defect is None:
                raise WrongOutput(f"{item.name}: a well-formed text raised {error!r}")
            return False
        first, second = result
        if second != first:
            raise WrongOutput(f"{item.name}: parse(serialize(p)) != p")
        if (len(first.suspects), len(first.statements)) != (item.suspects, item.statements):
            raise WrongOutput(f"{item.name}: parsed roster or statement count differs from the text")
        return True

    def warmup(self):
        plain = min((i for i in self.inputs if i.defect is None), key=lambda i: len(i.text))
        path = self.workdir / f"{plain.name}.puz"
        path.write_text(plain.text, encoding="utf-8")
        return "roundtrip", [str(path)]


WORKLOADS = {w.name: w for w in (CorpusWorkload, SolveLargeWorkload, SimulateWorkload,
                                 DslRoundtripWorkload)}
