"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Budgets (world counts, instance counts, time limits) are
pinned here and are not tunable elsewhere."""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from islander.cli import main as cli_main
from islander.dsl import ParseError, parse, serialize
from islander.interrogation import (
    Knowledge,
    KnowledgeWorld,
    generate_knowledge_world,
    run_count_known,
    run_count_unknown,
    run_neil,
    run_secret_attribute,
    run_solve_liars,
    run_solve_mixed,
    run_solve_truthtellers,
)
from islander.model import (
    ALL_TYPES,
    Guilty,
    Not,
    SpeakerType,
    World,
    knows_whodunit_key,
)
from islander.semantics import admissible_for_type
from islander.solver import Verdict, solve

from conftest import (
    CORPUS_NAMES,
    corpus_text,
    enumerated_world_keys,
    oracle_world_keys,
    placed_tokens,
    random_formula,
    random_puzzle,
    stolen_files_consistent_assignments,
)

AT = SpeakerType.ABSOLUTE_TRUTH_TELLER
PT = SpeakerType.PARTIAL_TRUTH_TELLER
AL = SpeakerType.ABSOLUTE_LIAR
RL = SpeakerType.RESPONSIBLE_LIAR


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): "
          f"PASS ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_golden_corpus():
    with criterion(1, "golden corpus"):
        puzzles = {name: parse(corpus_text(name)) for name in CORPUS_NAMES}
        start = time.perf_counter()
        reports = {name: solve(puzzle) for name, puzzle in puzzles.items()}
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"corpus solving took {elapsed:.2f}s"

        expected_guilty = {
            "ashwin": {"Leon", "Jacob", "Andrew"},
            "jacob": {"Ashwin", "Ezra"},
            "andrew": {"Essra", "Johnatan"},
            "jonathan": {"Mike"},
            "ben": {"Neil", "Leon"},
            "mike": {"Jonathan"},
            "nastia": {"Leon"},
            "will": {"Andrew", "Jacob"},
        }
        for name, guilty in expected_guilty.items():
            report = reports[name]
            assert report.verdict in (Verdict.UNIQUE_WORLD, Verdict.UNIQUE_GUILT), name
            assert set(report.forced_guilty) == guilty, name
            innocent = set(puzzles[name].suspects) - guilty
            assert set(report.forced_innocent) == innocent, name

        ashwin = reports["ashwin"].forced_types
        assert ashwin == {"Leon": AT, "Andrew": AT, "Jacob": PT}
        assert {"Ezra", "Will"} <= set(reports["ashwin"].unresolved)

        assert reports["ben"].forced_types == {
            "Leon": AT, "Mike": PT, "Neil": AL, "Nastia": RL,
        }
        nastia = reports["nastia"].forced_types
        assert set(nastia) == {"Neil", "Leon", "Ben"}
        assert set(nastia.values()) == {AT, RL}
        assert reports["will"].forced_types == {"Ezra": RL, "Jacob": PT, "Andrew": RL}


def test_criterion_2_documented_divergence():
    with criterion(2, "liar-only stolen-files divergence"):
        report = solve(parse(corpus_text("ezra_liars")))
        assert report.verdict is Verdict.INCONSISTENT
        assert report.world_count == 0
        assert any("unmodeled" in w and "n2" in w for w in report.warnings)
        # Longhand oracle over all 2^3 x 2^3 type/guilt assignments.
        assert stolen_files_consistent_assignments() == []


def test_criterion_3_admissibility_properties():
    with criterion(3, "admissibility properties, 10^4 instances"):
        persons = ("A", "B", "C")
        frees = {"f1": False, "f2": True}
        rng = random.Random(20158)
        start = time.perf_counter()
        instances = 0
        while instances < 10_000:
            type_of = {p: rng.choice(ALL_TYPES) for p in persons}
            guilty = frozenset(p for p in persons if rng.random() < 0.5)
            free_values = dict(frees)
            free_values.update(
                {knows_whodunit_key(p): rng.random() < 0.5 for p in persons}
            )
            free_values["f1"] = rng.random() < 0.5
            free_values["f2"] = rng.random() < 0.5
            world = World(type_of, guilty, free_values)
            speaker = rng.choice(persons)
            formula = random_formula(rng, persons, depth=2)

            assert admissible_for_type(world, speaker, formula, AL) == (
                not admissible_for_type(world, speaker, formula, AT)
            )
            assert admissible_for_type(world, speaker, formula, RL) == (
                not admissible_for_type(world, speaker, formula, PT)
            )
            for t in (AT, PT):
                if admissible_for_type(world, speaker, Guilty(speaker), t):
                    assert speaker in world.guilty
            for t in (AL, RL):
                if admissible_for_type(world, speaker, Not(Guilty(speaker)), t):
                    assert speaker in world.guilty
            instances += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"{instances} instances took {elapsed:.2f}s"


def test_criterion_4_solver_oracle_equivalence():
    with criterion(4, "solver vs brute-force oracle"):
        for name in CORPUS_NAMES:
            puzzle = parse(corpus_text(name))
            assert enumerated_world_keys(puzzle) == oracle_world_keys(puzzle), name
        rng = random.Random(41)
        for i in range(200):
            puzzle = random_puzzle(rng, max_n=4, max_candidates=6000)
            assert enumerated_world_keys(puzzle) == oracle_world_keys(puzzle), (
                f"random puzzle {i}"
            )


def _exact_over(worlds, strategy):
    for kw, rng in worlds:
        accused = strategy(kw, rng).accused
        assert accused == kw.guilty, (kw, accused)


def test_criterion_5_strategy_exactness():
    with criterion(5, "strategy exactness, 1000 worlds each"):
        start = time.perf_counter()

        def batch(strategy, island, *, count_public=False, secret=False,
                  density_cycle=(0.0, 0.25, 0.5, 0.75, 1.0), criminals=None,
                  n_range=(2, 8), trials=1000, salt=0):
            for i in range(trials):
                n = n_range[0] + i % (n_range[1] - n_range[0] + 1)
                kw = generate_knowledge_world(
                    n=n,
                    island=island,
                    criminals=criminals(n) if criminals else (1, n),
                    density=density_cycle[i % len(density_cycle)],
                    count_public=count_public,
                    secret=secret,
                    seed=salt * 1_000_003 + i,
                )
                yield kw, random.Random(i ^ 0xADEAD)

        _exact_over(batch(run_solve_truthtellers, "tt", salt=1),
                    run_solve_truthtellers)
        _exact_over(batch(run_solve_liars, "liars", salt=2),
                    lambda kw, rng: run_solve_liars(kw, rng, mode="robust"))
        _exact_over(batch(run_solve_mixed, "mixed", salt=3),
                    run_solve_mixed)
        _exact_over(
            itertools.chain(
                batch(None, "tt", count_public=True, density_cycle=(0.0,),
                      salt=4, trials=500),
                batch(None, "liars", count_public=True, density_cycle=(0.0,),
                      salt=5, trials=500),
            ),
            run_count_known,
        )
        _exact_over(
            itertools.chain(
                batch(None, "tt", density_cycle=(0.0,), salt=6, trials=500),
                batch(None, "liars", density_cycle=(0.0,), salt=7, trials=500),
            ),
            run_count_unknown,
        )
        _exact_over(
            itertools.chain(
                batch(None, "tt", count_public=True, density_cycle=(0.0,),
                      criminals=lambda n: 1, n_range=(1, 8), salt=8, trials=500),
                batch(None, "liars", count_public=True, density_cycle=(0.0,),
                      criminals=lambda n: 1, n_range=(1, 8), salt=9, trials=500),
            ),
            lambda kw, rng: run_neil(kw, rng),
        )
        _exact_over(batch(None, "tt", secret=True, salt=10),
                    run_secret_attribute)

        # The literal liars questioning, under its stated blank-knowledge
        # premise, with the criminal count public and not.
        _exact_over(
            batch(None, "liars", density_cycle=(0.0,), salt=11, trials=500),
            lambda kw, rng: run_solve_liars(kw, rng, mode="paper-literal"),
        )
        _exact_over(
            batch(None, "liars", density_cycle=(0.0,), count_public=True,
                  criminals=lambda n: (1, max(1, n - 1)), salt=12, trials=500),
            lambda kw, rng: run_solve_liars(kw, rng, mode="paper-literal"),
        )

        # Stored counterexample: outside the blank-knowledge premise the
        # literal questioning misaccuses an informed innocent, while the
        # robust variant stays exact on the identical world.
        kw = KnowledgeWorld(
            persons=("P1", "P2", "P3"),
            type_of={"P1": AL, "P2": AL, "P3": AL},
            guilty=frozenset({"P2"}),
            knowledge={("P1", "P2"): Knowledge.KNOWS_GUILTY},
        )
        misaccusing = [
            seed for seed in range(100)
            if run_solve_liars(kw, random.Random(seed),
                                    mode="paper-literal").accused != kw.guilty
        ]
        assert misaccusing, "expected a misaccusing seed for the literal mode"
        for seed in misaccusing:
            assert run_solve_liars(kw, random.Random(seed)).accused == kw.guilty

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"strategy checks took {elapsed:.2f}s"


def test_criterion_6_byte_identical_output(capsys):
    with criterion(6, "byte-identical JSON under fixed seeds"):
        from importlib import resources
        puz = str(resources.files("islander") / "corpus" / "ashwin.puz")

        def collect(argv):
            code = cli_main(argv)
            out = capsys.readouterr().out
            return code, out

        for argv in (
            ["solve", puz, "--json"],
            ["corpus", "--json"],
            ["simulate", "--strategy", "solve_mixed", "--n", "6",
             "--criminals", "1-4", "--trials", "30", "--seed", "7",
             "--knowledge-density", "0.5", "--json"],
        ):
            code1, out1 = collect(argv)
            code2, out2 = collect(argv)
            assert code1 == code2 == 0
            assert out1.encode() == out2.encode()


def test_criterion_7_round_trip_and_mutation_spans():
    with criterion(7, "round-trip and error spans"):
        for name in CORPUS_NAMES:
            puzzle = parse(corpus_text(name))
            assert parse(serialize(puzzle)) == puzzle, name

        rng = random.Random(2029)
        for name in CORPUS_NAMES:
            text = corpus_text(name)
            tokens = [t for t in placed_tokens(text) if t.kind not in ("string", "eof")]
            for token in rng.sample(tokens, min(8, len(tokens))):
                lines = text.split("\n")
                row = lines[token.line - 1]
                col = token.column - 1
                lines[token.line - 1] = (
                    row[:col] + "~" + token.text[1:] + row[col + len(token.text):]
                )
                mutated = "\n".join(lines)
                with pytest.raises(ParseError) as info:
                    parse(mutated)
                span = info.value.span
                assert span.line == token.line
                assert span.column <= token.column < span.column + span.length
