"""World enumeration, solve reports, and the check_world oracle."""

import itertools
import json
import random
import tracemalloc

import pytest

from islander import solver
from islander.dsl import parse
from islander.model import (
    ALL_TYPES,
    CountCmp,
    ExactTruthTellers,
    Free,
    FromIsland,
    Guilty,
    HasType,
    Implies,
    Island,
    LiesWhenAskedGuilt,
    Not,
    Puzzle,
    SpeakerType,
    Statement,
    UnknownReference,
    World,
    knows_whodunit_key,
    KnowsWhodunit,
)
from islander.solver import (
    SearchSpaceError,
    Verdict,
    check_world,
    enumerate_worlds,
    solve,
)

from conftest import (
    CORPUS_NAMES,
    chain_puzzle_text,
    corpus_text,
    enumerated_world_keys,
    no_recursion,
    oracle_world_keys,
    random_formula,
    random_puzzle,
    stolen_files_consistent_assignments,
)

AT = SpeakerType.ABSOLUTE_TRUTH_TELLER
PT = SpeakerType.PARTIAL_TRUTH_TELLER
AL = SpeakerType.ABSOLUTE_LIAR
RL = SpeakerType.RESPONSIBLE_LIAR


def assert_documented_enumeration_order():
    # Types in declaration order, then guilt masks ascending, then free
    # assignments by sorted name with false before true.
    puzzle = parse(
        "puzzle { suspects A; types A: {AT, AL}; criminals <= 1; "
        'statement s1 A: free("z") or free("a") or true; }'
    )
    worlds = list(enumerate_worlds(puzzle))
    expected = [
        (t, guilty, {"a": a, "z": z})
        for t in (AT, AL)
        for guilty in (frozenset(), frozenset({"A"}))
        for a in (False, True)
        for z in (False, True)
    ]
    got = [(w.type_of["A"], w.guilty, dict(w.free_values)) for w in worlds]
    # The AT speaker needs the disjunction true (always is, via the
    # constant), the AL speaker needs it false (never is), so only the
    # AT half of the candidate order survives.
    assert got == [row for row in expected if row[0] is AT]


def oracle_report(puzzle: Puzzle) -> dict:
    """The report fields of solve(), aggregated straight from the worlds the
    brute-force oracle accepts."""
    worlds = oracle_world_keys(puzzle)
    if not worlds:
        return {"verdict": "inconsistent", "consistent_world_count": 0, "forced_guilty": [],
                "forced_innocent": [], "forced_types": {}, "unresolved": []}
    guilt_sets = {frozenset(guilty) for _, guilty, _ in worlds}
    seen_types = {p: {dict(types)[p] for types, _, _ in worlds} for p in puzzle.suspects}
    always = frozenset.intersection(*guilt_sets)
    ever = frozenset.union(*guilt_sets)
    if len(worlds) == 1:
        verdict = "unique_world"
    elif len(guilt_sets) == 1:
        verdict = "unique_guilt"
    else:
        verdict = "multiple"
    return {
        "verdict": verdict,
        "consistent_world_count": len(worlds),
        "forced_guilty": [p for p in puzzle.suspects if p in always],
        "forced_innocent": [p for p in puzzle.suspects if p not in ever],
        "forced_types": {p: next(iter(ts)) for p, ts in seen_types.items() if len(ts) == 1},
        "unresolved": [
            p for p in puzzle.suspects
            if (p not in always and p in ever) or len(seen_types[p]) > 1
        ],
    }


class TestEnumerateWorlds:
    def test_snowflake_theft_pins_the_culprit(self):
        puzzle = parse(corpus_text("jonathan"))
        worlds = list(enumerate_worlds(puzzle))
        assert worlds
        assert all(w.guilty == frozenset({"Mike"}) for w in worlds)

    def test_single_confessing_truth_teller(self):
        puzzle = Puzzle(
            suspects=("A",),
            type_domain={"A": frozenset({AT})},
            count=CountCmp("=", 1),
            statements=(Statement("s1", "A", Guilty("A")),),
        )
        worlds = list(enumerate_worlds(puzzle))
        assert len(worlds) == 1
        assert worlds[0].guilty == frozenset({"A"})

    def test_liar_only_stolen_files_puzzle_is_unsatisfiable(self):
        puzzle = parse(corpus_text("ezra_liars"))
        assert list(enumerate_worlds(puzzle)) == []
        # Longhand re-derivation over all 8 x 8 assignments agrees.
        assert stolen_files_consistent_assignments() == []

    def test_deterministic_order(self):
        puzzle = parse(corpus_text("ashwin"))
        first = [w.key() for w in enumerate_worlds(puzzle)]
        second = [w.key() for w in enumerate_worlds(puzzle)]
        assert first == second

    def test_documented_enumeration_order(self):
        assert_documented_enumeration_order()

    def test_criminal_count_choice_set(self):
        puzzle = parse(
            "puzzle { suspects A, B, C; island truthtellers; criminals in {1, 3}; }"
        )
        sizes = {len(w.guilty) for w in enumerate_worlds(puzzle)}
        assert sizes == {1, 3}

    def test_search_ceiling(self):
        n = 12
        suspects = tuple(f"S{i}" for i in range(n))
        puzzle = Puzzle(
            suspects=suspects,
            type_domain={s: frozenset(ALL_TYPES) for s in suspects},
            count=CountCmp(">=", 1),
        )
        with pytest.raises(SearchSpaceError):
            list(enumerate_worlds(puzzle, ceiling=2 ** 20))
        # An explicit, larger ceiling lets the same puzzle through.
        stream = enumerate_worlds(puzzle, ceiling=2 ** 40)
        assert next(stream) is not None

    def test_a_search_space_too_long_to_print_is_refused_in_bounded_form(self):
        refusal = "search space of {} candidate worlds exceeds the ceiling of {}"
        # 8^4800 = 2^14400 candidates: 4,336 decimal digits, past the
        # interpreter's int-to-str limit.
        suspects = tuple(f"S{i}" for i in range(4800))
        puzzle = Puzzle(suspects=suspects,
                        type_domain={s: frozenset(ALL_TYPES) for s in suspects},
                        count=CountCmp("=", 1))
        with pytest.raises(SearchSpaceError) as info:
            solve(puzzle)
        assert (info.value.candidates, info.value.ceiling) == (8 ** 4800, 2 ** 28)
        assert str(info.value) == refusal.format("more than 2^14399", 2 ** 28)
        # Counts below 2^255 are written in full, longer ones as a power of
        # two they exceed.
        assert str(SearchSpaceError(8 ** 12, 2 ** 20)) == refusal.format(8 ** 12, 2 ** 20)
        assert str(SearchSpaceError(2 ** 256 - 1, 2 ** 255 + 1)) == refusal.format(
            "more than 2^255", "more than 2^255")
        assert str(SearchSpaceError(2 ** 255 - 1, 2 ** 254)) == refusal.format(
            2 ** 255 - 1, 2 ** 254)

    def test_whodunit_bit_only_enumerated_for_the_innocent(self):
        puzzle = Puzzle(
            suspects=("A", "B"),
            type_domain={"A": frozenset({AT}), "B": frozenset({AT})},
            count=CountCmp("=", 1),
            statements=(Statement("s1", "A", Guilty("A")),),
            axioms=(KnowsWhodunit("B"),),
        )
        worlds = list(enumerate_worlds(puzzle))
        assert len(worlds) == 1
        world = worlds[0]
        assert world.guilty == frozenset({"A"})
        assert knows_whodunit_key("A") not in world.free_values
        assert world.free_values[knows_whodunit_key("B")] is True


class TestSolveReports:
    def test_verdict_unique_world(self):
        report = solve(parse(corpus_text("will")))
        assert report.verdict is Verdict.UNIQUE_WORLD
        assert report.world_count == 1
        assert report.unresolved == ()

    def test_verdict_unique_guilt_with_unresolved_types(self):
        report = solve(parse(corpus_text("ashwin")))
        assert report.verdict is Verdict.UNIQUE_GUILT
        assert set(report.forced_guilty) == {"Leon", "Jacob", "Andrew"}
        assert set(report.forced_innocent) == {"Ezra", "Will"}
        assert set(report.unresolved) == {"Ezra", "Will"}

    def test_verdict_multiple(self):
        puzzle = Puzzle(
            suspects=("A", "B"),
            type_domain={"A": frozenset({AT}), "B": frozenset({AT})},
            count=CountCmp(">=", 1),
        )
        report = solve(puzzle)
        assert report.verdict is Verdict.MULTIPLE
        assert report.world_count == 3
        assert report.forced_guilty == ()
        assert set(report.unresolved) == {"A", "B"}

    def test_verdict_inconsistent_with_warning(self):
        report = solve(parse(corpus_text("ezra_liars")))
        assert report.verdict is Verdict.INCONSISTENT
        assert report.world_count == 0
        assert any("n2" in w and "unmodeled" in w for w in report.warnings)

    def test_forced_sets_disjoint_across_random_puzzles(self):
        rng = random.Random(7)
        for _ in range(40):
            report = solve(random_puzzle(rng))
            assert not set(report.forced_guilty) & set(report.forced_innocent)
            assert (report.verdict is Verdict.INCONSISTENT) == (report.world_count == 0)

    def test_reports_are_byte_identical(self):
        puzzle1 = parse(corpus_text("ben"))
        puzzle2 = parse(corpus_text("ben"))
        a = json.dumps(solve(puzzle1).to_json_dict())
        b = json.dumps(solve(puzzle2).to_json_dict())
        assert a == b


class TestCheckWorld:
    def _snowflake_world(self, guilty):
        return World(
            {"Mike": AL, "Leon": AL, "Ashwin": AL},
            frozenset(guilty),
            {},
        )

    def test_accepts_the_solved_world(self):
        puzzle = parse(corpus_text("jonathan"))
        assert check_world(puzzle, self._snowflake_world({"Mike"})).ok

    def test_rejects_two_culprits_naming_the_broken_statement(self):
        puzzle = parse(corpus_text("jonathan"))
        result = check_world(puzzle, self._snowflake_world({"Mike", "Leon"}))
        assert not result.ok
        assert any("a1" in v for v in result.violations)

    def test_rejects_empty_guilty_set_naming_count(self):
        puzzle = parse(corpus_text("jonathan"))
        result = check_world(puzzle, self._snowflake_world(set()))
        assert not result.ok
        assert any("count constraint" in v for v in result.violations)

    def test_rejects_type_outside_domain(self):
        puzzle = parse(corpus_text("jonathan"))
        world = World({"Mike": AT, "Leon": AL, "Ashwin": AL}, frozenset({"Mike"}), {})
        result = check_world(puzzle, world)
        assert any(v.startswith("type domain") for v in result.violations)

    def test_unknown_person_raises(self):
        puzzle = parse(corpus_text("jonathan"))
        with pytest.raises(UnknownReference):
            check_world(puzzle, World({"Mike": AL}, frozenset(), {}))

    def test_a_type_that_is_not_a_speaker_type_raises(self):
        puzzle = parse(corpus_text("jonathan"))
        world = World({"Mike": AL, "Leon": "AT", "Ashwin": AL}, frozenset({"Mike"}), {})
        with pytest.raises(UnknownReference,
                           match="the type of 'Leon' is 'AT', not a speaker type"):
            check_world(puzzle, world)


class TestOracleEquivalence:
    def test_corpus_puzzles_match_brute_force(self):
        for name in CORPUS_NAMES:
            puzzle = parse(corpus_text(name))
            assert enumerated_world_keys(puzzle) == oracle_world_keys(puzzle), name

    def test_random_puzzles_match_brute_force(self):
        rng = random.Random(20250809)
        for i in range(60):
            puzzle = random_puzzle(rng)
            assert enumerated_world_keys(puzzle) == oracle_world_keys(puzzle), (
                f"divergence on random puzzle {i}"
            )

    def test_type_atoms_match_brute_force(self):
        """The island and guilt-question atoms, which `random_formula` does
        not draw, on two suspects over every pair of non-empty domains."""
        domains = [frozenset(c) for r in range(1, len(ALL_TYPES) + 1)
                   for c in itertools.combinations(ALL_TYPES, r)]
        bodies = (FromIsland("B", Island.LIARS), FromIsland("B", Island.TRUTH_TELLERS),
                  LiesWhenAskedGuilt("A"), LiesWhenAskedGuilt("B"),
                  Guilty("A"), Not(Guilty("A")))
        for domain_a, domain_b, body, cardinality in itertools.product(
                domains, domains, bodies, (None, ExactTruthTellers(1))):
            puzzle = Puzzle(
                suspects=("A", "B"),
                type_domain={"A": domain_a, "B": domain_b},
                count=CountCmp(">=", 0),
                statements=(Statement("s1", "A", body),),
                type_cardinality=cardinality,
            )
            assert enumerated_world_keys(puzzle) == oracle_world_keys(puzzle), puzzle

    def test_solve_reports_match_brute_force_aggregation(self):
        puzzles = [parse(corpus_text(name)) for name in CORPUS_NAMES]
        rng = random.Random(31337)
        puzzles += [random_puzzle(rng, max_candidates=6000) for _ in range(200)]
        for i, puzzle in enumerate(puzzles):
            report = solve(puzzle).to_json_dict()
            del report["warnings"]
            assert report == oracle_report(puzzle), f"puzzle {i}"


class TestChunkedSpace:
    """The solver cuts the candidate space into chunks; tiny chunks must not
    change any world, its order, or the report."""

    TINY = 2 ** 4

    # Chunks of 2 and 4 candidates put guilt and free-key digits in the
    # prefix, where they are constants.
    @pytest.mark.parametrize("chunk", [2 ** 1, 2 ** 2, TINY])
    def test_random_puzzles_match_oracle_across_chunks(self, monkeypatch, chunk):
        rng = random.Random(1618)
        for i in range(60):
            puzzle = random_puzzle(rng, max_candidates=6000)
            whole = [w.key() for w in enumerate_worlds(puzzle)]
            report = solve(puzzle)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_CHUNK_CANDIDATES", chunk)
                chunked = [w.key() for w in enumerate_worlds(puzzle)]
                assert solve(puzzle) == report, f"random puzzle {i}"
            assert chunked == whole, f"random puzzle {i}"
            assert set(chunked) == oracle_world_keys(puzzle), f"random puzzle {i}"

    def test_documented_order_across_chunks(self, monkeypatch):
        # 16 candidates in chunks of 4: type and guilt fixed per chunk.
        monkeypatch.setattr(solver, "_CHUNK_CANDIDATES", 2 ** 2)
        assert_documented_enumeration_order()

    def test_huge_space_streams_lazily(self, monkeypatch):
        monkeypatch.setattr(solver, "_CHUNK_CANDIDATES", self.TINY)
        suspects = tuple(f"S{i}" for i in range(12))
        puzzle = Puzzle(
            suspects=suspects,
            type_domain={s: frozenset(ALL_TYPES) for s in suspects},
            count=CountCmp(">=", 1),
        )
        stream = enumerate_worlds(puzzle, ceiling=2 ** 40)
        assert next(stream).guilty == frozenset({"S0"})


def eight_suspect_chain() -> Puzzle:
    """4^8 type assignments x 2^8 guilt sets = 2^24 candidates: 16 chunks,
    each varying the last six type digits and every guilt bit."""
    suspects = tuple(f"S{i}" for i in range(8))
    statements = tuple(
        Statement(f"s{i}", s, Implies(Guilty(suspects[(i + 1) % 8]), Not(Guilty(s))))
        for i, s in enumerate(suspects)
    )
    return Puzzle(
        suspects=suspects,
        type_domain={s: frozenset(ALL_TYPES) for s in suspects},
        count=CountCmp("=", 1),
        statements=statements,
    )


class TestBoundedMemory:
    def test_eight_suspect_chain_solves_in_bounded_memory(self):
        puzzle = eight_suspect_chain()
        tracemalloc.start()
        try:
            report = solve(puzzle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
        assert report.world_count == sum(1 for _ in enumerate_worlds(puzzle))
        assert report.world_count > 0


class TestOneSpacePerSolve:
    """A solve builds one space; every chunk reads the tail digits' bitsets
    from it and holds constants for its prefix digits."""

    TINY = 2 ** 4

    def test_chunk_bitsets_mark_each_candidate_by_its_digit(self, monkeypatch):
        rng = random.Random(30)
        for _ in range(200):
            n = rng.randint(1, 3)
            suspects = tuple(f"S{i}" for i in range(n))
            domains = {s: frozenset(rng.sample(ALL_TYPES, rng.randint(1, 4))) for s in suspects}
            axioms = tuple(Free(name) for name in rng.sample("xyz", rng.randint(0, 2)))
            axioms += tuple(KnowsWhodunit(s) for s in suspects if rng.random() < 0.3)
            puzzle = Puzzle(suspects=suspects, type_domain=domains, count=CountCmp(">=", 0),
                            axioms=axioms)
            monkeypatch.setattr(solver, "_CHUNK_CANDIDATES", 2 ** rng.randint(1, 6))
            space = solver._Space(puzzle, ceiling=2 ** 20)
            ordered = [tuple(t for t in ALL_TYPES if t in domains[s]) for s in suspects]
            radices = [len(d) for d in ordered] + [2] * (n + len(space.keys))
            candidates = list(itertools.product(*map(range, radices)))  # index order
            start = 0
            for chunk in space.chunks():
                size = chunk.ones.bit_length()
                rows = candidates[start:start + size]
                start += size
                assert {row[:len(chunk.prefix)] for row in rows} == {chunk.prefix}

                def marks(holds):
                    return sum(1 << r for r, row in enumerate(rows) if holds(row))

                for q, p in enumerate(suspects):
                    assert set(chunk.types[p]) <= set(ordered[q])
                    for t in ordered[q]:
                        want = marks(lambda row: ordered[q][row[q]] is t)
                        assert chunk.types[p].get(t, 0) == want, (radices, p, t)
                    assert chunk.liar[p] == marks(
                        lambda row: ordered[q][row[q]].island is Island.LIARS)
                    assert chunk.partial[p] == marks(lambda row: ordered[q][row[q]].partial)
                    assert chunk.guilty[p] == marks(lambda row: row[2 * n - 1 - q]), (radices, p)
                for j, key in enumerate(space.keys):
                    assert chunk.free[key] == marks(lambda row: row[2 * n + j]), (radices, key)
            assert start == len(candidates)

    def test_every_chunk_holds_the_space_s_own_tail_bitsets(self, monkeypatch):
        chunks, exact = [], []
        chunks_, exact_counts = solver._Space.chunks, solver._exact_counts

        def recorded_chunks(space):
            for chunk in chunks_(space):
                chunks.append(chunk)
                yield chunk

        def counted_exact_counts(bitsets, ones):
            exact.append(len(bitsets))
            return exact_counts(bitsets, ones)

        monkeypatch.setattr(solver._Space, "chunks", recorded_chunks)
        monkeypatch.setattr(solver, "_exact_counts", counted_exact_counts)
        puzzle = eight_suspect_chain()
        report = solve(puzzle)
        # 16 chunks, each varying the last six type digits and every guilt
        # bit: the exact guilt counts over the eight tail guilt bits are built
        # once, chunk wide.
        assert len(chunks) == 16 and exact == [8]
        space = chunks[0].space
        assert list(space.types) == list(puzzle.suspects[2:])
        assert list(space.guilty) == list(puzzle.suspects)
        for chunk in chunks:
            assert chunk.space is space
            for name in ("types", "liar", "partial", "guilty", "free"):
                mine = getattr(chunk, name)
                assert all(mine[key] is bits for key, bits in getattr(space, name).items())
            assert chunk.count("=", 1) is space.count("=", 1)
        # Nothing is kept between solves: the next one builds its own space.
        assert solve(puzzle) == report
        assert len(chunks) == 32 and exact == [8, 8]
        assert chunks[16].space is not space

    def test_one_space_per_solve_changes_no_answer(self, monkeypatch):
        """Random puzzles solved interleaved under tiny and default chunks
        give the oracle's reports and worlds, in one order for both."""
        rng = random.Random(2828)
        puzzles = [random_puzzle(rng, max_candidates=6000) for _ in range(60)]
        order = [(i, chunk) for i in range(len(puzzles)) for chunk in (self.TINY, None)]
        rng.shuffle(order)
        streams = {}
        for i, chunk in order:
            with monkeypatch.context() as patch:
                if chunk:
                    patch.setattr(solver, "_CHUNK_CANDIDATES", chunk)
                report = solve(puzzles[i]).to_json_dict()
                streams[i, chunk] = [w.key() for w in enumerate_worlds(puzzles[i])]
            del report["warnings"]
            assert report == oracle_report(puzzles[i]), f"random puzzle {i}"
            assert set(streams[i, chunk]) == oracle_world_keys(puzzles[i]), f"random puzzle {i}"
        for i in range(len(puzzles)):
            assert streams[i, self.TINY] == streams[i, None], f"random puzzle {i}"


class TestOneCompilePerStatement:
    # Every type for every suspect, two self-guilt statements, an unmodeled
    # one and an axiom, no truthful() reference: every chunk stays consistent.
    PUZZLE = ("puzzle { suspects A, B, C; criminals >= 0; "
              "statement s1 A: guilty(A) or island(A) = truthtellers; "
              "statement s2 B: not guilty(B) -> guilty(A) or island(B) = truthtellers; "
              'statement s3 C: unmodeled "I saw nothing"; '
              "axiom guilty(C) -> knows_whodunit(C); }")

    @pytest.mark.parametrize("chunk", [None, 2 ** 6])
    def test_each_statement_and_axiom_compiles_once_per_chunk(self, monkeypatch, chunk):
        if chunk:
            monkeypatch.setattr(solver, "_CHUNK_CANDIDATES", chunk)
        puzzle = parse(self.PUZZLE)
        compiled = {}
        compile_ = solver._Chunk.compile

        def counted_compile(chunk, *args, **kwargs):
            compiled[chunk.prefix] = compiled.get(chunk.prefix, 0) + 1
            return compile_(chunk, *args, **kwargs)

        monkeypatch.setattr(solver._Chunk, "compile", counted_compile)
        report = solve(puzzle)
        # One chunk, or one per type of A and of B.
        assert len(compiled) == (16 if chunk else 1)
        assert set(compiled.values()) == {2 + 1}
        assert report.world_count > 0


class TestLongFormulas:
    @pytest.mark.parametrize("op", ["and", "or"])
    def test_long_chain_solves_like_its_three_atoms(self, op):
        """The compiler walks a 5000-term statement without recursion."""
        long = no_recursion(parse, chain_puzzle_text(5000, op))
        short = parse(chain_puzzle_text(3, op))
        assert no_recursion(solve, long) == solve(short)
        assert no_recursion(list, (w.key() for w in enumerate_worlds(long))) == \
            [w.key() for w in enumerate_worlds(short)]

    @pytest.mark.parametrize("op", ["and", "or"])
    def test_long_forall_body_solves_like_its_three_atoms(self, op):
        """`axiom forall` expands a 10^4-term body without recursion."""
        def text(terms):
            atoms = ("guilty(X)", "type(X)=PT", "knows_whodunit(X)")
            chain = f" {op} ".join(atoms[i % 3] for i in range(terms))
            return ("puzzle {\n  suspects A, B, C;\n  criminals >= 1;\n"
                    "  statement s1 A: guilty(B) or not guilty(C);\n"
                    f"  axiom forall X: {chain};\n}}\n")

        long, short = no_recursion(parse, text(10_000)), parse(text(3))
        assert len(long.axioms) == len(short.axioms) == 3
        assert no_recursion(solve, long) == solve(short)
        assert no_recursion(list, (w.key() for w in enumerate_worlds(long))) == \
            [w.key() for w in enumerate_worlds(short)]


    @pytest.mark.parametrize("shape", ["and", "or", "->", "<->", "not", "parenthesized"])
    def test_check_world_accepts_every_world_of_a_long_formula(self, shape):
        """`check_world` evaluates a 5000-term chain, 3000 nested `not`s and a
        3000-level parenthesized nesting that no operand short-circuits
        without recursion, and accepts every world enumeration yields."""
        if shape == "not":
            text = chain_puzzle_text(1, "and").replace("guilty(A)", "not " * 3000 + "guilty(A)")
        elif shape == "parenthesized":
            atoms = ("guilty(A)", "type(B)=PT", "knows_whodunit(C)")
            body = "".join(f"{atoms[i % 3]} <-> not (" for i in range(1500))
            text = chain_puzzle_text(1, "and").replace("guilty(A)", body + "guilty(B)" + ")" * 1500)
        else:
            text = chain_puzzle_text(5000, shape)
        puzzle = no_recursion(parse, text)
        worlds = no_recursion(list, enumerate_worlds(puzzle))
        assert worlds
        for world in worlds:
            assert no_recursion(check_world, puzzle, world).ok, world.key()


class TestNoPerWorldEvaluation:
    def test_solve_and_enumerate_never_evaluate_a_single_world(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-world evaluation on the solve path")

        monkeypatch.setattr(solver, "eval_formula", refuse)
        monkeypatch.setattr(solver, "admissible_for_type", refuse)
        for name in CORPUS_NAMES:
            puzzle = parse(corpus_text(name))
            assert solve(puzzle).world_count == sum(1 for _ in enumerate_worlds(puzzle))


class TestMonotonicity:
    def test_adding_a_statement_never_adds_worlds(self):
        rng = random.Random(99)
        for _ in range(40):
            puzzle = random_puzzle(rng)
            before = enumerated_world_keys(puzzle)
            speaker = rng.choice(puzzle.suspects)
            # Stick to atoms already in the vocabulary so worlds stay comparable.
            extra_kind = rng.randrange(3)
            person = rng.choice(puzzle.suspects)
            if extra_kind == 0:
                body = Guilty(person)
            elif extra_kind == 1:
                body = Not(HasType(person, rng.choice(ALL_TYPES)))
            else:
                body = CountCmp("<=", rng.randrange(len(puzzle.suspects) + 1))
            bigger = Puzzle(
                suspects=puzzle.suspects,
                type_domain=puzzle.type_domain,
                count=puzzle.count,
                statements=puzzle.statements + (Statement("extra", speaker, body),),
                axioms=puzzle.axioms,
                type_cardinality=puzzle.type_cardinality,
            )
            after = enumerated_world_keys(bigger)
            assert after <= before


class TestGuiltAdmissionProperty:
    def test_consistent_confession_forces_guilt_on_truth_tellers_island(self):
        tt = frozenset({AT, PT})
        rng = random.Random(4242)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            suspects = tuple("ABC"[:n])
            speaker = rng.choice(suspects)
            statements = [Statement("conf", speaker, Guilty(speaker))]
            for i in range(rng.randint(0, 2)):
                statements.append(
                    Statement(f"s{i}", rng.choice(suspects),
                              random_formula(rng, suspects, depth=1))
                )
            puzzle = Puzzle(
                suspects=suspects,
                type_domain={s: tt for s in suspects},
                count=CountCmp(rng.choice(("<=", ">=")), rng.randrange(n + 1)),
                statements=tuple(statements),
            )
            report = solve(puzzle)
            if report.verdict is not Verdict.INCONSISTENT:
                checked += 1
                assert speaker in report.forced_guilty
        assert checked > 0
