"""CLI behavior: exit codes, JSON output, corpus checking, simulation."""

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from islander import cli, interrogation
from islander.cli import main
from islander.interrogation import ISLAND_MODES, STRATEGIES
from islander.model import ALL_TYPES, CountCmp, Puzzle

from conftest import SUCCESSFUL_RUNS, chain_puzzle_text, count_constructions


def corpus_dir() -> Path:
    return Path(str(resources.files("islander") / "corpus"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def process_argv(*argv):
    """The command line of the CLI in a child process, run from this checkout."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return [sys.executable, "-c",
            "import sys; sys.path.insert(0, sys.argv.pop(1));"
            " from islander.cli import main; sys.exit(main())",
            src, *argv]


def run_process(*argv):
    """The CLI in a child process, so that a traceback would reach stderr."""
    done = subprocess.run(process_argv(*argv), capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def huge_roster_text(n: int) -> str:
    """A puzzle of `n` suspects of every type: 8^n candidate worlds."""
    return "puzzle { suspects " + ", ".join(f"S{i}" for i in range(n)) + "; criminals = 1; }"


class TestSolveCommand:
    def test_unique_guilt_exits_zero(self, capsys):
        code, out, _ = run(capsys, "solve", str(corpus_dir() / "jonathan.puz"))
        assert code == 0
        assert "forced guilty: Mike" in out

    def test_inconsistent_exits_three(self, capsys):
        code, out, _ = run(capsys, "solve", str(corpus_dir() / "ezra_liars.puz"))
        assert code == 3
        assert "inconsistent" in out

    def test_multiple_exits_two(self, capsys, tmp_path):
        puz = tmp_path / "open.puz"
        puz.write_text("puzzle { suspects A, B; criminals >= 1; }")
        code, out, _ = run(capsys, "solve", str(puz))
        assert code == 2
        assert "multiple" in out

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "missing.puz"))
        assert code == 1
        assert "missing.puz" in err

    def test_parse_error_exits_one_with_span(self, capsys, tmp_path):
        puz = tmp_path / "bad.puz"
        puz.write_text("puzzle { suspects A; criminals = 1; statement s1 A: gilty(A); }")
        code, _, err = run(capsys, "solve", str(puz))
        assert code == 1
        assert "gilty" in err
        assert "1:" in err  # line:column span

    def test_json_schema_fields(self, capsys):
        code, out, _ = run(capsys, "solve", str(corpus_dir() / "ben.puz"), "--json")
        assert code == 0
        payload = json.loads(out)
        for field in ("verdict", "consistent_world_count", "forced_guilty",
                      "forced_innocent", "forced_types", "unresolved", "warnings"):
            assert field in payload
        assert payload["forced_types"] == {
            "Neil": "AL", "Mike": "PT", "Nastia": "RL", "Leon": "AT"
        }

    def test_usage_error_exits_one(self, capsys):
        assert run(capsys, "solve")[0] == 1
        assert run(capsys, "frobnicate")[0] == 1

    def test_non_utf8_file_exits_one_without_traceback(self, tmp_path):
        puz = tmp_path / "latin1.puz"
        puz.write_bytes(b"puzzle { suspects Andr\xe9; criminals = 1; }")
        code, out, err = run_process("solve", str(puz))
        assert (code, out) == (1, "")
        assert err.startswith(f"islander: cannot read {puz}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_a_file_with_a_byte_order_mark_is_read_as_without(self, capsys, tmp_path):
        puz = tmp_path / "bom.puz"
        puz.write_bytes(b"\xef\xbb\xbf" + (corpus_dir() / "ben.puz").read_bytes())
        code, out, err = run(capsys, "solve", "--json", str(puz))
        assert (code, err) == (0, "")
        assert out == (corpus_dir() / "ben.expected.json").read_text(encoding="utf-8")

    def test_integer_past_the_conversion_limit_exits_one_without_traceback(self, tmp_path):
        puz = tmp_path / "huge.puz"
        puz.write_text("puzzle { suspects A; criminals = " + "1" * 5000 + "; }")
        code, out, err = run_process("solve", str(puz))
        assert (code, out) == (1, "")
        assert err == f"{puz}:1:34: integer literal of 5000 digits is too long\n"

    def test_a_search_space_too_long_to_print_exits_one_without_traceback(self, tmp_path):
        puz = tmp_path / "crowd.puz"
        puz.write_text(huge_roster_text(4800))
        code, out, err = run_process("solve", str(puz))
        assert (code, out) == (1, "")
        assert err == ("islander: search space of more than 2^14399 candidate worlds exceeds "
                       "the ceiling of 268435456\n")

    def test_each_puzzle_is_validated_once(self, capsys, monkeypatch):
        # A parsed puzzle is checked by the parser alone, as it reads it; a
        # hand-built one runs `validate` once, when built.
        calls = []
        validate = Puzzle.validate

        def counting(puzzle):
            calls.append(puzzle)
            validate(puzzle)

        monkeypatch.setattr(Puzzle, "validate", counting)
        code, out, _ = run(capsys, "solve", "--json", str(corpus_dir() / "ashwin.puz"))
        assert code == 0 and json.loads(out)["verdict"] == "unique_guilt"
        assert calls == []
        puzzle = Puzzle(suspects=("A",), type_domain={"A": frozenset(ALL_TYPES)},
                        count=CountCmp("=", 1))
        assert calls == [puzzle]


class TestClosedPipe:
    def test_solve_into_a_pipe_closed_before_the_start_exits_one_quietly(self):
        # The read end is closed before the child starts, so its first write
        # fails; without the pipe the command exits 0.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.Popen(
                process_argv("solve", "--json", str(corpus_dir() / "ashwin.puz")),
                stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        _, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (1, b"")

    def test_simulate_json_into_a_closed_pipe_exits_one_without_traceback(self):
        # About 450 KB of JSON, far more than a pipe buffers, so the child is
        # still writing when the reader goes away.
        child = subprocess.Popen(
            process_argv("simulate", "--strategy", "solve_liars", "--island", "liars",
                         "--mode", "paper-literal", "--knowledge-density", "0.3",
                         "--n", "40", "--criminals", "1-3", "--trials", "50",
                         "--seed", "1", "--json"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = child.stdout.read(100)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 1
        assert head.startswith(b'{\n  "strategy": "solve_liars"')
        assert err == b""


class TestInterrupt:
    def test_ctrl_c_prints_one_line_and_exits_130(self, capsys, monkeypatch):
        def interrupted(puzzle):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "solve", interrupted)
        code, out, err = run(capsys, "solve", str(corpus_dir() / "ben.puz"))
        assert (code, out, err) == (130, "", "islander: interrupted\n")


class TestLongFormulaFile:
    def test_solve_of_a_5000_term_statement_exits_with_its_verdict(self, capsys, tmp_path):
        long, short = tmp_path / "long.puz", tmp_path / "short.puz"
        long.write_text(chain_puzzle_text(5000, "or"))
        short.write_text(chain_puzzle_text(3, "or"))
        code, out, _ = run(capsys, "solve", str(short), "--json")
        done = run_process("solve", str(long), "--json")
        assert "Traceback" not in done[2]
        assert done == (code, out, "")


class TestCorpusCommand:
    def test_bundled_corpus_passes(self, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 10

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "corpus", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert {r["name"] for r in payload["results"]} >= {"ashwin", "ben", "mike"}

    def test_tampered_expectation_named_and_fails(self, capsys, tmp_path):
        for entry in corpus_dir().iterdir():
            shutil.copy(entry, tmp_path / entry.name)
        tampered = tmp_path / "jonathan.expected.json"
        payload = json.loads(tampered.read_text())
        payload["forced_guilty"] = ["Leon"]
        tampered.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path))
        assert code == 1
        lines = [l for l in out.splitlines() if l.startswith("jonathan ")]
        assert lines and "FAIL" in lines[0] and "forced_guilty" in lines[0]
        assert out.count("PASS") == 9

    def test_a_puzzle_with_a_byte_order_mark_passes(self, capsys, tmp_path):
        shutil.copy(corpus_dir() / "ben.expected.json", tmp_path / "ben.expected.json")
        bom_text = b"\xef\xbb\xbf" + (corpus_dir() / "ben.puz").read_bytes()
        (tmp_path / "ben.puz").write_bytes(bom_text)
        code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path))
        assert code == 0 and out.count("PASS") == 1 and "FAIL" not in out

    def test_a_compact_atom_lexed_for_an_earlier_puzzle_is_checked_again(self, tmp_path):
        """One process: `guilty(Bo)` is first lexed in a.puz, where Bo is a
        suspect; b.puz declares no Bo and must be refused at it."""
        first = ("puzzle { suspects Bo, Cy; island truthtellers; criminals = 1; "
                 "statement s Bo: guilty(Bo); }\n")
        (tmp_path / "a.puz").write_text(first)
        code, out, _ = run_process("solve", "--json", str(tmp_path / "a.puz"))
        assert code == 0
        (tmp_path / "a.expected.json").write_text(out)
        second = "puzzle { suspects Cy; criminals = 1; statement s Cy: guilty(Bo); }\n"
        (tmp_path / "b.puz").write_text(second)
        code, out, err = run_process("corpus", "--dir", str(tmp_path))
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "a  PASS", f"b  FAIL  parse error: 1:{second.index('Bo') + 1}: unknown suspect 'Bo'"]

    def test_missing_directory_exits_one_without_traceback(self, tmp_path):
        missing = tmp_path / "nowhere"
        code, out, err = run_process("corpus", "--dir", str(missing))
        assert (code, out) == (1, "")
        assert err.startswith(f"islander: cannot read {missing}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_file_as_directory_exits_one_without_traceback(self):
        puz = corpus_dir() / "will.puz"
        code, out, err = run_process("corpus", "--dir", str(puz))
        assert (code, out) == (1, "")
        assert err.startswith(f"islander: cannot read {puz}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_non_utf8_puzzle_is_a_fail_row(self, tmp_path):
        shutil.copy(corpus_dir() / "will.puz", tmp_path / "will.puz")
        shutil.copy(corpus_dir() / "will.expected.json", tmp_path / "will.expected.json")
        (tmp_path / "latin1.puz").write_bytes(b"puzzle { suspects Andr\xe9; criminals = 1; }")
        code, out, err = run_process("corpus", "--dir", str(tmp_path))
        assert (code, err) == (1, "")
        assert out.splitlines()[0].startswith("latin1  FAIL  cannot read latin1.puz: ")
        assert out.splitlines()[1] == "will    PASS"

    def test_non_utf8_or_non_object_expectation_is_a_fail_row(self, tmp_path):
        for content in (b"{\"verdict\": \"unique_guilt\xe9\"}", b"[]"):
            shutil.copy(corpus_dir() / "will.puz", tmp_path / "will.puz")
            (tmp_path / "will.expected.json").write_bytes(content)
            code, out, err = run_process("corpus", "--dir", str(tmp_path))
            assert (code, err) == (1, "")
            assert out.startswith("will  FAIL  unreadable expectation file will.expected.json: ")

    def test_a_search_space_too_long_to_print_is_a_fail_row(self, tmp_path):
        shutil.copy(corpus_dir() / "will.puz", tmp_path / "will.puz")
        shutil.copy(corpus_dir() / "will.expected.json", tmp_path / "will.expected.json")
        (tmp_path / "crowd.puz").write_text(huge_roster_text(4800))
        code, out, err = run_process("corpus", "--dir", str(tmp_path))
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "crowd  FAIL  search space of more than 2^14399 candidate worlds exceeds the "
            "ceiling of 268435456",
            "will   PASS"]

    def test_missing_expectation_fails(self, capsys, tmp_path):
        shutil.copy(corpus_dir() / "will.puz", tmp_path / "will.puz")
        code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path))
        assert code == 1
        assert "missing expectation" in out


class TestSimulateCommand:
    def test_mixed_strategy_full_success(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--strategy", "solve_mixed", "--n", "6",
            "--criminals", "1-4", "--trials", "1000", "--seed", "7",
            "--knowledge-density", "0.5",
        )
        assert code == 0
        assert "successes: 1000" in out

    def test_precondition_refusal(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--strategy", "count_known", "--island", "tt",
            "--n", "5", "--criminals", "2", "--trials", "10", "--seed", "3",
            "--knowledge-density", "0.5", "--count-public",
        )
        assert code == 1
        assert "precondition" in err

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_island_outside_the_declared_islands_refused_before_any_draw(
        self, capsys, monkeypatch, seed
    ):
        def no_draw(**kwargs):
            raise AssertionError("a world was drawn")

        monkeypatch.setattr(cli, "generate_knowledge_world", no_draw)
        code, out, err = run(
            capsys, "simulate", "--strategy", "solve_truthtellers", "--island", "mixed",
            "--n", "1", "--trials", "1", "--seed", str(seed),
        )
        assert (code, out) == (1, "")
        assert err == ("islander: precondition refused: the solve_truthtellers strategy is "
                       "declared for --island tt, not mixed\n")
        for name, strategy in STRATEGIES.items():
            for island in set(ISLAND_MODES) - set(strategy.islands):
                code, out, err = run(capsys, "simulate", "--strategy", name,
                                     "--island", island, "--seed", str(seed))
                assert (code, out) == (1, "")
                assert err.startswith("islander: precondition refused: ")
                assert " or ".join(strategy.islands) in err

    @pytest.mark.parametrize("strategy, flags, declared, given", [
        ("count_known", (), "public", "hidden"),
        ("count_unknown", ("--count-public",), "hidden", "public"),
    ])
    def test_count_outside_the_declared_count_refused_before_any_draw(
        self, capsys, monkeypatch, strategy, flags, declared, given
    ):
        def no_draw(**kwargs):
            raise AssertionError("a world was drawn")

        monkeypatch.setattr(cli, "generate_knowledge_world", no_draw)
        code, out, err = run(capsys, "simulate", "--strategy", strategy, "--n", "3",
                             "--trials", "2", "--seed", "1", *flags)
        assert (code, out) == (1, "")
        assert err == (f"islander: precondition refused: the {strategy} strategy is declared "
                       f"for a {declared} criminal count, not a {given} one\n")

    def test_paper_literal_liars_mode(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--strategy", "solve_liars", "--island", "liars",
            "--n", "5", "--criminals", "1-4", "--trials", "50", "--seed", "11",
            "--mode", "paper-literal",
        )
        assert code == 0
        assert "successes: 50" in out

    def test_mode_flag_rejected_for_other_strategies(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--strategy", "solve_mixed", "--mode", "paper-literal",
        )
        assert (code, out) == (1, "")
        assert err == ("islander: precondition refused: the solve_mixed strategy is declared "
                       "for --mode robust, not paper-literal\n")

    def test_the_flags_decide_every_refusal(self, capsys, monkeypatch):
        """Every entry, island mode, count premise, density, criminal range,
        mode and crowd size: a run is refused from its flags alone, with one
        line, no stdout and no world drawn, or no trial of it is refused."""
        draws = []
        generate = cli.generate_knowledge_world

        def recorded(**kwargs):
            draws.append(kwargs)
            return generate(**kwargs)

        monkeypatch.setattr(cli, "generate_knowledge_world", recorded)
        modes = ("robust", "paper-literal")
        ran = refused = 0
        for name, island, public, density, criminals, mode, n in itertools.product(
            STRATEGIES, ISLAND_MODES, (False, True), ("0", "0.3"), ("1", "1-3"), modes, (1, 2, 5)
        ):
            argv = ["simulate", "--strategy", name, "--island", island, "--n", str(n),
                    "--criminals", criminals, "--knowledge-density", density, "--mode", mode,
                    "--trials", "6", "--seed", "3", *(["--count-public"] * public)]
            draws.clear()
            code, out, err = run(capsys, *argv)
            if not draws:
                assert (code, out) == (1, ""), argv
                assert len(err.splitlines()) == 1, argv
                assert err.startswith(("islander: precondition refused: the ",
                                       "islander: criminal range ")), argv
                refused += 1
                continue
            assert "precondition refused" not in err, (argv, err)
            ran += 1
        assert ran and refused

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_a_literal_list_that_may_hold_everyone_is_refused_before_any_draw(
        self, capsys, monkeypatch, seed
    ):
        def no_draw(**kwargs):
            raise AssertionError("a world was drawn")

        monkeypatch.setattr(cli, "generate_knowledge_world", no_draw)
        code, out, err = run(
            capsys, "simulate", "--strategy", "solve_liars", "--island", "liars",
            "--mode", "paper-literal", "--count-public", "--criminals", "1-2", "--n", "2",
            "--trials", "1", "--seed", str(seed),
        )
        assert (code, out) == (1, "")
        assert err == ("islander: precondition refused: the solve_liars strategy is declared "
                       "for fewer criminals than persons in --mode paper-literal with a public "
                       "count, not 1-2 of 2\n")

    def test_a_crowd_of_no_one_names_the_n_flag(self, capsys):
        code, out, err = run(capsys, "simulate", "--strategy", "solve_mixed", "--n", "0",
                             "--trials", "1")
        assert (code, out, err) == (1, "", "islander: --n must be at least 1\n")

    def test_infeasible_criminals_range(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--strategy", "solve_mixed", "--n", "3",
            "--criminals", "5", "--trials", "5",
        )
        assert code == 1
        assert "infeasible" in err

    def test_crowd_limit_refused_without_traceback(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "simulate", "--strategy", "solve_mixed", "--n", "1000000",
                "--criminals", "1", "--trials", "1", "--knowledge-density", "0.5",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("islander: precondition refused: ")
        assert "2048" in err and "Traceback" not in err
        assert peak < 2 ** 20

    def test_trials_must_be_positive(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--strategy", "solve_mixed", "--trials", "0",
        )
        assert code == 1
        assert "trials" in err

    def test_json_output_and_question_stats(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--strategy", "neil", "--island", "tt", "--n", "4",
            "--criminals", "1", "--count-public", "--trials", "20", "--seed", "5",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 20
        assert payload["successes"] == 20
        assert payload["failures"] == []
        assert payload["question_stats"]["max"] == 4

    @pytest.mark.parametrize("strategy, island",
                             [("classify_islands", "mixed"), ("secret_attribute", "tt")])
    def test_strategies_that_read_no_row_draw_no_knowledge_rows(
        self, capsys, monkeypatch, strategy, island
    ):
        def no_draws(rng, n, density):
            raise AssertionError("the knowledge rows were drawn")

        monkeypatch.setattr(interrogation, "_draw_rows", no_draws)
        code, out, _ = run(
            capsys, "simulate", "--strategy", strategy, "--island", island,
            "--n", "200", "--criminals", "1-3", "--knowledge-density", "0.3", "--trials", "3",
            "--seed", "5", "--json",
        )
        assert code == 0 and json.loads(out)["successes"] == 3

    def test_a_failing_json_run_prints_every_failure_with_its_transcript(self, capsys):
        """No golden run fails; this one fails in every trial, so its stdout
        holds 20 transcripts of 7 rows, each read through `_transcript_json`."""
        code, out, err = run(
            capsys, "simulate", "--strategy", "solve_liars", "--island", "liars",
            "--mode", "paper-literal", "--knowledge-density", "0.6", "--criminals", "1-3",
            "--n", "7", "--trials", "20", "--seed", "11", "--json",
        )
        failures = json.loads(out)["failures"]
        assert code == 1 and err == ""
        assert len(failures) == 20 and sum(len(f["transcript"]) for f in failures) == 140
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            "ce1c12ba0e58c263751c9abad881c2b98590338df6c7718175de1f3637b05fc8"

    @pytest.mark.parametrize("name, mode, island, criminals, density, public", SUCCESSFUL_RUNS)
    def test_a_successful_json_run_builds_no_answer(
        self, capsys, monkeypatch, name, mode, island, criminals, density, public
    ):
        built = count_constructions(monkeypatch, interrogation.Answer,
                                    interrogation.PossibleSubset, interrogation._AllBut)
        low, high = criminals
        argv = ["simulate", "--strategy", name, "--island", island, "--n", "30",
                "--criminals", f"{low}-{high}", "--knowledge-density", str(density),
                "--trials", "3", "--seed", "5", "--json", "--mode", mode]
        code, out, _ = run(capsys, *argv, *["--count-public"] * public)
        assert code == 0 and json.loads(out)["successes"] == 3
        assert built[interrogation.Answer] == 0
        if mode == "robust" and name in ("solve_liars", "solve_mixed"):
            assert built[interrogation.PossibleSubset] == built[interrogation._AllBut] == 0

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ISLANDER_SEED", "99")
        _, out, _ = run(
            capsys, "simulate", "--strategy", "classify_islands", "--n", "3",
            "--criminals", "1", "--trials", "5", "--json",
        )
        assert json.loads(out)["seed"] == 99
        monkeypatch.setenv("ISLANDER_SEED", "not-a-number")
        code, _, err = run(
            capsys, "simulate", "--strategy", "classify_islands", "--n", "3",
            "--criminals", "1", "--trials", "5",
        )
        assert code == 1
        assert "ISLANDER_SEED" in err

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ISLANDER_SEED", "99")
        _, out, _ = run(
            capsys, "simulate", "--strategy", "classify_islands", "--n", "3",
            "--criminals", "1", "--trials", "5", "--seed", "123", "--json",
        )
        assert json.loads(out)["seed"] == 123

    def test_strategy_choices_are_the_registry(self):
        simulate = cli._build_parser()._subparsers._group_actions[0].choices["simulate"]
        (strategy,) = [a for a in simulate._actions if a.dest == "strategy"]
        assert strategy.choices == tuple(STRATEGIES)


class TestSimulateMemory:
    def test_memory_does_not_grow_with_trials(self, capsys):
        def peak(trials):
            argv = ["simulate", "--strategy", "classify_islands", "--n", "2",
                    "--trials", str(trials), "--seed", "5", "--json"]
            tracemalloc.start()
            try:
                code = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            out = json.loads(capsys.readouterr().out)
            assert code == 0 and out["successes"] == trials
            return peak

        peak(10)
        assert peak(20000) - peak(2000) < 256 * 2 ** 10

    def test_asking_everyone_about_everyone_keeps_under_32_bytes_a_question(
            self, capsys, monkeypatch):
        # `solve_truthtellers` asks the same n(n-1) questions first, then one
        # more of each person the sweep did not accuse.
        swept = []
        sweep = interrogation._ask_about_others

        def counted(kw):
            result = sweep(kw)
            swept.append(len(result.accused))
            return result

        monkeypatch.setattr(interrogation, "_ask_about_others", counted)
        for strategy in (["ask_all_about_others"], ["solve_truthtellers", "--island", "tt"]):
            argv = ["simulate", "--strategy", *strategy, "--n", "300", "--knowledge-density",
                    "0.3", "--trials", "1", "--seed", "1", "--json"]
            swept.clear()
            tracemalloc.start()
            try:
                code = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            out = json.loads(capsys.readouterr().out)
            questions = out["question_stats"]["max"]
            assert code == 0 and out["successes"] == 1 and len(swept) == 1, strategy
            second_phase = 300 - swept[0] if strategy[0] == "solve_truthtellers" else 0
            assert questions == 300 * 299 + second_phase, strategy
            # About 82 bytes a question when each answer was an `Answer`
            # record, and 38 for `solve_truthtellers` when its second phase
            # copied the first phase's transcript.
            assert peak < 32 * questions, (strategy, peak / questions)

    def test_json_failures_are_kept_as_their_text(self, capsys):
        """Every trial of this run fails, so its stdout holds 500 transcripts
        of 7 rows, about 0.55 MB. Each failure is kept as the text it prints
        as; when each was kept as its dict and transcript rows until the end,
        the peak was 5.2 MB."""
        argv = ["simulate", "--strategy", "solve_liars", "--island", "liars",
                "--mode", "paper-literal", "--knowledge-density", "0.6", "--criminals", "1-3",
                "--n", "7", "--trials", "500", "--seed", "11", "--json"]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        failures = json.loads(out)["failures"]
        assert code == 1 and len(failures) == 500
        assert peak < 5 * len(out), (peak, len(out))

    def test_text_mode_memory_does_not_grow_with_failing_trials(self, capsys):
        def peak(trials):
            argv = ["simulate", "--strategy", "solve_liars", "--mode", "paper-literal",
                    "--island", "liars", "--knowledge-density", "0.5", "--n", "50",
                    "--criminals", "1-3", "--seed", "3", "--trials", str(trials)]
            tracemalloc.start()
            try:
                code = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            out = capsys.readouterr().out
            assert code == 1 and "successes: 0" in out
            assert f"... and {trials - 10} more failures" in out
            return peak

        peak(11)
        assert peak(500) - peak(50) < 256 * 2 ** 10


class TestDeterminism:
    def test_solve_json_is_byte_identical(self, capsys):
        argv = ("solve", str(corpus_dir() / "ashwin.puz"), "--json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_corpus_json_is_byte_identical(self, capsys):
        _, first, _ = run(capsys, "corpus", "--json")
        _, second, _ = run(capsys, "corpus", "--json")
        assert first == second

    def test_simulate_json_is_byte_identical(self, capsys):
        argv = (
            "simulate", "--strategy", "solve_liars", "--island", "liars",
            "--n", "6", "--criminals", "1-5", "--trials", "40", "--seed", "17",
            "--json",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestParserReuse:
    def test_reused_parser_matches_fresh_parsers(self, capsys):
        argvs = (
            ("solve", str(corpus_dir() / "ben.puz"), "--json"),
            ("simulate", "--strategy", "bogus"),
            ("--help",),
            ("simulate", "--strategy", "neil", "--island", "tt", "--criminals", "1",
             "--count-public", "--trials", "3", "--seed", "4", "--json"),
            ("simulate", "--help"),
            ("solve",),
            ("solve", str(corpus_dir() / "will.puz")),
            ("corpus", "--json", "--dir", str(corpus_dir())),
            ("simulate", "--strategy", "solve_mixed", "--trials", "2", "--seed", "9"),
        )
        reused = [run(capsys, *argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 1, 0, 0, 0, 1, 0, 0, 0]
        assert "usage: islander" in reused[2][1] and "invalid choice" in reused[1][2]
