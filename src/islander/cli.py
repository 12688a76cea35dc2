"""Command line front end: solve puzzle files, check the bundled corpus,
and run strategy simulations.

Exit codes are part of the interface so shell scripts can assert verdicts:
0 for a unique resolution (unique world or unique guilt set), 2 for
multiple resolutions, 3 for an inconsistent puzzle, and 1 for parse, usage
or I/O errors. `simulate` exits 0 only when every trial succeeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from importlib import resources
from pathlib import Path

from .dsl import ParseError, parse
from .interrogation import (
    ISLAND_MODES,
    STRATEGIES,
    AnswerValue,
    PreconditionError,
    describe_question,
    generate_knowledge_world,
    run_strategy,
)
from .solver import SearchSpaceError, SolveReport, Verdict, solve

DEFAULT_SEED = 1729
SEED_ENV_VAR = "ISLANDER_SEED"
_ADVERSARY_SALT = 0x5DEECE66D

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MULTIPLE = 2
EXIT_INCONSISTENT = 3

_VERDICT_EXIT = {
    Verdict.UNIQUE_WORLD: EXIT_OK,
    Verdict.UNIQUE_GUILT: EXIT_OK,
    Verdict.MULTIPLE: EXIT_MULTIPLE,
    Verdict.INCONSISTENT: EXIT_INCONSISTENT,
}


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"islander: {SEED_ENV_VAR} must be an integer, got {raw!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="islander",
        description="Solve guilt puzzles and simulate detective questioning strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a .puz file and print the report")
    p_solve.add_argument("file", help="puzzle file to solve")
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")

    p_corpus = sub.add_parser("corpus", help="solve the bundled corpus against expectations")
    p_corpus.add_argument("--json", action="store_true", help="machine-readable output")
    p_corpus.add_argument("--dir", default=None, help="corpus directory override")

    p_sim = sub.add_parser("simulate", help="run a strategy over randomized worlds")
    p_sim.add_argument("--strategy", required=True, choices=tuple(STRATEGIES))
    p_sim.add_argument("--island", default="mixed", choices=ISLAND_MODES)
    p_sim.add_argument("--n", type=int, default=5, help="number of persons per world")
    p_sim.add_argument("--criminals", default="1", help="criminal count, e.g. 2 or 1-3")
    p_sim.add_argument("--trials", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=None,
                       help=f"base seed (default {DEFAULT_SEED}, or ${SEED_ENV_VAR})")
    p_sim.add_argument("--knowledge-density", type=float, default=0.0)
    p_sim.add_argument("--count-public", action="store_true",
                       help="make the criminal count public knowledge")
    modes = dict.fromkeys(mode for strategy in STRATEGIES.values() for mode in strategy.modes)
    p_sim.add_argument("--mode", default="robust", choices=tuple(modes),
                       help="variant of a strategy that has several")
    p_sim.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    commands = {"solve": _cmd_solve, "corpus": _cmd_corpus, "simulate": _cmd_simulate}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()  # here, so that a reader gone away is met in this block
        return code
    except BrokenPipeError:  # stdout is flushed again at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except KeyboardInterrupt:
        print("islander: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a process that Ctrl-C ended
    except SystemExit as exc:
        if exc.code not in (0, None) and isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_ERROR
        return EXIT_OK if exc.code in (0, None) else int(exc.code)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _report_lines(report: SolveReport) -> list[str]:
    def names(values) -> str:
        return ", ".join(values) if values else "(none)"

    lines = [
        f"verdict: {report.verdict.value}",
        f"consistent worlds: {report.world_count}",
        f"forced guilty: {names(report.forced_guilty)}",
        f"forced innocent: {names(report.forced_innocent)}",
        "forced types: " + (
            ", ".join(f"{p}={t.value}" for p, t in report.forced_types.items()) or "(none)"
        ),
        f"unresolved: {names(report.unresolved)}",
    ]
    if report.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in report.warnings)
    return lines


def _cmd_solve(args) -> int:
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"islander: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        puzzle = parse(text)
    except ParseError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        report = solve(puzzle)
    except SearchSpaceError as exc:
        print(f"islander: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print("\n".join(_report_lines(report)))
    return _VERDICT_EXIT[report.verdict]


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def _corpus_entries(directory) -> list:
    return sorted((e for e in directory.iterdir() if e.name.endswith(".puz")),
                  key=lambda e: e.name)


def _corpus_detail(directory, entry, name: str) -> str:
    """Why one corpus puzzle fails its expectation, or "" when it passes."""
    try:
        report = solve(parse(entry.read_text(encoding="utf-8-sig")))
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read {entry.name}: {exc}"
    except ParseError as exc:
        return f"parse error: {exc}"
    except SearchSpaceError as exc:
        return str(exc)
    expected_name = f"{name}.expected.json"
    try:
        expected = json.loads((directory / expected_name).read_text(encoding="utf-8"))
    except OSError:
        return f"missing expectation file {expected_name}"
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return f"unreadable expectation file {expected_name}: {exc}"
    if not isinstance(expected, dict):
        return f"unreadable expectation file {expected_name}: not a JSON object"
    actual = report.to_json_dict()
    if actual == expected:
        return ""
    diffs = [key for key in sorted(set(expected) | set(actual))
             if expected.get(key) != actual.get(key)]
    return "mismatch in " + ", ".join(diffs)


def _cmd_corpus(args) -> int:
    directory = Path(args.dir) if args.dir else resources.files("islander") / "corpus"
    try:
        entries = _corpus_entries(directory)
    except OSError as exc:
        print(f"islander: cannot read {directory}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    results = []
    for entry in entries:
        name = entry.name[: -len(".puz")]
        detail = _corpus_detail(directory, entry, name)
        results.append({"name": name, "passed": not detail, "detail": detail})

    all_passed = bool(results) and all(r["passed"] for r in results)
    if args.json:
        print(json.dumps({"results": results, "all_passed": all_passed}, indent=2))
    else:
        if not results:
            print("no .puz files found")
        width = max((len(r["name"]) for r in results), default=0)
        for r in results:
            status = "PASS" if r["passed"] else f"FAIL  {r['detail']}"
            print(f"{r['name']:<{width}}  {status}")
    return EXIT_OK if all_passed else EXIT_ERROR


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _parse_criminals(raw: str, n: int):
    try:
        if "-" in raw:
            low_s, high_s = raw.split("-", 1)
            low, high = int(low_s), int(high_s)
        else:
            low = high = int(raw)
    except ValueError:
        raise SystemExit(f"islander: bad --criminals value {raw!r} (want e.g. 2 or 1-3)")
    if not 1 <= low <= high <= n:
        raise SystemExit(f"islander: criminal range {raw!r} is infeasible for n={n}")
    return low, high


def _transcript_json(transcript) -> list[dict]:
    rows = []
    for answer in transcript:
        row = {
            "person": answer.person,
            "question": describe_question(answer.question),
            "answer": answer.value.value,
        }
        if answer.value is AnswerValue.TOKEN:
            row["token"] = answer.token
        rows.append(row)
    return rows


def _cmd_simulate(args) -> int:
    strategy = STRATEGIES[args.strategy]
    if args.trials < 1:
        print("islander: --trials must be at least 1", file=sys.stderr)
        return EXIT_ERROR
    if args.n < 1:
        print("islander: --n must be at least 1", file=sys.stderr)
        return EXIT_ERROR
    criminals = _parse_criminals(args.criminals, args.n)
    # Someone may know another's guilt when there is a pair to know of.
    refusal = strategy.refusal(args.strategy, args.island, args.count_public,
                               strategy.needs_secret, args.mode, args.n, criminals,
                               args.knowledge_density > 0 and args.n > 1)
    if refusal:
        print(f"islander: precondition refused: {refusal}", file=sys.stderr)
        return EXIT_ERROR
    seed = args.seed if args.seed is not None else _default_seed()

    # Each trial's seed is drawn when the trial starts and only running
    # question statistics are kept, so memory does not grow with --trials.
    # Text mode prints ten failures, so it keeps only those, without their
    # transcripts, and a count.
    master = random.Random(seed)
    successes = failed = 0
    failures = []
    fewest, most, total = None, 0, 0
    for trial in range(args.trials):
        world_seed = master.randrange(2 ** 63)
        try:
            kw = generate_knowledge_world(
                n=args.n,
                island=args.island,
                criminals=criminals,
                density=args.knowledge_density,
                count_public=args.count_public,
                secret=strategy.needs_secret,
                seed=world_seed,
            )
            rng = random.Random(world_seed ^ _ADVERSARY_SALT)
            result = run_strategy(kw, args.strategy, rng, args.mode)
        except PreconditionError as exc:
            print(f"islander: precondition refused: {exc}", file=sys.stderr)
            return EXIT_ERROR
        questions = result.questions_asked
        fewest = questions if fewest is None else min(fewest, questions)
        most = max(most, questions)
        total += questions
        if strategy.succeeds(kw, result):
            successes += 1
            continue
        failed += 1
        if args.json or failed <= 10:
            failure = {
                "trial": trial,
                "world_seed": world_seed,
                "expected": sorted(kw.guilty),
                "accused": sorted(result.accused),
            }
            if args.json:
                failure["transcript"] = _transcript_json(result.transcript)
            failures.append(failure)

    stats = {"min": fewest, "max": most, "mean": round(total / args.trials, 4)}
    if args.json:
        payload = {
            "strategy": args.strategy,
            "island": args.island,
            "n": args.n,
            "criminals": args.criminals,
            "trials": args.trials,
            "seed": seed,
            "knowledge_density": args.knowledge_density,
            "count_public": args.count_public,
            "mode": args.mode,
            "successes": successes,
            "failures": failures,
            "question_stats": stats,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"strategy: {args.strategy} (island {args.island}, n {args.n}, "
              f"criminals {args.criminals}, seed {seed})")
        print(f"trials: {args.trials}  successes: {successes}")
        print(f"questions per trial: min {stats['min']}, mean {stats['mean']}, "
              f"max {stats['max']}")
        for f in failures:
            print(f"trial {f['trial']} (world seed {f['world_seed']}): "
                  f"expected {', '.join(f['expected'])}; accused "
                  f"{', '.join(f['accused']) or '(nobody)'}")
        if failed > 10:
            print(f"... and {failed - 10} more failures")
    return EXIT_OK if successes == args.trials else EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
