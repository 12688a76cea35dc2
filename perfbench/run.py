"""Benchmark entry point for islander.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports the package from
`src/` and nothing installed. It is a single-process closed loop: one op at
a time, the next only after the previous one returned, no threads. A run
makes its inputs from the seed, runs whole passes over them (every input
once per pass, in a seeded order) until it has measured for S seconds, at
least three passes and at least 100 ops, and checks every op's output.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs each
op untraced and then traced, and prints the per-layer metrics and the
tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A wrong output prints "correct": false and exits 1; a checkout without the
package exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DEFAULT_SEED = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "corpus_pass_s": "s",
}

PER_LAYER_UNITS = {
    "dsl.parse_s": "s",
    "dsl.parse_bytes_per_s": "B/s",
    "dsl.serialize_s": "s",
    "dsl.formula_nodes": "count",
    "dsl.failures": "count",
    "dsl.failures.RecursionError": "count",
    "dsl.failures.ParseError": "count",
    "dsl.failures.other": "count",
    "model.validate_s": "s",
    "model.eval_per_s": "1/s",
    "semantics.admissible_per_s": "1/s",
    "solver.solve_s": "s",
    "solver.enumerate_s": "s",
    "solver.aggregate_s": "s",
    "solver.candidates": "count",
    "solver.worlds": "count",
    "solver.worlds_per_candidate": "ratio",
    "solver.us_per_candidate": "us",
    "interrogation.generate_s": "s",
    "interrogation.knowledge_entries": "count",
    "interrogation.strategy_s": "s",
    "interrogation.truthful_s": "s",
    "interrogation.spoken_s": "s",
    "interrogation.questions": "count",
    "interrogation.us_per_question": "us",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

def import_islander() -> None:
    """Import the package from this checkout's src/, or exit 2."""
    if not (SRC / "islander" / "__init__.py").is_file():
        print(f"perfbench: no islander package under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import islander

    if Path(islander.__file__).resolve().parent != SRC / "islander":
        print(f"perfbench: imported islander from {islander.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_islander()
    import measure
    from workloads import WORKLOADS, WrongOutput

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    measure.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=measure.OUT_DIR, prefix="inputs-") as workdir:
        wl = WORKLOADS[args.workload](args.seed, Path(workdir))
        loop = (measure.TracedLoop if args.trace else measure.Loop)(wl, args.seed)
        try:
            metrics = (measure.per_layer if args.trace else measure.end_to_end)(loop, args.seconds)
        except WrongOutput as exc:
            print(f"perfbench: wrong output: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": max(1, loop.attempted),
                              "failed": loop.failed + 1, "metrics": {}}))
            return 1

    print(f"workload {wl.name}, seed {args.seed}: {loop.attempted} ops over "
          f"{len(wl.inputs)} inputs x {loop.passes} passes, {loop.failed} failed")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
