"""The measurement loops: end-to-end metrics untraced, per-layer metrics traced.

Import this only after `islander` is importable: the workloads import it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import TraceState, WrongOutput, run_cli, run_probes, trace_targets

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 3
MIN_OPS = 100
# Corpus-pass samples per run, spread evenly over it; every third one also
# takes a set-up sample.
SIDE_SLOTS = 30
# reference_work()'s time, in seconds, on a shared 2-vCPU x86-64 virtual
# machine (Python 3.11) when other tenants did not slow it. Timings are
# reported at this reference speed: see scaled().
REFERENCE_S = 0.0032

# Counts that depend only on the inputs and the program's answers; a traced
# run fails if they differ between passes or from an earlier run of this
# code with the same seed.
REPEATABLE_COUNTERS = (
    "solver.candidates", "solver.worlds", "dsl.formula_nodes",
    "interrogation.questions", "interrogation.knowledge_entries",
)

# A fresh interpreter: import and one warm-up op, then print the clock.
SETUP_CHILD = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import islander, islander.cli
mode, args = sys.argv[2], sys.argv[3:]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if mode == "cli":
        islander.cli.main(args)
    else:
        with open(args[0], encoding="utf-8") as fh:
            puzzle = islander.dsl.parse(fh.read())
        islander.dsl.parse(islander.dsl.serialize(puzzle))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def setup_sample(wl) -> float:
    """Seconds from starting a fresh interpreter until `import islander,
    islander.cli` returned and one warm-up op of the workload ran. The child
    reads the same system-wide monotonic clock as the parent."""
    mode, args = wl.warmup()
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), mode, *args],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise WrongOutput(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def corpus_pass_sample() -> float:
    """Seconds of one `islander corpus --json` over the bundled corpus."""
    gc.collect()
    start = time.perf_counter()
    rc, out, _ = run_cli(["corpus", "--json"])
    elapsed = time.perf_counter() - start
    report = json.loads(out)
    if rc != 0 or not report["all_passed"] or len(report["results"]) != 10:
        raise WrongOutput("corpus --json did not pass all 10 bundled puzzles")
    return elapsed


def _tree(depth: int) -> tuple:
    return (depth,) if depth == 0 else (_tree(depth - 1), _tree(depth - 1))


def _tree_size(node: tuple) -> int:
    return 1 if len(node) == 1 else _tree_size(node[0]) + _tree_size(node[1])


def reference_work() -> int:
    """A fixed piece of pure-Python work that no change to islander touches:
    building and walking a tree of tuples, dict lookups by string key, and
    joining and splitting text, the kinds of work the package's parser,
    evaluator and serializer do."""
    total = _tree_size(_tree(12))
    env = {f"p{i}": i % 3 == 0 for i in range(64)}
    keys = list(env)
    for i in range(30000):
        total += env[keys[i & 63]]
    text = " and ".join(f"guilty({k})" for k in keys * 16)
    return total + len(text.split(" and "))


def reference_sample() -> float:
    """Seconds one reference_work() takes, with the cyclic collector off so
    that the objects the program under test left alive cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(ratios: list[float]) -> float:
    """Seconds at the reference speed: the median of a measurement's
    samples, each divided by the reference time around it, times
    REFERENCE_S."""
    return statistics.median(ratios) * REFERENCE_S


class Loop:
    """Whole passes over a workload's inputs, each op timed and checked.

    The host is shared: other tenants make the same work run 1.6 times
    slower for seconds at a time, and at times for a whole run, and an op
    slows by the same factor as reference_work(). So a reference sample runs
    after every op and every side measurement, and each of those is recorded
    as its time over the faster of the reference samples just before and
    just after it.
    """

    def __init__(self, wl, seed: int) -> None:
        self.wl = wl
        self.order_rng = random.Random(f"order:{seed}")
        self.ratios: list[list[float]] = [[] for _ in wl.inputs]
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.last_reference = 0.0

    def over_reference(self, seconds: float) -> float:
        """`seconds`, just measured, over the reference time around it."""
        after = reference_sample()
        ratio = seconds / min(self.last_reference, after)
        self.last_reference = after
        return ratio

    def timed_op(self, index: int, op) -> tuple[float, object, Exception | None]:
        """(seconds, result, exception) of one op on an input. The cyclic
        collector first clears what earlier ops left, so every op starts
        from the same collector state, as it would in a fresh process."""
        error = result = None
        gc.collect()
        start = time.perf_counter()
        try:
            result = op(self.wl.inputs[index])
        except Exception as exc:  # judged by the workload's check
            error = exc
        return time.perf_counter() - start, result, error

    def judge(self, index: int, result, error) -> str | None:
        """Count the op; the exception class if it failed as a known defect."""
        self.attempted += 1
        if self.wl.check(self.wl.inputs[index], result, error):
            return None
        self.failed += 1
        return type(error).__name__

    def step(self, index: int) -> None:
        elapsed, result, error = self.timed_op(index, self.wl.op)
        self.ratios[index].append(self.over_reference(elapsed))
        self.judge(index, result, error)

    def run(self, seconds: float, min_passes: int, min_ops: int, side=None) -> None:
        """Whole passes, every input once per pass, until `seconds` of wall
        time have passed since the first op and the minimum passes and ops
        are done; a slow program stops at three times `seconds` so the run
        still ends in time. The wall time includes the output checks,
        reference and side samples. `side(k)`, if given, runs between two
        ops at each of SIDE_SLOTS moments spread evenly over `seconds`, so
        its samples spread over the run."""
        start = time.perf_counter()
        self.last_reference = reference_sample()
        slot = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= 3 * seconds or (elapsed >= seconds and self.passes >= min_passes
                                          and self.attempted >= min_ops):
                break
            order = list(range(len(self.wl.inputs)))
            self.order_rng.shuffle(order)
            for index in order:
                self.step(index)
                if (side is not None and slot < SIDE_SLOTS
                        and time.perf_counter() - start >= slot * seconds / SIDE_SLOTS):
                    side(slot)
                    slot += 1
            self.passes += 1
            self.end_pass()

    def end_pass(self) -> None:
        pass


def end_to_end(loop: Loop, seconds: float) -> dict:
    setups: list[float] = []
    corpus_passes: list[float] = []

    def side(slot: int) -> None:
        corpus_passes.append(loop.over_reference(corpus_pass_sample()))
        if slot % 3 == 0:
            setups.append(loop.over_reference(setup_sample(loop.wl)))

    loop.run(seconds, MIN_PASSES, MIN_OPS, side)
    per_input = sorted(scaled(r) for r in loop.ratios)
    deciles = statistics.quantiles(per_input, n=10, method="inclusive")
    return {
        "setup_s": scaled(setups),
        "ops_per_s": len(per_input) / sum(per_input),
        "op_ms_p50": statistics.median(per_input) * 1e3,
        "op_ms_p90": deciles[8] * 1e3,
        "success_rate": (loop.attempted - loop.failed) / loop.attempted,
        "corpus_pass_s": scaled(corpus_passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class TracedLoop(Loop):
    """Each op runs untraced, then traced, then the probes run after it."""

    def __init__(self, wl, seed: int) -> None:
        super().__init__(wl, seed)
        self.seed = seed
        self.tracer = Tracer()
        self.state = TraceState()
        self.tracer.install(trace_targets(self.state))
        self.root = "op" if wl.name == "dsl_roundtrip" else "cli.main"
        self.probe_rng = random.Random(f"probe:{seed}")
        self.untraced = 0.0
        self.traced = 0.0
        self.traced_ops = 0
        self.pass_counters: list[dict] = []

    def traced_op(self, item):
        with self.tracer.active(), self.tracer.span(self.root):
            return self.wl.op(item)

    def step(self, index: int) -> None:
        untraced, result, error = self.timed_op(index, self.wl.op)
        self.judge(index, result, error)
        self.tracer.op = self.traced_ops
        traced, result, error = self.timed_op(index, self.traced_op)
        failure = self.judge(index, result, error)
        if failure:
            self.state.counters[f"failures.{failure}"] += 1
        self.untraced += untraced
        self.traced += traced
        self.traced_ops += 1
        run_probes(self.tracer, self.state, self.probe_rng)

    def end_pass(self) -> None:
        self.pass_counters.append(dict(self.state.counters))
        self.state.counters.clear()


def per_layer(loop: TracedLoop, seconds: float) -> dict:
    loop.run(seconds, 1, 0)
    first = loop.pass_counters[0]
    for counters in loop.pass_counters[1:]:
        if counters != first:
            raise WrongOutput(f"counters differ between passes: {first} != {counters}")
    check_counters_repeat(loop.wl.name, loop.seed, first)

    tr = loop.tracer

    def per_pass(name: str) -> float:
        return tr.total(name) / loop.passes

    def rate(count: float, over: float) -> float:
        return count / over if over > 0 else 0.0

    failures = {k.split(".", 1)[1]: v for k, v in first.items() if k.startswith("failures.")}
    solve_s, enumerate_s = per_pass("solver.solve"), per_pass("solver.enumerate_worlds")
    candidates = first.get("solver.candidates", 0)
    questions = first.get("interrogation.questions", 0)
    strategy_s = per_pass("interrogation.strategy")
    metrics = {
        "dsl.parse_s": per_pass("dsl.parse"),
        "dsl.parse_bytes_per_s": rate(first.get("dsl.parse_bytes", 0), per_pass("dsl.parse")),
        "dsl.serialize_s": per_pass("dsl.serialize"),
        "dsl.formula_nodes": first.get("dsl.formula_nodes", 0),
        "dsl.failures": sum(failures.values()),
        "dsl.failures.RecursionError": failures.get("RecursionError", 0),
        "dsl.failures.ParseError": failures.get("ParseError", 0),
        "dsl.failures.other": sum(v for k, v in failures.items()
                                  if k not in ("RecursionError", "ParseError")),
        "model.validate_s": per_pass("model.validate"),
        "model.eval_per_s": rate(first.get("model.evals", 0), per_pass("model.eval_formula")),
        "semantics.admissible_per_s": rate(first.get("semantics.admissible_calls", 0),
                                           per_pass("semantics.admissible_for_type")),
        "solver.solve_s": solve_s,
        "solver.enumerate_s": enumerate_s,
        "solver.aggregate_s": solve_s - enumerate_s,
        "solver.candidates": candidates,
        "solver.worlds": first.get("solver.worlds", 0),
        "solver.worlds_per_candidate": rate(first.get("solver.worlds", 0), candidates),
        "solver.us_per_candidate": rate(solve_s * 1e6, candidates),
        "interrogation.generate_s": per_pass("interrogation.generate"),
        "interrogation.knowledge_entries": first.get("interrogation.knowledge_entries", 0),
        "interrogation.strategy_s": strategy_s,
        "interrogation.truthful_s": per_pass("interrogation.truthful_answer"),
        "interrogation.spoken_s": per_pass("interrogation.spoken_answer"),
        "interrogation.questions": questions,
        "interrogation.us_per_question": rate(strategy_s * 1e6, questions),
        "cli.main_s": per_pass("cli.main"),
        "cli.self_s": tr.self_total("cli.main") / loop.passes,
        "trace.overhead_ms": (loop.traced - loop.untraced) / loop.traced_ops * 1e3,
        "trace.overhead_pct": (loop.traced - loop.untraced) / loop.untraced * 100,
    }
    tr.write(OUT_DIR / f"spans-{loop.wl.name}-{loop.seed}.jsonl")
    return metrics


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_counters_repeat(workload: str, seed: int, counters: dict) -> None:
    """Compare the machine-independent counters with the ones an earlier run
    of the same code and seed stored in this checkout, or store them."""
    repeatable = {name: counters.get(name, 0) for name in REPEATABLE_COUNTERS}
    path = OUT_DIR / "counters" / f"{workload}-{seed}-{code_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != repeatable:
            raise WrongOutput(f"counters {repeatable} differ from an earlier run's {earlier}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(repeatable, sort_keys=True), encoding="utf-8")
