"""Golden transcripts: seeded strategy runs and `simulate --json` output,
pinned byte for byte.

For every strategy, on every island it accepts, at knowledge densities 0,
0.3 and 1 and crowds of 1, 2, 7 and 30, the fixture holds a digest of the
generated world, a digest of the transcript rows (person, question, answer,
token), the question count and the sorted accused set, or the refusal
message when the strategy's premises do not hold. It also holds the whole
`simulate --json` stdout of one configuration per strategy. Together they
pin the random draw order of world generation and of the liars'
adversarial choices.

Digests are sha256 over JSON of ordered or sorted data, so they do not
depend on PYTHONHASHSEED. Regenerate the fixture only for a deliberate,
documented change of output:

    PYTHONPATH=src python tests/test_golden_transcripts.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

from islander import interrogation
from islander.cli import main
from islander.interrogation import (
    STRATEGIES,
    PreconditionError,
    PossibleExact,
    describe_question,
    generate_knowledge_world,
    run_strategy,
    spoken_answer,
)

FIXTURE = Path(__file__).with_name("golden_transcripts.json")
ADVERSARY_SALT = 0x5DEECE66D
DENSITIES = (0.0, 0.3, 1.0)
SIZES = (1, 2, 7, 30)

# Fixture row -> (registry name, mode): every registered strategy, on the
# islands and count premise it declares, plus the literal liars mode.
ROWS = {name: (name, "robust") for name in STRATEGIES}
ROWS["solve_liars_paper_literal"] = ("solve_liars", "paper-literal")

SIMULATE_ARGV = {
    "classify_islands": ("--island", "mixed", "--criminals", "1-3", "--knowledge-density", "0.3"),
    "ask_all_about_others": (
        "--island", "mixed", "--criminals", "1-3", "--knowledge-density", "0.3",
    ),
    "count_known": ("--island", "mixed", "--criminals", "1-3", "--count-public"),
    "count_unknown": ("--island", "mixed", "--criminals", "1-3"),
    "solve_truthtellers": ("--island", "tt", "--criminals", "1-3", "--knowledge-density", "0.3"),
    "solve_liars": ("--island", "liars", "--criminals", "1-3", "--knowledge-density", "0.3"),
    "solve_liars_paper_literal": (
        "--island", "liars", "--criminals", "1-3", "--count-public", "--mode", "paper-literal",
    ),
    "solve_mixed": ("--island", "mixed", "--criminals", "1-3", "--knowledge-density", "0.3"),
    "neil": ("--island", "tt", "--criminals", "1", "--count-public"),
    "secret_attribute": ("--island", "tt", "--criminals", "1-3", "--knowledge-density", "0.3"),
}


def _digest(data) -> str:
    text = json.dumps(data, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _world_rows(kw) -> list:
    return [
        list(kw.persons),
        [kw.type_of[p].value for p in kw.persons],
        sorted(kw.guilty),
        sorted([p, q, entry.value] for (p, q), entry in kw.knowledge.items()),
        kw.count_public,
        kw.secret,
    ]


def _transcript_rows(transcript) -> list:
    return [[a.person, describe_question(a.question), a.value.value, a.token]
            for a in transcript]


def golden_worlds():
    """(fixture key, registry name, mode, world, seed) for every pinned world."""
    for row, (name, mode) in ROWS.items():
        strategy = STRATEGIES[name]
        for island in strategy.islands:
            for density in DENSITIES:
                for n in SIZES:
                    key = f"{row}/{island}/d{density}/n{n}"
                    seed = zlib.crc32(key.encode("ascii"))
                    public = strategy.count_public
                    kw = generate_knowledge_world(
                        n=n,
                        island=island,
                        criminals=1 if name == "neil" else (1, n),
                        density=density,
                        count_public=bool(seed & 1) if public is None else public,
                        secret=strategy.needs_secret,
                        seed=seed,
                    )
                    yield key, name, mode, kw, seed


def record_worlds() -> dict:
    entries = {}
    for key, name, mode, kw, seed in golden_worlds():
        entry = {"world": _digest(_world_rows(kw))}
        try:
            result = run_strategy(kw, name, random.Random(seed ^ ADVERSARY_SALT), mode)
        except PreconditionError as exc:
            entry["refused"] = str(exc)
        else:
            entry["accused"] = sorted(result.accused)
            entry["questions"] = len(result.transcript)
            entry["transcript"] = _digest(_transcript_rows(result.transcript))
        entries[key] = entry
    return entries


def simulate_argv(name: str) -> list[str]:
    strategy, _ = ROWS[name]
    return ["simulate", "--strategy", strategy, "--n", "7", "--trials", "5",
            "--seed", "11", "--json", *SIMULATE_ARGV[name]]


def record_simulate() -> dict:
    runs = {}
    for name in SIMULATE_ARGV:
        argv = simulate_argv(name)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        runs[name] = {"argv": argv, "exit": code, "stdout": out.getvalue(),
                      "stderr": err.getvalue()}
    return runs


def record() -> dict:
    return {"worlds": record_worlds(), "simulate": record_simulate()}


def _load_fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _mismatches(expected: dict, actual: dict) -> list[str]:
    return [key for key in sorted(set(expected) | set(actual))
            if expected.get(key) != actual.get(key)]


def test_strategy_transcripts_match_golden():
    fixture = _load_fixture()["worlds"]
    assert _mismatches(fixture, record_worlds()) == []


def _outcome(run, seed):
    try:
        result = run(random.Random(seed ^ ADVERSARY_SALT))
    except PreconditionError as exc:
        return str(exc)
    return result.accused, result.transcript


def test_run_strategy_matches_each_runner():
    """Each registry entry holds its strategy's one runner, `run_<name>`, and
    `run_strategy` gives what that runner gives on every pinned world the
    entry does not refuse."""
    for name, strategy in STRATEGIES.items():
        assert strategy.run is getattr(interrogation, f"run_{name}")
    compared = 0
    for key, name, mode, kw, seed in golden_worlds():
        registry = _outcome(lambda rng: run_strategy(kw, name, rng, mode), seed)
        if isinstance(registry, str):
            continue  # refused by the entry: its runner assumes the premises
        runner = getattr(interrogation, f"run_{name}")
        extra = {} if mode == "robust" else {"mode": mode}
        assert _outcome(lambda rng: runner(kw, rng, **extra), seed) == registry, key
        compared += 1
    assert compared


def test_the_loop_agrees_with_one_question_at_a_time():
    """Every pinned run gives the transcript, and leaves the adversary's
    source in the state, of its questions put one at a time through
    `spoken_answer` with a source seeded alike. The paper-literal mode draws
    each list from that source before its ask, so the replay draws it too."""
    for key, name, mode, kw, seed in golden_worlds():
        rng = random.Random(seed ^ ADVERSARY_SALT)
        try:
            result = run_strategy(kw, name, rng, mode)
        except PreconditionError:
            continue
        replay = random.Random(seed ^ ADVERSARY_SALT)
        roster = sorted(kw.persons)
        answers = []
        for answer in result.transcript:
            if mode == "paper-literal":
                others = [p for p in roster if p != answer.person]
                size = kw.count_public or replay.randint(1, len(others))
                assert answer.question == PossibleExact(frozenset(replay.sample(others, size)))
            answers.append(spoken_answer(kw, answer.person, answer.question, replay))
        assert tuple(answers) == result.transcript, key
        assert replay.getstate() == rng.getstate(), key


def test_simulate_json_matches_golden():
    fixture = _load_fixture()["simulate"]
    assert _mismatches(fixture, record_simulate()) == []
    for run in fixture.values():
        assert run["exit"] == 0 and json.loads(run["stdout"])["successes"] == 5


def test_golden_digests_ignore_hash_seed():
    """The recording is the same under two fixed hash seeds, so the digests
    never depend on set iteration order."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
        " import test_golden_transcripts as g; print(json.dumps(g.record(), sort_keys=True))"
    )
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", script, src, str(Path(__file__).parent)],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1] == _load_fixture()


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
