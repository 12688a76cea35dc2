"""Golden parses: what `parse` makes of a fixed set of texts, pinned.

The texts are every corpus file, 40 seeded texts from the generator below
(and/or chains, right-associative -> and <-> chains, nested parentheses up
to 100 deep, `forall` axioms, unmodeled statements with escapes, comments,
CRLF line endings, tabs, a trailing comment with no newline) and 300 seeded
mutations of them in the style of `test_totality_fuzz` (random junk, and
single-character replacements, deletions, insertions and cuts). For each
text the fixture holds either the sha256 of `serialize(parse(text))` or the
ParseError's (line, column, length, message, expected).

The fixture was recorded with the recursive-descent parser. Texts that made
that parser raise RecursionError would be left out of it and listed in
CHANGED_BY_DESIGN; none of these did (the deeper probes are in test_dsl).
Regenerate the fixture only for a deliberate, documented change of the
parser's output:

    PYTHONPATH=src python tests/test_golden_parses.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from islander.dsl import ParseError, parse, serialize

from conftest import CORPUS_NAMES, corpus_text

FIXTURE = Path(__file__).with_name("golden_parses.json")
GENERATED = 40
MUTATIONS = 300

# Texts that raised RecursionError in the recursive-descent parser: none.
CHANGED_BY_DESIGN: tuple[str, ...] = ()

_TYPES = ("AT", "PT", "AL", "RL")
_NAMES = ("Ann", "Bob", "Cy", "Dee", "Eve", "Fay")


class _Text:
    """One generated puzzle text under construction."""

    def __init__(self, rng: random.Random, index: int):
        self.rng = rng
        self.index = index
        self.suspects = list(_NAMES[:2 + index % 5])
        self.modeled: list[str] = []

    def atom(self, persons) -> str:
        rng = self.rng
        person = rng.choice(persons)
        kind = rng.randrange(10)
        if kind == 0:
            return f"type({person})={rng.choice(_TYPES)}"
        if kind == 1:
            return f"island({person}) = {rng.choice(('truthtellers', 'liars'))}"
        if kind == 2:
            return f"count {rng.choice(('=', '<=', '>='))} {rng.randrange(len(self.suspects) + 1)}"
        if kind == 3 and self.modeled:
            return f"truthful({rng.choice(self.modeled)})"
        if kind == 4:
            return f"lies_about_guilt({person})"
        if kind == 5:
            return f"knows_whodunit({person})"
        if kind == 6:
            return f'free("f{rng.randrange(3)}")'
        if kind == 7:
            return rng.choice(("true", "false"))
        return f"guilty ( {person} )" if rng.random() < 0.2 else f"guilty({person})"

    def formula(self, persons, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            text = self.atom(persons)
            return f"not {text}" if rng.random() < 0.2 else text
        roll = rng.randrange(6)
        if roll == 0:
            return f"not ({self.formula(persons, depth - 1)})"
        if roll == 1:
            return f"({self.formula(persons, depth - 1)})"
        op = rng.choice(("and", "or", "->", "<->"))
        left = self.formula(persons, depth - 1)
        right = self.formula(persons, depth - 1)
        if rng.random() < 0.5:
            left = f"({left})"
        return f"{left} {op} {right}"

    def chain(self, persons, terms: int, op: str) -> str:
        return f" {op} ".join(self.atom(persons) for _ in range(terms))

    def nested(self, persons, depth: int) -> str:
        """`depth` parentheses, each level an operand of a connective or a
        redundant pair."""
        rng = self.rng
        text = self.atom(persons)
        for level in range(depth):
            roll = level % 4
            if roll == 0:
                text = f"({text})"
            elif roll == 1:
                text = f"{self.atom(persons)} {rng.choice(('and', 'or'))} ({text})"
            elif roll == 2:
                text = f"not ({text})"
            else:
                text = f"({text}) {rng.choice(('->', '<->'))} {self.atom(persons)}"
        return text

    def body(self, persons, k: int) -> str:
        rng = self.rng
        kind = (self.index + k) % 6
        if kind == 0:
            return self.chain(persons, rng.randint(20, 200), rng.choice(("and", "or")))
        if kind == 1:
            return self.chain(persons, rng.randint(5, 40), rng.choice(("->", "<->")))
        if kind == 2:
            return self.nested(persons, rng.randint(10, 100))
        return self.formula(persons, rng.randint(1, 5))

    def render(self) -> str:
        rng, i = self.rng, self.index
        lines = [f"# generated text {i}", "puzzle {"]
        lines.append("  suspects " + ", ".join(self.suspects) + ";")
        if i % 3:
            lines.append(f"  island {('truthtellers', 'liars', 'mixed')[i % 3]};")
        if i % 4 == 0:
            who = rng.choice(self.suspects)
            lines.append(f"  types {who}: {{" + ", ".join(rng.sample(_TYPES, rng.randint(1, 4))) + "};")
        n = len(self.suspects)
        if i % 5 == 0:
            values = sorted(rng.sample(range(n + 1), rng.randint(1, n)))
            lines.append("  criminals in {" + ", ".join(map(str, values)) + "};")
        else:
            lines.append(f"  criminals {rng.choice(('=', '<=', '>='))} {rng.randint(0, n)};")
        if i % 7 == 0 and n == 4:
            lines.append("  typecount one_of_each;")
        elif i % 7 == 1:
            lines.append(f"  typecount exactly {rng.randint(0, n)} truthtellers;")
        elif i % 7 == 2:
            lines.append(f"  typecount at_most_distinct {rng.randint(1, 4)};")
        for k in range(rng.randint(2, 8)):
            label = f"s{k}"
            speaker = rng.choice(self.suspects)
            if rng.random() < 0.15:
                text = rng.choice(('it was odd', 'say \\"hi\\"', 'back\\\\slash', ''))
                lines.append(f'  statement {label} {speaker}: unmodeled "{text}";')
            else:
                lines.append(f"  statement {label} {speaker}: {self.body(self.suspects, k)};")
                self.modeled.append(label)
            if rng.random() < 0.3:
                lines[-1] += "  # remark " + rng.choice(("a", "b -> c", '"quoted"'))
        for k in range(rng.randint(0, 3)):
            if k % 2 == 0:
                lines.append(f"  axiom forall X: {self.formula(self.suspects + ['X'], 3)};")
            else:
                lines.append(f"  axiom {self.body(self.suspects, k)};")
        lines.append("}")
        if i % 6 == 1:
            lines = [line.replace("  ", "\t", 1) for line in lines]
        newline = "\r\n" if i % 4 == 3 else "\n"
        text = newline.join(lines)
        if i % 8 == 5:
            return text + newline + "# trailing comment, no newline"
        return text + newline


def generated_texts() -> dict[str, str]:
    return {f"gen{i:02d}": _Text(random.Random(f"golden_parse:{i}"), i).render()
            for i in range(GENERATED)}


def base_texts() -> dict[str, str]:
    texts = {f"corpus:{name}": corpus_text(name) for name in CORPUS_NAMES}
    texts.update(generated_texts())
    return texts


def mutated_texts(bases: dict[str, str]) -> dict[str, str]:
    rng = random.Random("golden_parse:mutations")
    printable = "puzle{}();:=<->#\"\\ abc123\n\t"
    names = sorted(bases)
    texts = {}
    for i in range(MUTATIONS):
        if i % 5 == 0:
            junk = "".join(rng.choice(printable) for _ in range(rng.randrange(80)))
            texts[f"mut{i:03d}:junk"] = junk
            continue
        name = rng.choice(names)
        base = bases[name]
        cut = rng.randrange(len(base))
        how = ("replace", "delete", "insert", "cut")[i % 4]
        if how == "replace":
            text = base[:cut] + rng.choice(printable) + base[cut + 1:]
        elif how == "delete":
            text = base[:cut] + base[cut + 1:]
        elif how == "insert":
            text = base[:cut] + rng.choice(printable) + base[cut:]
        else:
            text = base[:cut]
        texts[f"mut{i:03d}:{how}:{name}"] = text
    return texts


def all_texts() -> dict[str, str]:
    bases = base_texts()
    return {**bases, **mutated_texts(bases)}


def outcome(text: str) -> dict:
    try:
        puzzle = parse(text)
    except ParseError as exc:
        span = exc.span
        return {"error": [span.line, span.column, span.length, exc.message, list(exc.expected)]}
    canonical = serialize(puzzle).encode("utf-8")
    return {"sha256": hashlib.sha256(canonical).hexdigest()}


def record() -> tuple[dict, list[str]]:
    results, recursive = {}, []
    for name, text in all_texts().items():
        try:
            results[name] = outcome(text)
        except RecursionError:
            recursive.append(name)
    return results, recursive


def _load_fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_generator_covers_the_documented_features():
    texts = generated_texts()
    assert len(texts) == GENERATED
    joined = "".join(texts.values())
    for feature in ("\r\n", "\t", "forall", "unmodeled", '\\"', "# remark", "<->", "->"):
        assert feature in joined, feature
    assert any(text.endswith("no newline") for text in texts.values())
    assert max(text.count("(((") for text in texts.values()) > 0


def test_parses_match_golden():
    fixture = _load_fixture()
    texts = all_texts()
    assert len(texts) == len(CORPUS_NAMES) + GENERATED + MUTATIONS
    assert sorted(fixture) == sorted(set(texts) - set(CHANGED_BY_DESIGN))
    mismatches = [name for name in sorted(fixture) if outcome(texts[name]) != fixture[name]]
    assert mismatches == []
    kinds = {next(iter(result)) for result in fixture.values()}
    assert kinds == {"sha256", "error"}


if __name__ == "__main__":
    results, recursive = record()
    FIXTURE.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}: {len(results)} texts; RecursionError on: {recursive}")
