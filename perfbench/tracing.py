"""Spans around calls into islander's layers, for the traced run.

The program itself carries no tracing. For a traced op the benchmark swaps
the names the CLI and the DSL look up (`cli.parse`, `cli.solve`,
`Puzzle.validate`, ...) for wrappers that record a span and then call the
original, and swaps the originals back afterwards, so untraced ops run the
program exactly as shipped. Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, or -1
    op: int
    error: Optional[str] = None  # exception class that left the span, if any

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._open: list[int] = []
        self._swaps: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[[tuple, object], None]] = None) -> Callable:
        """`fn` inside a span; `observe(args, result)` sees each call, with
        result None when the call raised."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = None
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
                return result
            finally:
                if observe is not None:
                    observe(args, result)

        return traced

    def install(self, targets: list[tuple[object, str, str, Optional[Callable]]]) -> None:
        """Prepare a traced wrapper for each (owner, attribute, span name,
        observer); `active()` swaps them in."""
        self._swaps = [
            (owner, attr, getattr(owner, attr), self.wrap(name, getattr(owner, attr), observe))
            for owner, attr, name, observe in targets
        ]

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        """The wrappers in place of the originals for the block, and the
        originals back afterwards."""
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._swaps:
                setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        """Summed self time of the named spans: each span's duration minus
        the time its direct children cover. Spans of one thread never
        overlap, so the children's durations simply add up."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        return sum(
            span.duration - child_time.get(i, 0.0)
            for i, span in enumerate(self.spans)
            if span.name == name
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
