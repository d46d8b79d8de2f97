"""In-memory spans and counters for the traced benchmark run.

A span is one call across a layer boundary: its name, the span open when it
started (its parent), the operation it served, and its start and end on the
monotonic clock in nanoseconds. Spans are appended to a list as they close
and written out once, after the run.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

NO_PARENT = -1


def preparation_op(unit: int) -> int:
    """Operation id of the spans recorded while unit `unit` builds its inputs."""
    return -1 - unit


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    op: int  # operation index, or preparation_op(unit) while inputs are built
    name: str
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records nested spans and named counts; single-threaded by design."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.op = preparation_op(0)
        self._open: list[tuple[int, str, int]] = []
        self._next_id = 0

    def open(self, name: str) -> None:
        self._open.append((self._next_id, name, self.clock()))
        self._next_id += 1

    def close(self) -> None:
        end = self.clock()
        sid, name, start = self._open.pop()
        parent = self._open[-1][0] if self._open else NO_PARENT
        self.spans.append(Span(sid, parent, self.op, name, start, end))

    @property
    def current(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self._open[-1][1] if self._open else None

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover.

    Children of one span run one after another inside it (the benchmark is
    single-threaded), so the covered time is the sum of their durations.
    """
    spans = list(spans)
    covered: Counter[int] = Counter()
    for span in spans:
        if span.parent != NO_PARENT:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def summarize(
    spans: Iterable[Span], scale: Callable[[int], float] = lambda op: 1.0
) -> dict[str, tuple[int, float, float]]:
    """Span name -> (calls, total duration, total self time) in nanoseconds.

    Each span's times are multiplied by `scale` of its operation id.
    """
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, tuple[int, float, float]] = {}
    for span in spans:
        factor = scale(span.op)
        calls, total, self_total = out.get(span.name, (0, 0.0, 0.0))
        out[span.name] = (
            calls + 1,
            total + span.duration * factor,
            self_total + own[span.id] * factor,
        )
    return out


def write_spans(spans: Iterable[Span], path: Path) -> None:
    """Tab-separated spans, one per line, with a header."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        out.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
        for s in spans:
            out.write(f"{s.id}\t{s.parent}\t{s.op}\t{s.name}\t{s.start}\t{s.end}\n")
