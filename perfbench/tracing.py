"""In-memory spans recorded by the benchmark around its calls into coxanc.

A span has a name, start, end, the span that encloses it and an op id (the
input it serves).  Spans are kept in a list and written out once, at the end
of the run.  Only the benchmark's own code opens spans; the library is not
instrumented.
"""
from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    derived: bool = False  # a second call made only to derive a metric


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.ops: dict[int, str] = {}  # op id -> the input it names
        self.counts: dict[str, float] = {}

    def name_op(self, op: int, name: str):
        self.ops[op] = name

    def count(self, name: str, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _new(self, name, start, end, op, derived) -> Span:
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        span = Span(len(self.spans), name, start, end, parent, op, derived)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None, derived: bool = False):
        span = self._new(name, time.perf_counter(), 0.0, op, derived)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def record(self, name: str, start: float, end: float, op: int | None = None):
        """Add a finished span timed by the caller, inside the innermost open span."""
        self._new(name, start, end, op, False)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"ops": self.ops, "counts": self.counts,
                       "spans": [asdict(s) for s in self.spans]}, fh)


class NullTracer:
    """Tracing off: no spans, no clock reads."""

    enabled = False

    def span(self, name, op=None, derived=False):
        return contextlib.nullcontext()

    def record(self, name, start, end, op=None):
        pass

    def name_op(self, op, name):
        pass

    def count(self, name, value):
        pass


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, ())) for s in spans
    }

