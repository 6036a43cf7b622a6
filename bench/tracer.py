"""Spans and counters recorded by the benchmark around its own calls into
the package.

Nothing inside the package is patched: a span brackets one call (or a
batch of identical calls, with ``calls`` saying how many) made from the
benchmark's files.  Spans are kept in memory and written out once, at the
end of a run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None      # index of the enclosing span, None at top level
    op_id: int | None       # op the span belongs to (replays keep the op's id)
    source: str             # workload whose ops produced the span
    calls: int = 1

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class _Open:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_Open":
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index].end_ns = time.perf_counter_ns()
        self.tracer._stack.pop()


_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span and count is a no-op."""

    enabled = False

    def span(self, name: str, calls: int = 1) -> contextlib.nullcontext:
        return _NO_SPAN

    def count(self, name: str, inc: float = 1) -> None:
        return None

    def begin_op(self, op) -> None:
        return None


class Tracer:
    """Tracing on: spans nest by a stack; counts accumulate per source."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.source = ""
        self.op_labels: dict[int, str] = {}
        self._op_id: int | None = None
        self._stack: list[int] = []

    def begin_op(self, op) -> None:
        """Later spans belong to this op; its label names its kind and inputs."""
        self._op_id = op.op_id
        self.op_labels[op.op_id] = f"{op.kind} {op.args!r}"

    def span(self, name: str, calls: int = 1) -> _Open:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._op_id,
                               self.source, calls))
        index = len(self.spans) - 1
        self._stack.append(index)
        return _Open(self, index)

    def count(self, name: str, inc: float = 1) -> None:
        self.counts[self.source][name] += inc

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the part of it covered by its children."""
        covered: list[list[tuple[int, int]]] = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent].append((s.start_ns, s.end_ns))
        out = []
        for s, kids in zip(self.spans, covered):
            busy = 0
            reach = s.start_ns
            for lo, hi in sorted(kids):
                lo = max(lo, reach)
                if hi > lo:
                    busy += hi - lo
                    reach = hi
            out.append(s.dur_ns - busy)
        return out

    def write(self, path) -> None:
        selfs = self.self_times_ns()
        with open(path, "w", encoding="utf8") as fh:
            for s, self_ns in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "self_ns": self_ns, "parent": s.parent, "op": s.op_id,
                    "source": s.source, "calls": s.calls}) + "\n")
            fh.write(json.dumps({"counts": {k: dict(v) for k, v in self.counts.items()},
                                 "ops": self.op_labels}) + "\n")
