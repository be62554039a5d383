"""Span recorders handed to the benchmark's jobs.

Every job takes a ``span(name, calls=1)`` factory and wraps each public
call it makes in ``with span(...)``. The timed pass passes :func:`nospan`,
so tracing is off; the traced pass passes :meth:`Tracer.span`, which keeps
spans in memory; the memory pass passes :meth:`MemProbe.span`, which
records each call's ``tracemalloc`` peak. ``calls`` is how many package
calls one span covers, for spans around a loop.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

_NULL = contextlib.nullcontext()


def nospan(name: str, calls: int = 1):
    return _NULL


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root
    job: int
    calls: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Keeps every span in memory; :meth:`write` dumps them as JSON Lines."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.job = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.job, calls)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def busy_s(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def calls(self, name: str) -> int:
        return sum(s.calls for s in self.named(name))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({"name": s.name, "start_ns": s.start_ns,
                                      "end_ns": s.end_ns, "parent": s.parent,
                                      "job": s.job, "calls": s.calls}) + "\n")


class MemProbe:
    """Per span name, the largest extra memory a call held at its peak.

    Extra means the ``tracemalloc`` peak inside the span minus what was
    traced when it opened. The global peak is folded into every open span
    before each reset, so nested spans do not hide each other's peaks.
    Only valid while ``tracemalloc`` is tracing.
    """

    def __init__(self):
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._open: list[list] = []

    def _fold(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for entry in self._open:
            entry[2] = max(entry[2], peak)
        tracemalloc.reset_peak()

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1):
        self._fold()
        entry = [name, tracemalloc.get_traced_memory()[0], 0]
        self._open.append(entry)
        try:
            yield
        finally:
            self._fold()
            self._open.pop()
            self.peak_bytes[name] = max(self.peak_bytes[name], entry[2] - entry[1])
