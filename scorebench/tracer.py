"""In-memory span tracer for the benchmark's traced run.

A span records its name, start, end, parent span and the run id. Spans are
kept in memory and written once, when the run ends. A layer's self time is
its span's duration minus the part of that interval its child spans cover.

This module imports nothing from the package under test; `probes.py`
decides which package functions get spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Iterable


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one run.

    Each thread has its own stack of open spans, so a span's parent is the
    innermost span open on the same thread when it started.
    """

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.observed: dict[int, object] = {}  # objects the probes saw, by id
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, self._clock(), None, stack[-1].span_id if stack else None, self.run_id)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def open_names(self) -> list[str]:
        """Names of the spans open on this thread, outermost first."""
        return [s.name for s in self._stack()]

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """`fn` inside a span; `after(tracer, args, kwargs, result)` runs in the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs, result)
                return result

        return traced

    def absorb(self, spans: Iterable[Span]) -> None:
        """Add spans recorded by another tracer (another process), with fresh ids."""
        spans = list(spans)
        with self._lock:
            new_ids = {s.span_id: next(self._ids) for s in spans}
            for s in spans:
                self.spans.append(Span(new_ids[s.span_id], s.name, s.start, s.end, new_ids.get(s.parent), self.run_id))


def merged(run_id: str, *tracers: Tracer) -> Tracer:
    """One tracer holding the spans, counts and observed objects of several."""
    out = Tracer(run_id)
    for tracer in tracers:
        out.absorb(tracer.spans)
        out.counts.update(tracer.counts)
        out.observed.update(tracer.observed)
    return out


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """span_id -> duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for child in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


def layer_totals(spans: Iterable[Span]) -> dict[str, tuple[float, int]]:
    """name -> (inclusive seconds, calls).

    A span nested inside a span of the same name (a function calling itself,
    as `LlmGateway.embed` does to split a batch) is folded into the outer one.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    totals: dict[str, list] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is not None:
            continue
        entry = totals.setdefault(s.name, [0.0, 0])
        entry[0] += s.duration
        entry[1] += 1
    return {name: (seconds, calls) for name, (seconds, calls) in totals.items()}


def spans_to_dicts(spans: Iterable[Span]) -> list[dict]:
    return [asdict(s) for s in spans]


def spans_from_dicts(rows: Iterable[dict]) -> list[Span]:
    return [Span(**row) for row in rows]
