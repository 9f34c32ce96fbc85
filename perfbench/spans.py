"""In-memory spans for the traced run.

A span is one timed call into a layer: name, start, end, the span that
caused it (``parent``) and the statement it belongs to (``stmt``).
Spans are kept in memory and written out once, when the run ends.

Times are ``time.perf_counter()`` seconds.  On Linux that clock is
``CLOCK_MONOTONIC``, shared by every process on the host, so spans a
server process records nest correctly inside the client span of the
statement that caused them.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    stmt: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one open-span stack per thread.

    ``open``/``close`` bracket a call on the calling thread; ``add``
    attaches a span measured elsewhere (another process, or
    reconstructed from a reply's ``elapsed_seconds``) under an explicit
    parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_stmt = 0

    def new_stmt(self) -> int:
        with self._lock:
            self._next_stmt += 1
            return self._next_stmt

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The calling thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, name: str, start: float, end: float,
            parent: Span | None, stmt: int | None = None) -> Span:
        with self._lock:
            span = Span(len(self.spans), name, start, end,
                        None if parent is None else parent.span_id,
                        parent.stmt if stmt is None else stmt)
            self.spans.append(span)
        return span

    def open(self, name: str, stmt: int | None = None) -> Span:
        """Start a span as a child of the thread's innermost open span
        (a root span needs ``stmt``)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stmt is None:
            raise ValueError(f"root span {name!r} needs a statement id")
        span = self.add(name, time.perf_counter(), 0.0, parent, stmt)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    def wrap(self, name: str, func):
        """``func`` timed as a child span of the caller's open span
        (untimed when the thread has none)."""
        def traced(*args, **kwargs):
            if self.current() is None:
                return func(*args, **kwargs)
            span = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part of its interval that
    its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.span_id: span.duration - _covered(
                span.start, span.end, children.get(span.span_id, []))
            for span in spans}


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name (seconds)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + own[span.span_id]
    return out
