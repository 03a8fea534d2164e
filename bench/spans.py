"""In-memory spans and self-time arithmetic for the traced benchmark run.

A span records its name, start, end, parent span and run id.  Spans are
kept in a list and written out once, when the run ends.  A span's self
time is its duration minus the part of its interval that its child spans
cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans of one run; not thread-safe (the benchmark
    opens spans only from the main thread)."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "parent": self._stack[-1]["id"] if self._stack else None,
               "name": name, "run": self.run, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` run inside a span; ``annotate(span, args, kwargs,
        result)`` may add counts after the span has closed."""
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(rec, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}
