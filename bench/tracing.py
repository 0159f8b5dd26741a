"""In-memory spans recorded by the benchmark around calls into panelboost.

A span has a name, a start, an end, the id of the span that was open when it
started, and the op it belongs to. Spans stay in memory until the worker
writes them out at the end of the run. A disabled tracer records nothing.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def _record(self, name: str, op):
        span = {"id": len(self.spans), "name": name, "op": op,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def span(self, name: str, op=None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, op)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def module_self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per module (the span name up to its first dot)."""
    totals: dict[str, float] = defaultdict(float)
    for span_id, value in self_times(spans).items():
        totals[spans[span_id]["name"].split(".", 1)[0]] += value
    return dict(sorted(totals.items()))
