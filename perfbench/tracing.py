"""In-memory spans recorded around calls into the library, plus the small
statistics the benchmark reports.

A span is a dict with an id, a name, start and end (``perf_counter``
seconds), the id of the span that was open when it began, and the query
id it belongs to. Spans stay in memory until the run writes them out.
Stage spans are *derived*: ``run_inference`` reports how long each stage
took but not when it started, so the benchmark lays the stages end to end
from the start of the enclosing call and marks them ``"derived": true``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, query: str | None = None, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "query": query, "start": perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def derived(self, parent: dict, stages: list[tuple[str, float]]) -> None:
        """Child spans of ``parent`` for durations measured inside it."""
        t = parent["start"]
        for name, seconds in stages:
            self.spans.append({"id": len(self.spans), "name": name,
                               "parent": parent["id"], "query": parent["query"],
                               "start": t, "end": t + seconds, "derived": True})
            t += seconds

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s, sort_keys=True) + "\n")


class NullTracer:
    """Tracing off: every span is a no-op."""

    def span(self, name, query=None, **attrs):
        return nullcontext()

    def derived(self, parent, stages) -> None:
        pass


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50)

