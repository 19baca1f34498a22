"""In-memory span recorder for the traced run.

Each span records a name, start and end (seconds on the tracer's clock), the
span that encloses it, the pass it belongs to, and optional attributes (a
degree, work counts).  Names are "<module>.<step>", or a bare module name,
and become the per-layer metric "<name>.s".  The untraced run uses
NullTracer, whose span() costs one attribute lookup and a no-op context
manager.  Both carry the clock that times spans and order queries.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    enabled = False

    def __init__(self, clock=time.perf_counter):
        self.clock = clock

    def span(self, name, **attrs):
        return _NULL


class Tracer:
    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.run = 0

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name, "run": self.run,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "attrs": attrs, "start": self.clock(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = self.clock()
            self._stack.pop()

    def count(self, **counts):
        """Add work counts to the innermost open span."""
        attrs = self._stack[-1]["attrs"]
        for k, v in counts.items():
            attrs[k] = attrs.get(k, 0) + v


def self_times(spans):
    """span id -> duration minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_seconds(spans, run):
    """name -> summed self time of that run's spans."""
    own = self_times(spans)
    out = {}
    for s in spans:
        if s["run"] == run:
            out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
    return out


def layer_counts(spans, run):
    """(name, attr) -> summed integer attribute over that run's spans."""
    out = {}
    for s in spans:
        if s["run"] != run:
            continue
        for k, v in s["attrs"].items():
            if k != "degree":
                out[s["name"], k] = out.get((s["name"], k), 0) + v
    return out


def by_degree(spans):
    """name -> degree -> summed self time, over all runs."""
    own = self_times(spans)
    out = {}
    for s in spans:
        d = s["attrs"].get("degree")
        if d is not None:
            row = out.setdefault(s["name"], {})
            row[d] = row.get(d, 0.0) + own[s["id"]]
    return out
