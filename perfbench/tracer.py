"""In-memory span tracing of hisparse from outside the package.

The tracer replaces module attributes (functions as the package resolves
them) with wrappers that record a span per call: an id, the id of the span
that was open when the call started, the trial it belongs to, a name,
start and end times, and a few attributes read from the result.  Spans stay
in memory; `restore` puts every original attribute back.

Pool workers forked while the tracer is installed inherit the wrappers.
A trial span pops the spans recorded below it and attaches them to the
trial's first record, so they travel back with the pickled result and the
parent collects them with `absorb`.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from dataclasses import dataclass, field

SPANS_ATTR = "_perfbench_spans"


@dataclass
class Span:
    sid: tuple
    parent: tuple | None
    trial: tuple | None
    name: str
    t0: float
    t1: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[tuple] = []
        self._trial: tuple | None = None
        self._next = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _new_id(self) -> tuple:
        self._next += 1
        return (os.getpid(), self._next)

    def span(self, name: str, fn, *args, attrs_of=None, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
        attrs = attrs_of(out) if attrs_of is not None else {}
        self.spans.append(Span(sid, parent, self._trial, name, t0, t1, attrs))
        return out

    def _trial_span(self, fn, args):
        """Root span of one Monte Carlo trial; ships its spans on the record."""
        mark = len(self.spans)
        outer_trial = self._trial
        self._trial = self._new_id()
        try:
            out = self.span("harness.trial", fn, args)
        finally:
            self._trial = outer_trial
        shipped = self.spans[mark:]
        del self.spans[mark:]
        first = out[0] if isinstance(out, list) else out
        setattr(first, SPANS_ATTR, shipped)
        return out

    def absorb(self, records) -> None:
        """Move the spans shipped on trial records into this tracer."""
        for r in records:
            self.spans.extend(r.__dict__.pop(SPANS_ATTR, ()))

    # ------------------------------------------------------------- patching

    def wrap(self, owner, attr: str, name: str, attrs_of=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.span(name, original, *args, attrs_of=attrs_of, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def wrap_trial(self, owner, attr: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(args):
            return self._trial_span(original, args)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> bool:
        """Put every wrapped attribute back; True when all are originals."""
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        return all(getattr(owner, attr) is original for owner, attr, original in patched)

    # ------------------------------------------------------------- analysis

    def self_times(self) -> dict[tuple, float]:
        """Span duration minus the part of its interval that children cover."""
        children: dict[tuple, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            end = s.t0
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.t0):
                lo, hi = max(c.t0, end), min(c.t1, s.t1)
                if hi > lo:
                    covered += hi - lo
                    end = hi
            out[s.sid] = s.duration - covered
        return out

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(s)
        return out


def layer_stats(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, total self seconds, median duration in ms."""
    self_t = tracer.self_times()
    out = {}
    for name, spans in tracer.by_name().items():
        out[name] = {
            "calls": len(spans),
            "self_s": sum(self_t[s.sid] for s in spans),
            "ms_p50": statistics.median(s.duration for s in spans) * 1e3,
            "spans": spans,
        }
    return out
