"""Span tracing: nested wall-clock spans that merge with simulated
timelines.

The qualitative half of the telemetry layer.  A :class:`Tracer` hands
out context-managed :class:`Span` objects::

    with tracer.span("epoch", category="train", epoch=3):
        with tracer.span("train_step", category="train"):
            ...

Nesting is tracked per thread (each thread gets its own stack),
and finished spans carry their depth so a Chrome-trace viewer stacks
them correctly.  ``record_span`` accepts *explicit* timestamps, which is
how discrete-event simulation results (``repro.cluster.trace.Timeline``)
are ingested -- real and simulated spans share one event model and
render in a single Perfetto view (``to_chrome_trace``).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .fsio import atomic_write_text

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One finished (or still-open) span on the tracer's clock."""

    name: str
    start: float
    end: float | None = None
    category: str = "span"
    resource: str = "proc"
    depth: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def elapsed(self, now: float | None = None) -> float:
        """Seconds this span has covered so far.

        Closed spans return their duration; open spans measure against
        ``now`` (the tracer's current clock) -- the hook live progress
        reporters use to render in-flight trials without try/except.
        """
        if self.end is not None:
            return self.end - self.start
        if now is None:
            raise ValueError(
                f"span {self.name!r} is still open: pass now=tracer.now()")
        return max(0.0, now - self.start)


class _ActiveSpan:
    """Context manager wrapping one live span."""

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def set(self, **attrs) -> "_ActiveSpan":
        """Attach attributes to the live span (visible in the trace)."""
        self.span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self.span)


class Tracer:
    """Collects spans from real (clocked) and simulated (explicit) code."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._t0 = clock()
        # Wall-clock anchor: the time.time() reading taken at the same
        # instant as _t0.  Trace time t therefore corresponds to wall
        # clock ``wall_t0 + t``, which is how traces recorded in
        # different processes (each with its own perf_counter origin)
        # are aligned into one timebase by repro.telemetry.aggregate.
        self.wall_t0 = time.time()
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- clocked spans -----------------------------------------------------
    def now(self) -> float:
        """Seconds since tracer creation (the trace's time origin)."""
        return self._clock() - self._t0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, category: str = "span",
             resource: str | None = None, **attrs) -> _ActiveSpan:
        """Open a nested span; use as a context manager."""
        stack = self._stack()
        if resource is None:
            resource = (
                stack[-1].resource if stack
                else _default_resource()
            )
        sp = Span(name=name, start=self.now(), category=category,
                  resource=resource, depth=len(stack), attrs=dict(attrs))
        stack.append(sp)
        return _ActiveSpan(self, sp)

    def _finish(self, span: Span) -> None:
        span.end = self.now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order exit: drop it from wherever it sits
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self.spans.append(span)

    def add_completed(self, name: str, duration_s: float,
                      category: str = "span", resource: str | None = None,
                      **attrs) -> Span:
        """Record a span that just finished, ending now -- the hook for
        code that measured a duration itself (pipeline stage timers)."""
        end = self.now()
        sp = Span(name=name, start=end - duration_s, end=end,
                  category=category,
                  resource=resource or _default_resource(),
                  depth=len(self._stack()), attrs=dict(attrs))
        with self._lock:
            self.spans.append(sp)
        return sp

    # -- explicit-clock spans (simulated time) ------------------------------
    def record_span(self, name: str, start: float, end: float,
                    resource: str = "sim", category: str = "span",
                    **attrs) -> Span:
        """Record a span with caller-supplied timestamps (virtual time)."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        sp = Span(name=name, start=start, end=end, category=category,
                  resource=resource, attrs=dict(attrs))
        with self._lock:
            self.spans.append(sp)
        return sp

    def ingest_timeline(self, timeline) -> int:
        """Copy a :class:`repro.cluster.trace.Timeline`'s events in;
        returns how many were ingested."""
        for ev in timeline.events:
            self.record_span(ev.name, ev.start, ev.end,
                             resource=ev.resource, category=ev.category,
                             **ev.meta)
        return len(timeline.events)

    # -- export -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def closed_spans(self) -> list[Span]:
        """Finished spans only, each exactly once.

        Open (in-flight) spans are excluded -- they have no duration to
        emit -- and identity-deduplicated: a span object inserted into
        ``spans`` while still open (live progress views do this) is
        appended *again* by ``_finish`` when it closes, and must not be
        double-counted by exports.
        """
        seen: set[int] = set()
        out: list[Span] = []
        for s in self.spans:
            if s.end is None or id(s) in seen:
                continue
            seen.add(id(s))
            out.append(s)
        return out

    def to_timeline(self):
        """Convert to a :class:`repro.cluster.trace.Timeline` so the
        simulator's utilisation / category statistics apply to real runs
        too."""
        from ..cluster.trace import Timeline  # lazy: avoid import cycles

        tl = Timeline()
        for s in self.closed_spans():
            tl.record(s.name, s.start, s.end, s.resource,
                      category=s.category, **s.attrs)
        return tl

    def to_chrome_trace(self, path=None, extra_timelines=()) -> list[dict]:
        """Chrome-trace 'X' events (microseconds), one ``tid`` lane per
        resource; pass simulated ``Timeline`` objects via
        ``extra_timelines`` to get the merged Perfetto view (simulated
        lanes appear under their own ``pid``)."""
        events: list[tuple[int, Span]] = [(0, s) for s in self.closed_spans()]
        for i, tl in enumerate(extra_timelines, start=1):
            for ev in tl.events:
                events.append((i, Span(
                    name=ev.name, start=ev.start, end=ev.end,
                    category=ev.category, resource=ev.resource,
                    attrs=dict(ev.meta),
                )))
        lanes: dict[tuple[int, str], int] = {}
        for pid, s in sorted(events, key=lambda e: (e[0], e[1].resource)):
            lanes.setdefault((pid, s.resource), len(lanes))
        out = [
            {
                "name": s.name,
                "cat": s.category,
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid,
                "tid": lanes[(pid, s.resource)],
                "args": dict(s.attrs),
            }
            for pid, s in sorted(events, key=lambda e: e[1].start)
        ]
        if out:
            # Wall-clock anchor metadata: trace ts=0 is this unix time,
            # so traces from separate processes/runs can be correlated.
            out.append({
                "name": "clock_anchor", "ph": "M", "cat": "__metadata",
                "pid": 0, "tid": 0,
                "args": {"wall_t0_unix": self.wall_t0},
            })
        if path is not None:
            atomic_write_text(Path(path), json.dumps(out))
        return out


def _default_resource() -> str:
    t = threading.current_thread()
    return "proc" if t is threading.main_thread() else t.name
