"""Cross-process trace and metric aggregation for the execpool.

The process-pool executor (:mod:`repro.execpool`) runs each trial in a
worker process with its own :class:`~repro.telemetry.hub.TelemetryHub`
-- its own ``perf_counter`` origin, its own metric registry.  Without
aggregation every worker's spans and counters are stranded in a
per-process silo and no single trace of a parallel search exists.

This module is the driver-side merge:

* workers serialise their telemetry into **frames**
  (:func:`capture_frame`) -- incremental closed spans, cumulative metric
  samples and the worker tracer's wall-clock anchor -- and stream them
  over the existing result queue (a frame is queued before the terminal
  ``done``/``error`` message, so per-producer FIFO ordering guarantees
  the driver sees the telemetry before it retires the trial);
* the driver folds frames into a :class:`TraceAggregator`
  (:meth:`~repro.telemetry.hub.TelemetryHub.ingest_worker_frame`);
* at flush time :func:`merged_chrome_trace` aligns every worker's spans
  into the driver's timebase via the wall-clock anchors recorded at
  ``Tracer.__init__`` (worker trace time ``t`` happened at wall clock
  ``worker.anchor + t``, i.e. at driver trace time
  ``t + (worker.anchor - driver.anchor)``) and emits one
  Perfetto-compatible Chrome trace with real pid/tid rows, while
  :func:`merge_registries` rebuilds a single
  :class:`~repro.telemetry.metrics.MetricsRegistry` from all the sample
  rows (counters and histograms sum, gauges last-write-win).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .fsio import atomic_write_text
from .metrics import MetricsRegistry
from .spans import Span, Tracer

__all__ = ["capture_frame", "span_to_dict", "span_from_dict",
           "sanitize_frame", "TraceAggregator", "merge_registries",
           "merged_chrome_trace"]


# -- frame (de)serialisation -------------------------------------------------
def span_to_dict(span: Span) -> dict:
    return {
        "name": span.name, "start": span.start, "end": span.end,
        "category": span.category, "resource": span.resource,
        "depth": span.depth, "attrs": dict(span.attrs),
    }


def span_from_dict(d: dict) -> Span:
    return Span(name=d["name"], start=d["start"], end=d["end"],
                category=d.get("category", "span"),
                resource=d.get("resource", "proc"),
                depth=d.get("depth", 0), attrs=dict(d.get("attrs", {})))


def capture_frame(hub, worker_id: int, since: int = 0) -> tuple[dict, int]:
    """Snapshot a worker hub into a queue-able frame.

    Spans are incremental (everything recorded after index ``since``;
    pass the returned cursor back next time), metric samples are
    cumulative (the aggregator keeps only the latest set per worker, so
    a lost frame degrades resolution, never correctness).
    """
    with hub.tracer._lock:
        spans = list(hub.tracer.spans[since:])
    # Open spans are skipped but the cursor advances past them: when
    # such a span later closes, ``Tracer._finish`` re-appends it beyond
    # the cursor, so it is captured exactly once by a later frame.  The
    # identity dedupe guards the converse -- a span listed twice that
    # closed before this capture must not be emitted twice.
    seen: set[int] = set()
    closed = []
    for s in spans:
        if s.end is None or id(s) in seen:
            continue
        seen.add(id(s))
        closed.append(s)
    frame = {
        "worker_id": worker_id,
        "pid": os.getpid(),
        "anchor_wall": hub.tracer.wall_t0,
        "spans": [span_to_dict(s) for s in closed],
        "samples": hub.metrics.samples(),
    }
    return frame, since + len(spans)


def sanitize_frame(frame) -> tuple[dict | None, int]:
    """Validate a worker frame before aggregation.

    Returns ``(clean_frame, dropped_span_count)``; ``clean_frame`` is
    None when the frame is unusable (not a dict, no integer
    ``worker_id``).  A partially malformed frame survives with its
    decodable spans: a span that is not a dict, lacks a name, or has
    non-numeric/missing start/end is dropped and counted, and a
    ``samples`` field that is not a list of dicts is discarded rather
    than poisoning :func:`merge_registries`.
    """
    if not isinstance(frame, dict):
        return None, 0
    try:
        worker_id = int(frame["worker_id"])
    except (KeyError, TypeError, ValueError):
        return None, 0
    clean = {
        "worker_id": worker_id,
        "pid": frame.get("pid", 0),
        "anchor_wall": frame.get("anchor_wall", 0.0),
    }
    if not isinstance(clean["pid"], int):
        clean["pid"] = 0
    if not isinstance(clean["anchor_wall"], (int, float)):
        clean["anchor_wall"] = 0.0
    spans, dropped = [], 0
    raw_spans = frame.get("spans", ())
    if not isinstance(raw_spans, (list, tuple)):
        raw_spans, dropped = (), dropped + 1
    for d in raw_spans:
        try:
            span_from_dict(d)
        except (TypeError, ValueError, KeyError, AttributeError):
            dropped += 1
            continue
        if not isinstance(d.get("start"), (int, float)) or \
                not isinstance(d.get("end"), (int, float)):
            dropped += 1
            continue
        spans.append(d)
    clean["spans"] = spans
    samples = frame.get("samples")
    if isinstance(samples, list) and all(
            isinstance(r, dict) and "name" in r and "kind" in r
            for r in samples):
        clean["samples"] = samples
    else:
        clean["samples"] = []
    return clean, dropped


# -- driver-side accumulation ------------------------------------------------
class TraceAggregator:
    """Accumulates worker telemetry frames on the driver."""

    def __init__(self):
        self._workers: dict[int, dict] = {}

    def add_frame(self, frame: dict) -> None:
        w = self._workers.setdefault(frame["worker_id"], {
            "worker_id": frame["worker_id"],
            "pid": frame.get("pid", 0),
            "anchor_wall": frame.get("anchor_wall", 0.0),
            "spans": [],
            "samples": [],
        })
        w["pid"] = frame.get("pid", w["pid"])
        w["anchor_wall"] = frame.get("anchor_wall", w["anchor_wall"])
        w["spans"].extend(span_from_dict(d) for d in frame.get("spans", ()))
        samples = frame.get("samples")
        if samples:  # cumulative: the latest frame supersedes older ones
            w["samples"] = list(samples)

    def __len__(self) -> int:
        return len(self._workers)

    def worker_ids(self) -> list[int]:
        return sorted(self._workers)

    def workers(self) -> list[dict]:
        """Per-worker summaries (id, pid, anchor, span count)."""
        return [
            {
                "worker_id": w["worker_id"],
                "pid": w["pid"],
                "anchor_wall": w["anchor_wall"],
                "spans": len(w["spans"]),
            }
            for _, w in sorted(self._workers.items())
        ]

    def sample_sets(self) -> list[list[dict]]:
        """One cumulative metric-sample list per worker."""
        return [list(w["samples"])
                for _, w in sorted(self._workers.items())]

    def aligned_spans(self, driver_anchor_wall: float):
        """Yield ``(pid, span)`` with every worker span shifted into the
        driver tracer's timebase via the wall-clock anchors."""
        for _, w in sorted(self._workers.items()):
            shift = w["anchor_wall"] - driver_anchor_wall
            for s in w["spans"]:
                yield w["pid"], Span(
                    name=s.name, start=s.start + shift, end=s.end + shift,
                    category=s.category, resource=s.resource,
                    depth=s.depth, attrs=dict(s.attrs))


# -- registry merging --------------------------------------------------------
def _child(family, labels: dict):
    return family.labels(**labels) if labels else family


def merge_registries(sample_sets) -> MetricsRegistry:
    """Rebuild one registry from several ``MetricsRegistry.samples()``
    row lists (driver + one per worker).

    Counters and histograms are summed across processes; a gauge series
    takes the last value seen (worker gauges are normally disambiguated
    by a ``worker`` label, so collisions only occur for genuinely
    process-local values where last-write-wins is the right call).
    """
    reg = MetricsRegistry()
    for rows in sample_sets:
        for row in rows:
            name, kind = row["name"], row["kind"]
            labels = dict(row.get("labels", {}))
            labelnames = tuple(labels)
            if kind == "counter":
                _child(reg.counter(name, labelnames=labelnames),
                       labels).inc(row["value"])
            elif kind == "gauge":
                _child(reg.gauge(name, labelnames=labelnames),
                       labels).set(row["value"])
            elif kind == "histogram":
                buckets = row.get("buckets", {})
                edges = tuple(float(e) for e in buckets)
                if not edges:
                    continue
                fam = reg.histogram(name, labelnames=labelnames,
                                    buckets=edges)
                child = _child(fam, labels)
                if len(child.buckets) == len(buckets):
                    prev = 0
                    for i, cum in enumerate(buckets.values()):
                        child.bucket_counts[i] += cum - prev
                        prev = cum
                child.sum += row["sum"]
                child.count += row["count"]
                exemplars = row.get("exemplars")
                if isinstance(exemplars, dict):
                    # last-write-wins per bucket edge, like gauges: an
                    # exemplar is "a recent observation here", not a sum
                    child.exemplars.update(
                        {str(e): dict(x) for e, x in exemplars.items()
                         if isinstance(x, dict)})
    return reg


# -- merged Chrome trace -----------------------------------------------------
def merged_chrome_trace(tracer: Tracer, aggregator: TraceAggregator | None,
                        extra_timelines=(), path=None) -> list[dict]:
    """One Perfetto-compatible Chrome trace across all processes.

    Driver spans keep their timestamps under the driver's real OS pid
    (pid 0 when there is no ``aggregator``, i.e. no worker processes);
    worker spans are shifted into the driver timebase via the wall-clock
    anchors and appear under their own real pids; simulated timelines
    get synthetic pids above every real one.  ``M`` metadata events name
    each process row and record the driver's wall-clock anchor.
    """
    driver_pid = os.getpid() if aggregator is not None else 0
    events: list[tuple[int, Span]] = [
        (driver_pid, s) for s in tracer.closed_spans()]
    pid_names: dict[int, str] = {driver_pid: "driver"}
    if aggregator is not None:
        for w in aggregator.workers():
            pid_names.setdefault(w["pid"], f"worker-{w['worker_id']}")
        events.extend(aggregator.aligned_spans(tracer.wall_t0))
    sim_base = max(pid_names) + 1
    for i, tl in enumerate(extra_timelines):
        pid = sim_base + i
        pid_names[pid] = f"simulated-{i}"
        for ev in tl.events:
            events.append((pid, Span(
                name=ev.name, start=ev.start, end=ev.end,
                category=ev.category, resource=ev.resource,
                attrs=dict(ev.meta))))

    lanes: dict[tuple[int, str], int] = {}
    for pid, s in sorted(events, key=lambda e: (e[0], e[1].resource)):
        lanes.setdefault((pid, s.resource), len(lanes))
    out: list[dict] = [
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
    for pid in sorted(pid_names):
        out.append({"name": "process_name", "ph": "M", "cat": "__metadata",
                    "pid": pid, "tid": 0, "args": {"name": pid_names[pid]}})
    out.append({"name": "clock_anchor", "ph": "M", "cat": "__metadata",
                "pid": driver_pid, "tid": 0,
                "args": {"wall_t0_unix": tracer.wall_t0}})
    if path is not None:
        atomic_write_text(Path(path), json.dumps(out))
    return out
