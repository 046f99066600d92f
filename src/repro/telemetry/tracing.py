"""End-to-end request tracing across the serve/search process boundary.

A serve request's life -- admission, micro-batch coalescing, dispatch
over the shared task queue, replica compute in another process, stitch
back into a response -- was only visible as aggregate counters.  This
module is the per-unit-of-work substrate (the Tune/Orchestrate lesson:
scheduling improvements are built on per-trial/request observability):

* :class:`TraceContext` -- the propagated identity: a ``trace_id``
  minted at :meth:`repro.serve.server.ModelServer.submit`, the parent
  ``span_id``, and the upfront sampling hint.  It crosses the process
  boundary inside the execpool task config (a plain dict, so the
  existing pickle path carries it) and is re-attached by the replica's
  worker-side span, parenting every process's spans into one timeline.
* :class:`RequestTracer` -- the driver-side assembler: stamps become
  the five phase spans ``queue_wait`` (admission -> batch release),
  ``batch_wait`` (release -> a replica picked the batch up),
  ``dispatch`` (queue hand-off/pickling around the compute),
  ``compute`` (replica-measured inference) and ``stitch`` (result ->
  resolved future).  The decomposition telescopes: the five durations
  sum *exactly* to the end-to-end latency.
* :class:`TailSampler` -- tail-based retention: error and retried
  requests are always kept, so are the slowest ~decile (an online p90
  threshold over a rolling latency window); the healthy fast majority
  is downsampled at ``sample_rate`` by a deterministic hash of the
  trace id.  Sampling bounds trace storage and keeps tracing inside
  the established <5% overhead budget while never losing the requests
  worth debugging.
* :func:`render_waterfall` / :func:`load_request_traces` -- the
  ``distmis trace <run-dir>`` view: a per-request phase waterfall that
  names the dominant phase.

Kept traces also land as spans on the hub tracer (one ``tid`` lane per
request) so :func:`repro.telemetry.aggregate.merged_chrome_trace`
renders driver phases and replica compute -- correct pid attribution
included -- in a single Perfetto view, and as ``requests.jsonl`` rows
in the run directory at flush time.
"""

from __future__ import annotations

import json
import uuid
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["TraceContext", "TracingConfig", "TailSampler", "RequestTrace",
           "RequestTracer", "render_waterfall", "load_request_traces",
           "SERVE_LATENCY_BUCKETS", "REQUESTS_JSONL", "PHASES"]

REQUESTS_JSONL = "requests.jsonl"

#: The per-request phase decomposition, in timeline order.
PHASES = ("queue_wait", "batch_wait", "dispatch", "compute", "stitch")

#: Fixed latency grid for serving SLOs: stable bucket edges are what
#: make p50/p95/p99 derivation and cross-run histogram diffs meaningful
#: (Prometheus' default grid is too coarse below 5 ms, where micro-
#: batched laptop-scale serving lives).
SERVE_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)


@dataclass(frozen=True)
class TraceContext:
    """The identity a request carries across every hop and process.

    ``trace_id`` is minted once at admission and survives fail-over
    resubmission (retried attempts share it -- one request, one trace);
    ``span_id`` names the parent span for children minted downstream;
    ``sampled`` is the *upfront* hint only -- the binding keep/drop
    decision is tail-based (:class:`TailSampler`), made at completion
    when latency and outcome are known.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    @classmethod
    def mint(cls, sampled: bool = True) -> "TraceContext":
        return cls(trace_id=uuid.uuid4().hex[:16],
                   span_id=uuid.uuid4().hex[:8], sampled=sampled)

    def child(self) -> "TraceContext":
        """A context for a downstream span parented on this one."""
        return TraceContext(trace_id=self.trace_id,
                            span_id=uuid.uuid4().hex[:8],
                            sampled=self.sampled)

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "sampled": self.sampled}

    @classmethod
    def from_dict(cls, d: dict) -> "TraceContext":
        return cls(trace_id=str(d["trace_id"]), span_id=str(d["span_id"]),
                   sampled=bool(d.get("sampled", True)))


@dataclass
class TracingConfig:
    """Knobs for request tracing (defaults fit the overhead budget)."""

    enabled: bool = True
    sample_rate: float = 0.1      # keep fraction for healthy fast traces
    slow_quantile: float = 0.9    # always keep above this latency quantile
    latency_window: int = 256     # rolling window sizing the quantile
    min_window: int = 20          # no slow-keeps until this many samples
    max_traces: int = 2048        # bounded kept-trace retention

    def __post_init__(self):
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if not 0.0 < self.slow_quantile < 1.0:
            raise ValueError("slow_quantile must be in (0, 1)")
        if self.latency_window < 1 or self.min_window < 1:
            raise ValueError("window sizes must be >= 1")


def _hash_unit(trace_id: str) -> float:
    """Deterministic [0, 1) value from a trace id: the same trace makes
    the same sampling decision in every process and on every replay."""
    return (zlib.crc32(trace_id.encode("ascii", "replace")) & 0xFFFFFFFF) \
        / 2 ** 32


class TailSampler:
    """Tail-based keep/drop decisions at request completion.

    Policy, in order: errors and retried requests are always kept
    (they are precisely the traces fail-over debugging needs); the
    slowest tail -- latency at or above the rolling
    ``slow_quantile`` threshold -- is always kept (head-of-line
    blocking lives there); everything else is sampled at
    ``sample_rate`` by a deterministic hash of the trace id.
    """

    def __init__(self, config: TracingConfig | None = None):
        self.config = config or TracingConfig()
        self._window: deque[float] = deque(
            maxlen=self.config.latency_window)

    def slow_threshold(self) -> float | None:
        """Current keep-everything-above latency (None while warming)."""
        if len(self._window) < self.config.min_window:
            return None
        ordered = sorted(self._window)
        idx = min(len(ordered) - 1,
                  int(self.config.slow_quantile * len(ordered)))
        return ordered[idx]

    def decide(self, trace_id: str, latency_s: float,
               error: bool = False, retried: bool = False
               ) -> tuple[bool, str]:
        """(keep?, reason) for one completed request."""
        threshold = self.slow_threshold()
        self._window.append(float(latency_s))
        if error:
            return True, "error"
        if retried:
            return True, "retried"
        if threshold is not None and latency_s >= threshold:
            return True, "slow"
        if _hash_unit(trace_id) < self.config.sample_rate:
            return True, "sampled"
        return False, "dropped"


@dataclass
class RequestTrace:
    """One assembled per-request timeline (phases relative to arrival)."""

    request_id: str
    trace_id: str
    latency_s: float
    phases: list = field(default_factory=list)  # {phase, start_s, dur_s}
    attempt: int = 0
    strategy: str = ""
    batch_id: str = ""
    batch_size: int = 0
    replica: int | None = None
    replica_pid: int | None = None
    error: str | None = None
    kept: bool = True
    keep_reason: str = "sampled"
    t_wall: float = 0.0
    kernel_seconds: dict = field(default_factory=dict)
    # scatter--gather fan-out: patch-chunk tasks this request split
    # into (0 = not scattered) and the distinct replicas that served
    # them -- ``distmis trace`` shows one request across worker pids.
    priority: str = ""
    chunks: int = 0
    chunk_replicas: list = field(default_factory=list)

    def phase_durations(self) -> dict:
        return {p["phase"]: p["dur_s"] for p in self.phases}

    def dominant_phase(self) -> str | None:
        """The phase eating the largest share of the latency."""
        if not self.phases:
            return None
        return max(self.phases, key=lambda p: p["dur_s"])["phase"]

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "latency_s": self.latency_s,
            "phases": [dict(p) for p in self.phases],
            "attempt": self.attempt,
            "strategy": self.strategy,
            "batch_id": self.batch_id,
            "batch_size": self.batch_size,
            "replica": self.replica,
            "replica_pid": self.replica_pid,
            "error": self.error,
            "kept": self.kept,
            "keep_reason": self.keep_reason,
            "t_wall": self.t_wall,
            "kernel_seconds": dict(self.kernel_seconds),
            "priority": self.priority,
            "chunks": self.chunks,
            "chunk_replicas": list(self.chunk_replicas),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RequestTrace":
        return cls(
            request_id=str(d.get("request_id", "?")),
            trace_id=str(d.get("trace_id", "")),
            latency_s=float(d.get("latency_s", 0.0)),
            phases=[dict(p) for p in d.get("phases", [])],
            attempt=int(d.get("attempt", 0)),
            strategy=str(d.get("strategy", "")),
            batch_id=str(d.get("batch_id", "")),
            batch_size=int(d.get("batch_size", 0)),
            replica=d.get("replica"),
            replica_pid=d.get("replica_pid"),
            error=d.get("error"),
            kept=bool(d.get("kept", True)),
            keep_reason=str(d.get("keep_reason", "sampled")),
            t_wall=float(d.get("t_wall", 0.0)),
            kernel_seconds=dict(d.get("kernel_seconds", {})),
            priority=str(d.get("priority", "")),
            chunks=int(d.get("chunks", 0)),
            chunk_replicas=list(d.get("chunk_replicas", [])),
        )


class RequestTracer:
    """Driver-side assembly of per-request timelines.

    The :class:`~repro.serve.server.ModelServer` mints a context per
    admitted request (:meth:`begin`) and reports the monotonic stamps
    it collected at completion (:meth:`complete`); this class turns
    them into the telescoping five-phase decomposition, applies the
    tail sampler, records kept traces as spans on the hub tracer (in
    the hub tracer's timebase, bridged via a fixed monotonic offset
    captured at construction) and retains them for the ``requests.jsonl``
    artefact and ``distmis trace``.
    """

    def __init__(self, telemetry=None, config: TracingConfig | None = None,
                 wall_clock=None):
        import time as _time

        if telemetry is None:
            from .hub import get_hub

            telemetry = get_hub()
        self.telemetry = telemetry
        self.config = config or TracingConfig()
        self.sampler = TailSampler(self.config)
        self._wall = wall_clock or _time.time
        # Fixed bridge from time.monotonic() readings to the hub
        # tracer's clock: one offset captured now, so recording a phase
        # span costs zero extra clock reads per event.
        self._mono_to_trace = (
            telemetry.tracer.now() - _time.monotonic())
        self.kept: deque[RequestTrace] = deque(
            maxlen=self.config.max_traces)
        self._c_decisions = telemetry.metrics.counter(
            "trace_requests_total",
            "request-trace sampling decisions", ("decision",))

    def begin(self, request_id: str) -> TraceContext:
        """Mint the context carried by one admitted request."""
        return TraceContext.mint(sampled=self.config.enabled)

    def _span(self, name: str, start_mono: float, end_mono: float,
              request_id: str, ctx: TraceContext, **attrs) -> None:
        off = self._mono_to_trace
        self.telemetry.tracer.record_span(
            name, start_mono + off, max(start_mono, end_mono) + off,
            resource=request_id, category="serve",
            trace_id=ctx.trace_id, request_id=request_id, **attrs)

    def complete(self, ctx: TraceContext, request_id: str, *,
                 arrival: float, released: float | None = None,
                 started: float | None = None, done: float | None = None,
                 completed: float, compute_s: float = 0.0,
                 attempt: int = 0, strategy: str = "", batch_id: str = "",
                 batch_size: int = 0, replica: int | None = None,
                 replica_pid: int | None = None, error: str | None = None,
                 kernel_seconds: dict | None = None, priority: str = "",
                 chunk_spans: list | None = None) -> RequestTrace:
        """Assemble, sample and (if kept) record one finished request.

        The stamps are ``time.monotonic()`` readings, a clock every
        process on the host shares: ``arrival`` (submit), ``released``
        (the micro-batcher let the batch go), ``started`` (the replica
        began its model call, stamped by the replica; a failed request
        falls back to when the driver read the replica's "started"
        message), ``done`` (the result message reached the driver) and
        ``completed`` (the future resolved).  A missing stamp
        (failed request) collapses the phases it bounds to zero; the
        five durations always sum exactly to ``completed - arrival``.

        ``chunk_spans`` (scatter--gather requests) is one dict per
        patch-chunk task the request was decomposed into --
        ``{"chunk": i, "start": mono, "end": mono, "replica": wid,
        "pid": pid, "attempt": n}`` -- recorded as ``sw_chunk`` child
        spans of the kept trace, so the merged Chrome trace and
        ``distmis trace`` show one request fanned across worker pids.
        """
        released = arrival if released is None else max(arrival, released)
        started = released if started is None else max(released, started)
        done = started if done is None else max(started, done)
        completed = max(done, completed)
        # compute is replica-measured but capped to the started->done
        # window so dispatch >= 0 and the sum telescopes.
        compute = min(max(0.0, float(compute_s)), done - started)
        durations = {
            "queue_wait": released - arrival,
            "batch_wait": started - released,
            "dispatch": (done - started) - compute,
            "compute": compute,
            "stitch": completed - done,
        }
        # timeline order, with compute nested *inside* the dispatch
        # window laid out as [dispatch_pre][compute] for rendering
        starts = {
            "queue_wait": 0.0,
            "batch_wait": released - arrival,
            "dispatch": started - arrival,
            "compute": (started - arrival) + durations["dispatch"],
            "stitch": done - arrival,
        }
        latency = completed - arrival
        keep, reason = self.sampler.decide(
            ctx.trace_id, latency, error=error is not None,
            retried=attempt > 0)
        chunk_spans = list(chunk_spans or [])
        trace = RequestTrace(
            request_id=request_id, trace_id=ctx.trace_id,
            latency_s=latency,
            phases=[{"phase": p, "start_s": starts[p],
                     "dur_s": durations[p]} for p in PHASES],
            attempt=attempt, strategy=strategy, batch_id=batch_id,
            batch_size=batch_size, replica=replica,
            replica_pid=replica_pid, error=error, kept=keep,
            keep_reason=reason, t_wall=self._wall(),
            kernel_seconds=dict(kernel_seconds or {}),
            priority=priority,
            chunks=len(chunk_spans),
            chunk_replicas=sorted({c["replica"] for c in chunk_spans
                                   if c.get("replica") is not None}),
        )
        self._c_decisions.labels(decision=reason).inc()
        if keep and self.config.enabled:
            self.kept.append(trace)
            base = dict(batch_id=batch_id, attempt=attempt)
            if error is not None:
                base["error"] = error
            self._span("request", arrival, completed, request_id, ctx,
                       strategy=strategy, batch_size=batch_size,
                       replica=replica, keep_reason=reason,
                       latency_s=round(latency, 6), **base)
            for p in PHASES:
                if durations[p] <= 0:
                    continue
                t0 = arrival + starts[p]
                self._span(p, t0, t0 + durations[p], request_id, ctx,
                           phase=p, **base)
            for c in chunk_spans:
                if c.get("end", 0.0) <= c.get("start", 0.0):
                    continue
                self._span(f"sw_chunk_{int(c.get('chunk', 0)):03d}",
                           float(c["start"]), float(c["end"]),
                           request_id, ctx,
                           chunk=int(c.get("chunk", 0)),
                           replica=c.get("replica"),
                           replica_pid=c.get("pid"),
                           attempt=int(c.get("attempt", 0)))
        return trace

    # -- export --------------------------------------------------------------
    def traces(self) -> list[RequestTrace]:
        return list(self.kept)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(t.to_dict(), sort_keys=True) + "\n"
                       for t in self.kept)


# -- the ``distmis trace`` view ----------------------------------------------
def load_request_traces(run_dir) -> list[RequestTrace]:
    """Parse ``requests.jsonl`` from a run directory (tolerates a torn
    tail exactly like the event log)."""
    path = Path(run_dir) / REQUESTS_JSONL
    if not path.exists():
        return []
    traces: list[RequestTrace] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict):
                traces.append(RequestTrace.from_dict(row))
    return traces


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}ms"


def render_waterfall(trace: RequestTrace, width: int = 40) -> str:
    """A text waterfall of one request's phases, naming the dominant
    one -- the ``distmis trace`` renderer (pure, like ``TopView``)."""
    total = max(trace.latency_s, 1e-12)
    head = (f"{trace.request_id}  trace {trace.trace_id}  "
            f"latency {_fmt_ms(trace.latency_s)}  "
            f"batch {trace.batch_size}  replica {trace.replica}  "
            f"attempt {trace.attempt}  [{trace.keep_reason}]")
    if trace.priority:
        head += f"  prio={trace.priority}"
    lines = [head]
    if trace.chunks:
        fanned = ", ".join(str(r) for r in trace.chunk_replicas)
        lines.append(f"  scatter-gather: {trace.chunks} patch chunks "
                     f"across replicas [{fanned}]")
    if trace.error:
        lines.append(f"  ERROR: {trace.error}")
    for p in trace.phases:
        left = int(round(p["start_s"] / total * width))
        bar = int(round(p["dur_s"] / total * width))
        if p["dur_s"] > 0:
            bar = max(1, bar)
        left = min(left, width - bar)
        lane = " " * left + "#" * bar + " " * (width - left - bar)
        share = p["dur_s"] / total
        lines.append(f"  {p['phase']:<11} |{lane}| "
                     f"{_fmt_ms(p['dur_s']):>8} {share * 100:5.1f}%")
    dominant = trace.dominant_phase()
    if dominant is not None:
        share = trace.phase_durations()[dominant] / total
        lines.append(f"  dominant phase: {dominant} "
                     f"({share * 100:.0f}% of latency)")
    return "\n".join(lines)
