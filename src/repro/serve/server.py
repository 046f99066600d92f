"""Production inference serving: scatter--gather micro-batched replicas.

:class:`ModelServer` fronts N checkpoint-loaded model replicas (warm
worker processes from :class:`repro.execpool.executor.ProcessPoolTrialExecutor`)
with an admission queue:

* :meth:`ModelServer.submit` routes a volume to full-volume or
  sliding-window inference by size, and each route has one replica
  task type.  A full-volume request is one whole-request work item
  (``strategy="full_volume"``).  A sliding-window request is always
  **scattered**: decomposed into the exact per-chunk ``model.predict``
  invocations offline :func:`repro.core.inference.sliding_window_inference`
  would run (:func:`~repro.core.inference.sliding_window_spec` /
  :func:`~repro.core.inference.chunk_bounds`), each chunk a separately
  schedulable work item.  The :class:`~repro.serve.batcher.MicroBatcher`
  coalesces chunks *across requests* into replica tasks under weighted
  fair queuing, so a small request admitted behind a 100-chunk volume
  no longer waits for all of it -- the head-of-line-blocking fix
  measured in ``BENCH_serving.json``.  ``submit(..., priority=)`` maps
  to the fair scheduler's weights, and when the backlog (the same
  ``serve_queue_depth`` signal the ``serve_backlog`` alert watches)
  exceeds ``shed_backlog``, sheddable priorities are rejected at
  admission instead of poisoning every queue behind them.
* Chunk predictions **gather** driver-side: buffered per request as
  they return from whatever replica ran them, then stitched in one
  canonical-order pass (:func:`~repro.core.inference.stitch_chunks`)
  -- bit-identical to offline inference regardless of arrival order,
  by construction.
* :meth:`ModelServer.step` -- the single driver entry point, called
  from the caller's loop exactly like
  :meth:`repro.telemetry.live.LiveMonitor.tick` -- drains worker
  messages, fails dead replicas over (in-flight work is **retried, not
  dropped**, at task granularity: a dead replica re-runs only its own
  tasks, so a scattered request re-runs only the chunks it had there),
  releases due batches under dispatch credits
  (``max_inflight_per_replica`` tasks per live replica, so the backlog
  accumulates in the fair batcher rather than the replicas' FIFO task
  queue), heals the pool to its target size, and applies
  :class:`~repro.serve.autoscaler.Autoscaler` decisions -- shed
  admissions count as backlog pressure so shedding cannot starve the
  scale-up signal.
* :meth:`ModelServer.drain` blocks until every admitted request has a
  response.

No background threads anywhere: everything advances inside ``step``,
driven by monotonic time, so the whole control loop is deterministic
under test.  Telemetry lands on the ambient hub (``serve_queue_depth``,
``serve_replicas``, ``serve_shed_total``, latency/batch-size
histograms) and feeds the ``serve_backlog`` alert rule plus the live
monitor when one is attached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.inference import (chunk_bounds, sliding_window_spec,
                              stitch_chunks)
from ..data.patches import extract_patches
from ..execpool import ProcessPoolTrialExecutor
from ..telemetry.metrics import Histogram
from ..telemetry.tracing import (SERVE_LATENCY_BUCKETS, RequestTracer,
                                 TracingConfig)
from .autoscaler import Autoscaler, AutoscalerConfig
from .batcher import BatchKey, MicroBatcher
from .replica import replica_factory

__all__ = ["ServeConfig", "InferenceResponse", "ServeFuture",
           "ModelServer", "PRIORITIES"]

# priority -> weighted-fair share of release slots (see batcher stride
# scheduling); the default ladder gives high 4x low's slots under
# contention without ever starving low outright
PRIORITIES = {"high": 4.0, "normal": 2.0, "low": 1.0}

_COMPUTE_DTYPES = (None, "float32", "float64")


def _chunk_item_id(request_id: str, chunk_index: int) -> str:
    """Batcher work-item id of one scattered request's patch chunk."""
    return f"{request_id}#c{chunk_index:04d}"


@dataclass
class ServeConfig:
    """Everything a replica pool needs to serve one checkpoint."""

    checkpoint: str               # best-trial .npz (CheckpointManager)
    model_builder: Callable       # picklable, e.g. repro.nn.UNet3D
    model_kwargs: dict = field(default_factory=dict)
    replicas: int = 2
    max_batch: int = 4
    max_delay_ms: float = 10.0    # micro-batch deadline
    # volumes whose spatial voxel count exceeds this go to the
    # sliding-window strategy instead of one full-volume pass
    full_volume_max_voxels: int = 64 ** 3
    patch_shape: tuple = (16, 16, 16)
    overlap: float = 0.5
    sw_batch_size: int = 4
    max_retries: int = 2          # per-task fail-over budget
    autoscale: bool = False
    autoscaler: AutoscalerConfig | None = None
    heartbeat_s: float = 0.5
    start_method: str | None = None
    tracing: TracingConfig | None = None  # None -> TracingConfig()
    # submit(priority=...) -> weighted-fair share; keys are the accepted
    # priorities (validated at admission)
    priority_weights: dict = field(
        default_factory=lambda: dict(PRIORITIES))
    # backlog (unanswered requests) at which sheddable priorities are
    # rejected at admission; 0 disables shedding.  Pairs with the
    # serve_backlog alert, which fires on the same queue-depth signal.
    shed_backlog: int = 0
    shed_priorities: tuple = ("low",)
    # dispatch credits: tasks in flight per live replica before the
    # batcher stops releasing (backlog then waits *fairly* here instead
    # of FIFO on the shared task queue)
    max_inflight_per_replica: int = 2
    # float32 serving mode (ROADMAP 1c): set the replicas' kernel dtype
    # policy; None keeps the ambient float64 default.  float32 trades
    # the bit-identity-to-offline-float64 guarantee for speed -- the
    # trade-off is a labelled row in BENCH_serving.json.
    compute_dtype: str | None = None

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        if self.full_volume_max_voxels < 1:
            raise ValueError("full_volume_max_voxels must be >= 1")
        if len(self.patch_shape) != 3:
            raise ValueError(
                f"patch_shape must have 3 dims, got {self.patch_shape!r}")
        # raises on a patch dim < 1 or an overlap outside [0, 1)
        sliding_window_spec(tuple(self.patch_shape), float(self.overlap))
        if self.sw_batch_size < 1:
            raise ValueError("sw_batch_size must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be > 0")
        if not self.priority_weights:
            raise ValueError("priority_weights must not be empty")
        for prio, weight in self.priority_weights.items():
            if weight <= 0:
                raise ValueError(
                    f"priority {prio!r} weight must be > 0, got {weight}")
        unknown = set(self.shed_priorities) - set(self.priority_weights)
        if unknown:
            raise ValueError(
                f"shed_priorities {sorted(unknown)} not in "
                f"priority_weights {sorted(self.priority_weights)}")
        if self.shed_backlog < 0:
            raise ValueError("shed_backlog must be >= 0")
        if self.max_inflight_per_replica < 1:
            raise ValueError("max_inflight_per_replica must be >= 1")
        if self.compute_dtype not in _COMPUTE_DTYPES:
            raise ValueError(
                f"compute_dtype must be one of {_COMPUTE_DTYPES}, got "
                f"{self.compute_dtype!r}")


@dataclass
class InferenceResponse:
    """One served prediction plus its latency/batching provenance."""

    request_id: str
    prediction: np.ndarray        # (C, D, H, W)
    strategy: str
    latency_s: float              # admission -> response, monotonic
    batch_size: int               # items coalesced into the (last) batch
    replica: int | None           # worker id that answered (last chunk's)
    attempt: int                  # >0 means the request survived retry
    model_seconds: float          # replica-side inference time
    checkpoint_epoch: int | None = None
    # Per-request phase decomposition (telescoping: queue_wait +
    # batch_wait + dispatch + compute + stitch == latency_s exactly).
    trace_id: str = ""
    queue_wait_s: float = 0.0     # admission -> micro-batch release
    batch_wait_s: float = 0.0     # release -> a replica picked it up
    dispatch_s: float = 0.0       # queue hand-off/pickling overhead
    compute_s: float = 0.0        # replica-measured inference window
    stitch_s: float = 0.0         # result message -> resolved future
    # scatter--gather provenance
    priority: str = "normal"
    chunks: int = 0               # patch-chunk tasks (0 = whole-request)
    chunk_replicas: list = field(default_factory=list)


class ServeFuture:
    """Handle for an admitted request; resolved by ``server.step()``.

    ``shed`` is True when admission rejected the request under backlog
    pressure -- the future is immediately done and ``result()`` raises.
    """

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.shed = False
        self._response: InferenceResponse | None = None
        self._error: str | None = None

    def done(self) -> bool:
        return self._response is not None or self._error is not None

    def result(self) -> InferenceResponse:
        if self._error is not None:
            raise RuntimeError(
                f"request {self.request_id} failed: {self._error}")
        if self._response is None:
            raise RuntimeError(
                f"request {self.request_id} is still pending -- drive "
                "server.step() / server.drain()")
        return self._response


@dataclass
class _Pending:
    volume: np.ndarray
    key: BatchKey
    future: ServeFuture
    arrival_mono: float
    priority: str = "normal"
    # Trace context lives driver-side with the pending request, so a
    # SIGKILL-retried task resubmits under the *same* trace_id -- one
    # request, one trace, however many attempts it took.
    ctx: object = None            # TraceContext
    released_mono: float | None = None  # first item left the batcher
    # -- scatter--gather state (sliding-window requests only) --------------
    patches: np.ndarray | None = None     # (n_patches, C, *patch)
    offsets: list | None = None
    bounds: list | None = None            # chunk_bounds() ranges
    chunk_results: dict = field(default_factory=dict)  # ci -> (n,C,*patch)
    chunk_seconds: dict = field(default_factory=dict)  # ci -> replica s
    chunk_spans: list = field(default_factory=list)
    started_mono: float | None = None     # first chunk picked up
    done_mono: float | None = None        # last chunk result arrived
    attempt_max: int = 0


@dataclass
class _Inflight:
    key: BatchKey
    items: list                   # work-item ids (rids, or "rid#cNN")
    request_ids: list             # distinct requests with skin in the task
    attempt: int
    worker: int | None = None     # unknown until "started" arrives
    started_mono: float | None = None   # when "started" arrived


class ModelServer:
    """Micro-batched, autoscaled, fault-tolerant model serving.

    >>> server = ModelServer(ServeConfig(checkpoint=best, ...))
    >>> fut = server.submit(volume, priority="high")
    >>> server.drain()
    >>> fut.result().prediction
    """

    def __init__(self, config: ServeConfig, telemetry=None):
        if telemetry is None:
            from ..telemetry import get_hub

            telemetry = get_hub()
        self.config = config
        self.telemetry = telemetry
        self.tracing = config.tracing or TracingConfig()
        self.request_tracer = RequestTracer(telemetry=telemetry,
                                            config=self.tracing)
        attach = getattr(telemetry, "attach_request_tracer", None)
        if attach is not None:
            attach(self.request_tracer)
        self.batcher = MicroBatcher(max_batch=config.max_batch,
                                    max_delay_s=config.max_delay_ms / 1e3)
        self.autoscaler = Autoscaler(
            config.autoscaler) if config.autoscale else None
        self.executor = ProcessPoolTrialExecutor(
            trainable_factory=replica_factory,
            factory_kwargs={"checkpoint": config.checkpoint,
                            "model_builder": config.model_builder,
                            "model_kwargs": dict(config.model_kwargs),
                            "compute_dtype": config.compute_dtype},
            max_workers=config.replicas,
            start_method=config.start_method,
            telemetry=telemetry,
            heartbeat_s=config.heartbeat_s,
            # replica compute spans must flow back even when the hub is
            # not in full profile mode -- that is what parents them into
            # the per-request timelines
            worker_telemetry=(self.tracing.enabled
                              and bool(getattr(telemetry, "enabled",
                                               False))),
        )
        self._target_replicas = config.replicas
        self._pending: dict[str, _Pending] = {}
        self._inflight: dict[str, _Inflight] = {}
        # chunk work-item id -> (request_id, chunk_index); the scatter
        # registry items resolve through until their request finishes
        self._chunk_items: dict[str, tuple[str, int]] = {}
        self._handled_dead: set[int] = set()
        self._n_requests = 0
        self._n_batches = 0
        self._n_shed = 0
        self._shed_since_obs = 0   # backlog pressure for the autoscaler
        self._closed = False
        m = telemetry.metrics
        self._g_queue = m.gauge(
            "serve_queue_depth", "requests admitted, not yet answered")
        self._g_inflight = m.gauge(
            "serve_inflight_requests", "requests dispatched to replicas")
        self._g_replicas = m.gauge(
            "serve_replicas", "model replicas serving the queue")
        self._c_requests = m.counter(
            "serve_requests_total", "served requests by outcome",
            ("status",))
        self._c_retries = m.counter(
            "serve_batch_retries_total",
            "batches resubmitted after a replica failure")
        self._h_latency = m.histogram(
            "serve_latency_seconds", "admission-to-response latency",
            buckets=SERVE_LATENCY_BUCKETS)
        self._h_batch = m.histogram(
            "serve_batch_size", "work items coalesced per dispatched batch")
        # A local always-on copy of the latency histogram: quantile
        # gauges, SLO alerts and the serve-bench histogram export must
        # work even when the ambient hub is the null hub.
        self._latency_hist = Histogram(
            "serve_latency_seconds", "admission-to-response latency",
            buckets=SERVE_LATENCY_BUCKETS)
        self._g_p50 = m.gauge(
            "serve_latency_p50", "median serve latency (bucket estimate)")
        self._g_p95 = m.gauge(
            "serve_latency_p95", "p95 serve latency (bucket estimate)")
        self._g_p99 = m.gauge(
            "serve_latency_p99", "p99 serve latency (bucket estimate)")
        # Same counter name the trainer drains its ledger into, so the
        # profiler's per-backend compute split covers serving too.
        self._c_kernel = m.counter(
            "kernel_seconds_total",
            "replica kernel time by backend and op",
            ("backend", "op"))
        self._kernel_seconds: dict[str, float] = {}
        self._g_replicas.set(self.executor.worker_count())

    # -- admission ----------------------------------------------------------
    def route(self, volume: np.ndarray) -> str:
        """Strategy for one (C, D, H, W) volume: small enough for a
        single full-volume pass, else tiled sliding-window."""
        spatial_voxels = int(np.prod(volume.shape[1:]))
        return ("full_volume"
                if spatial_voxels <= self.config.full_volume_max_voxels
                else "sliding_window")

    def submit(self, volume: np.ndarray, request_id: str | None = None,
               priority: str = "normal") -> ServeFuture:
        """Admit one (C, D, H, W) volume; returns a future resolved by
        a later :meth:`step`.

        ``priority`` sets the request's weighted-fair share of dispatch
        slots and whether backlog shedding may reject it: when the
        unanswered-request backlog is at least ``config.shed_backlog``
        (>0) and ``priority`` is sheddable, the future comes back
        already failed with ``shed=True`` instead of joining the queue.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        if priority not in self.config.priority_weights:
            raise ValueError(
                f"unknown priority {priority!r}; configured: "
                f"{sorted(self.config.priority_weights)}")
        volume = np.asarray(volume)
        if volume.ndim != 4:
            raise ValueError(
                f"expected one (C, D, H, W) volume, got {volume.shape}")
        if request_id is None:
            request_id = f"req_{self._n_requests:06d}"
        if request_id in self._pending:
            raise ValueError(f"duplicate request id {request_id!r}")
        self._n_requests += 1
        future = ServeFuture(request_id)
        backlog = len(self._pending)
        if (self.config.shed_backlog > 0
                and priority in self.config.shed_priorities
                and backlog >= self.config.shed_backlog):
            future.shed = True
            future._error = (
                f"shed: priority={priority} backlog={backlog} >= "
                f"{self.config.shed_backlog}")
            self._n_shed += 1
            self._shed_since_obs += 1
            self._c_requests.labels(status="shed").inc()
            return future
        strategy = self.route(volume)
        weight = float(self.config.priority_weights[priority])
        now = time.monotonic()
        if strategy == "sliding_window":
            self._submit_scattered(request_id, volume, future, priority,
                                   weight, now)
        else:
            key = BatchKey(strategy=strategy, shape=tuple(volume.shape),
                           dtype=str(volume.dtype))
            self._pending[request_id] = _Pending(
                volume=volume, key=key, future=future, arrival_mono=now,
                priority=priority,
                ctx=self.request_tracer.begin(request_id))
            self.batcher.add(request_id, key, now,
                             request_id=request_id, weight=weight)
        self._g_queue.set(len(self._pending))
        return future

    def _submit_scattered(self, request_id: str, volume: np.ndarray,
                          future: ServeFuture, priority: str,
                          weight: float, now: float) -> None:
        """Scatter: decompose the request into the offline plan's patch
        chunks, each an independently schedulable work item."""
        spec = sliding_window_spec(tuple(self.config.patch_shape),
                                   float(self.config.overlap))
        patches, offsets = extract_patches(volume, spec)
        bounds = chunk_bounds(len(patches),
                              int(self.config.sw_batch_size))
        key = BatchKey(strategy="sw_chunks",
                       shape=tuple(patches.shape[1:]),
                       dtype=str(patches.dtype))
        self._pending[request_id] = _Pending(
            volume=volume, key=key, future=future, arrival_mono=now,
            priority=priority, ctx=self.request_tracer.begin(request_id),
            patches=patches, offsets=offsets, bounds=bounds)
        for ci in range(len(bounds)):
            item_id = _chunk_item_id(request_id, ci)
            self._chunk_items[item_id] = (request_id, ci)
            self.batcher.add(item_id, key, now,
                             request_id=request_id, weight=weight)

    def pending_count(self) -> int:
        """Requests admitted but not yet answered (queued + in flight)."""
        return len(self._pending)

    def shed_count(self) -> int:
        """Requests rejected at admission under backlog pressure."""
        return self._n_shed

    def kernel_seconds(self) -> dict[str, float]:
        """Cumulative replica kernel time by ``"backend/op"`` across every
        completed batch (serve-bench reports this attribution)."""
        return dict(self._kernel_seconds)

    def request_traces(self):
        """The kept per-request timelines (tail-sampled), oldest first."""
        return self.request_tracer.traces()

    def latency_quantile(self, q: float) -> float:
        """Bucket-estimated latency quantile over every answered
        request (NaN before the first response)."""
        return self._latency_hist.quantile(q)

    def latency_histogram(self) -> list[list[float]]:
        """Cumulative ``[edge_seconds, count]`` pairs -- the fixed
        SLO bucket grid serve-bench persists."""
        cum = 0
        out = []
        for edge, n in zip(self._latency_hist.buckets,
                           self._latency_hist.bucket_counts):
            cum += n
            out.append([float(edge), int(cum)])
        return out

    # -- dispatch -----------------------------------------------------------
    def _live_items(self, items: list) -> list:
        """Drop orphans: work items whose request already finished
        (failed elsewhere, or a stale retry of a completed chunk)."""
        live = []
        for item in items:
            if item in self._chunk_items:
                rid, ci = self._chunk_items[item]
                pending = self._pending.get(rid)
                if pending is None or ci in pending.chunk_results:
                    continue
            elif item not in self._pending:
                continue
            live.append(item)
        return live

    def _dispatch(self, key: BatchKey, items: list,
                  now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        for item in items:
            rid = self._chunk_items.get(item, (item, 0))[0]
            pending = self._pending.get(rid)
            if pending is not None and pending.released_mono is None:
                pending.released_mono = now  # queue_wait ends here
        if self._submit_batch(key, items, attempt=0):
            self._h_batch.observe(len(items))

    def _submit_batch(self, key: BatchKey, items: list,
                      attempt: int, batch_id: str | None = None) -> bool:
        """Ship one replica task; returns False when every item turned
        out to be an orphan (nothing submitted)."""
        items = self._live_items(items)
        if not items:
            return False
        if batch_id is None:
            batch_id = f"batch_{self._n_batches:06d}"
            self._n_batches += 1
        if key.strategy == "sw_chunks":
            request_ids = []
            chunks, owners, indices = [], [], []
            for item in items:
                rid, ci = self._chunk_items[item]
                pending = self._pending[rid]
                start, end = pending.bounds[ci]
                chunks.append(pending.patches[start:end])
                owners.append(rid)
                indices.append(ci)
                if rid not in request_ids:
                    request_ids.append(rid)
            task = {"strategy": "sw_chunks", "chunks": chunks,
                    "chunk_requests": owners, "chunk_indices": indices}
        else:
            request_ids = list(items)
            volumes = np.stack(
                [self._pending[rid].volume for rid in request_ids])
            task = {"volumes": volumes, "strategy": key.strategy}
        # Trace-context propagation: the contexts ride the task dict
        # over the existing pickle path and are re-attached by the
        # replica's worker-side span.  Retries resubmit the same
        # contexts (they live in _Pending), keeping one trace_id per
        # request across attempts.
        contexts = {
            rid: self._pending[rid].ctx.to_dict()
            for rid in request_ids
            if getattr(self._pending.get(rid), "ctx", None) is not None
        }
        if contexts and self.tracing.enabled:
            task["trace"] = {"batch_id": batch_id, "attempt": int(attempt),
                             "contexts": contexts}
        self._inflight[batch_id] = _Inflight(
            key=key, items=list(items), request_ids=request_ids,
            attempt=attempt)
        self.executor.submit(batch_id, task, attempt=attempt)
        return True

    def _retry_batch(self, batch_id: str, batch: _Inflight,
                     reason: str) -> None:
        """Resubmit a failed task -- chunk tasks re-run *only their own
        chunks* -- or fail the involved requests when the retry budget
        is spent."""
        self._inflight.pop(batch_id, None)
        if batch.attempt + 1 <= self.config.max_retries:
            self._c_retries.inc()
            self._submit_batch(batch.key, batch.items,
                               attempt=batch.attempt + 1,
                               batch_id=batch_id)
            return
        for rid in batch.request_ids:
            self._fail_request(rid, batch, batch_id, reason)

    def _fail_request(self, rid: str, batch: _Inflight, batch_id: str,
                      reason: str) -> None:
        pending = self._pending.pop(rid, None)
        if pending is None:
            return
        self._drop_chunk_items(rid, pending)
        pending.future._error = reason
        self._c_requests.labels(status="failed").inc()
        if pending.ctx is not None:
            # error traces are always kept by the tail sampler
            self.request_tracer.complete(
                pending.ctx, rid,
                arrival=pending.arrival_mono,
                released=pending.released_mono,
                started=pending.started_mono or batch.started_mono,
                completed=time.monotonic(),
                attempt=max(pending.attempt_max, batch.attempt),
                strategy=("sliding_window" if pending.bounds is not None
                          else batch.key.strategy),
                batch_id=batch_id, batch_size=len(batch.items),
                replica=batch.worker, error=reason,
                priority=pending.priority,
                chunk_spans=pending.chunk_spans or None)

    def _drop_chunk_items(self, rid: str, pending: _Pending) -> None:
        """Forget the scatter registry entries of a finished request --
        any of its items still in the batcher or in flight become
        orphans that _live_items filters out."""
        for ci in range(len(pending.bounds or ())):
            self._chunk_items.pop(_chunk_item_id(rid, ci), None)

    # -- the driver loop ----------------------------------------------------
    def step(self, now: float | None = None) -> int:
        """Advance the control loop once; returns messages processed.

        Non-blocking: drains every queued worker message, fails over
        dead replicas, releases due micro-batches under dispatch
        credits, heals the pool to the target size, then lets the
        autoscaler adjust that target.
        """
        if self._closed:
            return 0
        now = time.monotonic() if now is None else now
        processed = 0
        while True:
            msg = self.executor.poll_message()
            if msg is None:
                break
            self._handle(msg)
            processed += 1
        self._fail_over_dead(now)
        # dispatch credits: keep at most max_inflight_per_replica tasks
        # per live replica on the shared FIFO task queue; everything
        # else waits in the batcher, where release order is weighted-fair
        credits = (self.executor.worker_count()
                   * self.config.max_inflight_per_replica
                   - len(self._inflight))
        if credits > 0:
            for key, items in self.batcher.due(now, limit=credits):
                self._dispatch(key, items, now=now)
        self._autoscale(now)
        inflight_requests = len(
            {rid for b in self._inflight.values()
             for rid in b.request_ids})
        # backlog is *unanswered requests*, not the batcher's holding
        # pen: saturation shows up as admitted-but-unanswered work,
        # whether it is waiting fairly here or on the shared task queue
        self._g_queue.set(len(self._pending))
        self._g_inflight.set(inflight_requests)
        self._g_replicas.set(self.executor.worker_count())
        live = getattr(self.telemetry, "live", None)
        quantiles = {}
        if self._latency_hist.count:
            quantiles = {"serve_latency_p50": self._latency_hist.quantile(.5),
                         "serve_latency_p95": self._latency_hist.quantile(.95),
                         "serve_latency_p99": self._latency_hist.quantile(.99)}
            self._g_p50.set(quantiles["serve_latency_p50"])
            self._g_p95.set(quantiles["serve_latency_p95"])
            self._g_p99.set(quantiles["serve_latency_p99"])
        if live is not None:
            live.set_value("serve_queue_depth", float(len(self._pending)))
            live.set_value("serve_inflight", float(inflight_requests))
            live.set_value("serve_replicas",
                           float(self.executor.worker_count()))
            live.set_value("serve_shed_total", float(self._n_shed))
            for name, value in quantiles.items():
                live.set_value(name, value)  # feeds serve_p99_slo alerts
        self.telemetry.live_tick()
        return processed

    def drain(self, timeout_s: float = 60.0) -> None:
        """Block until every admitted request has a response (or raise
        after ``timeout_s`` with requests still unanswered)."""
        deadline = time.monotonic() + timeout_s
        while self._pending:
            if self.step() > 0:
                continue
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"{len(self._pending)} requests still pending after "
                    f"{timeout_s:g}s")
            # idle: block briefly for the next message instead of
            # spinning, bounded so deadline flushes stay on time
            wait = self.batcher.next_deadline()
            block = 0.05 if wait is None else max(
                0.001, min(0.05, wait - time.monotonic()))
            try:
                self._handle(self.executor.next_message(timeout=block))
            except TimeoutError:
                pass
            except RuntimeError:
                # every replica died at once; fail-over below respawns
                self._fail_over_dead(time.monotonic())

    # -- message handling ---------------------------------------------------
    def _handle(self, msg) -> None:
        kind = msg[0]
        live = getattr(self.telemetry, "live", None)
        if kind == "heartbeat":
            if live is not None:
                live.on_heartbeat(msg[1])
        elif kind == "telemetry":
            self.telemetry.ingest_worker_frame(msg[1])
        elif kind == "retired":
            pass  # an autoscaler-requested drain completing
        elif kind == "started":
            _, batch_id, worker_id, attempt = msg
            batch = self._inflight.get(batch_id)
            if batch is not None and batch.attempt == attempt:
                batch.worker = worker_id
                batch.started_mono = time.monotonic()  # batch_wait ends
        elif kind == "report":
            pass  # replicas never call the reporter
        elif kind == "done":
            _, batch_id, attempt, final, _stopped, stats = msg
            batch = self._inflight.get(batch_id)
            if batch is None or batch.attempt != attempt:
                return  # stale: already failed over to a new attempt
            self._inflight.pop(batch_id)
            self._complete(batch_id, batch, final, stats)
        elif kind == "error":
            _, batch_id, attempt, message, _stats = msg
            batch = self._inflight.get(batch_id)
            if batch is None or batch.attempt != attempt:
                return
            self._retry_batch(batch_id, batch, message)

    def _drain_kernel(self, final: dict) -> dict:
        """Fold the task's per-{backend,op} kernel attribution into the
        server's cumulative ledger and counter."""
        kernel = {k: float(v)
                  for k, v in (final.get("kernel_seconds") or {}).items()}
        for key, seconds in kernel.items():
            backend, _, op = key.partition("/")
            self._c_kernel.labels(backend=backend, op=op).inc(seconds)
            self._kernel_seconds[key] = (
                self._kernel_seconds.get(key, 0.0) + seconds)
        return kernel

    def _complete(self, batch_id: str, batch: _Inflight, final: dict,
                  stats) -> None:
        done = time.monotonic()   # the result message reached the driver
        worker = batch.worker
        if worker is None and stats:
            worker = stats.get("worker_id")
        replica_pid = stats.get("pid") if stats else None
        kernel = self._drain_kernel(final)
        if batch.key.strategy == "sw_chunks":
            self._gather_chunks(batch_id, batch, final, done, worker,
                                replica_pid)
            return
        prediction = np.asarray(final["prediction"])
        for i, rid in enumerate(batch.request_ids):
            pending = self._pending.pop(rid, None)
            if pending is None:
                continue
            completed = time.monotonic()
            trace = self.request_tracer.complete(
                pending.ctx, rid,
                arrival=pending.arrival_mono,
                released=pending.released_mono,
                started=batch.started_mono,
                done=done, completed=completed,
                # the request waits on the whole batch's compute window
                compute_s=float(final["seconds"]),
                attempt=batch.attempt, strategy=final["strategy"],
                batch_id=batch_id, batch_size=len(batch.request_ids),
                replica=worker, replica_pid=replica_pid,
                kernel_seconds=kernel, priority=pending.priority)
            self._resolve(pending, trace, InferenceResponse(
                request_id=rid,
                prediction=prediction[i],
                strategy=final["strategy"],
                latency_s=trace.latency_s,
                batch_size=len(batch.request_ids),
                replica=worker,
                attempt=batch.attempt,
                model_seconds=float(final["seconds"]),
                checkpoint_epoch=final.get("checkpoint_epoch"),
                priority=pending.priority,
            ))

    def _gather_chunks(self, batch_id: str, batch: _Inflight, final: dict,
                       done: float, worker, replica_pid) -> None:
        """Gather: buffer this task's chunk predictions under their
        owning requests; a request whose last chunk just landed is
        stitched (canonical order -- bit-identity however the chunks
        interleaved across replicas and retries) and resolved."""
        predictions = final["predictions"]
        chunk_seconds = [float(s) for s in final["chunk_seconds"]]
        # reconstruct per-chunk spans on the driver clock: chunks ran
        # back-to-back inside the replica's compute window ending ~done
        span_t = (batch.started_mono
                  if batch.started_mono is not None
                  else done - sum(chunk_seconds))
        finished: list[str] = []
        for i, item in enumerate(batch.items):
            start, span_t = span_t, span_t + chunk_seconds[i]
            owner = self._chunk_items.get(item)
            if owner is None:
                continue  # request already failed elsewhere
            rid, ci = owner
            pending = self._pending.get(rid)
            if pending is None or ci in pending.chunk_results:
                continue
            pending.chunk_results[ci] = np.asarray(predictions[i])
            pending.chunk_seconds[ci] = chunk_seconds[i]
            pending.chunk_spans.append(
                {"chunk": ci, "start": start, "end": span_t,
                 "replica": worker, "pid": replica_pid,
                 "attempt": batch.attempt})
            pending.attempt_max = max(pending.attempt_max, batch.attempt)
            if (pending.started_mono is None
                    or (batch.started_mono is not None
                        and batch.started_mono < pending.started_mono)):
                pending.started_mono = batch.started_mono
            pending.done_mono = done
            if len(pending.chunk_results) == len(pending.bounds):
                finished.append(rid)
        for rid in finished:
            pending = self._pending.pop(rid)
            self._drop_chunk_items(rid, pending)
            stitched = stitch_chunks(pending.chunk_results,
                                     pending.offsets,
                                     pending.volume.shape[1:])
            completed = time.monotonic()
            compute_s = float(sum(pending.chunk_seconds.values()))
            trace = self.request_tracer.complete(
                pending.ctx, rid,
                arrival=pending.arrival_mono,
                released=pending.released_mono,
                started=pending.started_mono,
                done=pending.done_mono, completed=completed,
                compute_s=compute_s,
                attempt=pending.attempt_max, strategy="sliding_window",
                batch_id=batch_id, batch_size=len(batch.items),
                replica=worker, replica_pid=replica_pid,
                priority=pending.priority,
                chunk_spans=pending.chunk_spans)
            self._resolve(pending, trace, InferenceResponse(
                request_id=rid,
                prediction=stitched,
                strategy="sliding_window",
                latency_s=trace.latency_s,
                batch_size=len(batch.items),
                replica=worker,
                attempt=pending.attempt_max,
                model_seconds=compute_s,
                checkpoint_epoch=final.get("checkpoint_epoch"),
                priority=pending.priority,
                chunks=len(pending.bounds),
                chunk_replicas=list(trace.chunk_replicas),
            ))

    def _resolve(self, pending: _Pending, trace,
                 response: InferenceResponse) -> None:
        phases = trace.phase_durations()
        # latency from the trace so the five phase durations sum to it
        # exactly (same clock, same endpoints)
        response.trace_id = trace.trace_id
        response.queue_wait_s = phases["queue_wait"]
        response.batch_wait_s = phases["batch_wait"]
        response.dispatch_s = phases["dispatch"]
        response.compute_s = phases["compute"]
        response.stitch_s = phases["stitch"]
        pending.future._response = response
        self._latency_hist.observe(response.latency_s)
        self._h_latency.observe(
            response.latency_s,
            exemplar={"trace_id": trace.trace_id,
                      "request_id": response.request_id})
        self._c_requests.labels(status="completed").inc()

    # -- failure and scale --------------------------------------------------
    def _fail_over_dead(self, now: float) -> None:
        """Retry (not drop) the in-flight tasks of replicas whose
        process exited -- a dead replica re-runs only its own tasks, so
        a scattered request never re-runs chunks another replica
        answered -- then heal the pool back to the target size."""
        live = getattr(self.telemetry, "live", None)
        for wid in self.executor.dead_workers():
            if wid in self._handled_dead:
                continue
            self._handled_dead.add(wid)
            if live is not None:
                live.on_worker_dead(wid)
            for batch_id, batch in list(self._inflight.items()):
                if batch.worker == wid:
                    self._retry_batch(
                        batch_id, batch,
                        f"replica {wid} died mid-batch")
        while (not self._closed
               and self.executor.worker_count() < self._target_replicas):
            self.executor.add_worker()

    def _autoscale(self, now: float) -> None:
        if self.autoscaler is None:
            return
        # shed admissions are demand the queue never saw -- count them
        # as backlog pressure so shedding cannot mask the scale-up signal
        shed_pressure = self._shed_since_obs
        self._shed_since_obs = 0
        decision = self.autoscaler.observe(
            queue_depth=len(self._pending) + shed_pressure,
            inflight=len(self._inflight),
            replicas=self._target_replicas,
            now=now)
        if decision == "scale_up":
            self._target_replicas += 1
            self.executor.add_worker()
        elif decision == "retire":
            wid = self._retire_candidate()
            if wid is not None:
                self._target_replicas -= 1
                self.executor.retire_worker(wid)

    def _retire_candidate(self) -> int | None:
        """Highest-id live replica with no known in-flight batch --
        retire drains safely anyway, idle just exits sooner."""
        busy = {b.worker for b in self._inflight.values()}
        alive = self.executor.alive_workers()
        for wid in sorted(alive, reverse=True):
            if wid not in busy:
                return wid
        return alive[-1] if alive else None

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
