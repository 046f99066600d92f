"""The process-wide telemetry hub and its zero-overhead null twin.

A :class:`TelemetryHub` bundles the three telemetry primitives --
:class:`~repro.telemetry.metrics.MetricsRegistry`,
:class:`~repro.telemetry.spans.Tracer` and
:class:`~repro.telemetry.manifest.RunManifest` -- behind one object that
instrumented code holds a reference to.  When telemetry is off, code
holds :data:`NULL_HUB` instead: every recording method on the null twin
is a plain no-op, so the instrumented hot paths never branch on an
"enabled" flag per event and the disabled cost is one dynamic dispatch.

Wiring pattern::

    hub = TelemetryHub(run_dir="runs/exp-parallel-01")
    runner = DistMISRunner(telemetry=hub)
    runner.run_inprocess("experiment_parallel")
    # runs/exp-parallel-01/ now holds manifest.json, metrics.jsonl,
    # metrics.prom and trace.json

or process-wide: ``set_hub(hub)`` makes it the default every
un-parameterised constructor picks up.  Both of the paper's methods
search through ``tune_run``, so their run directories hold the same
``trial_NNNN`` spans and ``tune_*`` counters.
"""

from __future__ import annotations

import json
from pathlib import Path

from .fsio import atomic_write_text
from .manifest import RunManifest
from .metrics import MetricsRegistry
from .spans import Tracer

__all__ = ["TelemetryHub", "NullHub", "NULL_HUB", "get_hub", "set_hub"]

METRICS_JSONL = "metrics.jsonl"
METRICS_PROM = "metrics.prom"
TRACE_JSON = "trace.json"
PROFILE_JSON = "profile.json"
REQUESTS_JSONL = "requests.jsonl"

# Narrow per-element latency buckets: input-pipeline stages run well
# below the default sub-second grid's resolution on laptop volumes.
STAGE_LATENCY_BUCKETS = (
    1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


class TelemetryHub:
    """Live hub: real registry, real tracer, optional run directory.

    ``profile=True`` switches on the profiling artefacts: ``flush``
    additionally writes ``profile.json`` (the aggregated step-time /
    stage / worker profile consumed by ``distmis profile``).
    """

    enabled = True

    def __init__(self, run_dir=None, profile: bool = False):
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.profile = bool(profile)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.last_manifest: RunManifest | None = None
        self.live = None        # LiveMonitor once attach_live is called
        self.request_tracer = None  # RequestTracer once attached
        self.alerts: list = []  # Alert records the live monitor produced
        self._timelines: list = []
        self._attributions: list = []
        self.aggregator = None  # created lazily on the first worker frame
        self._frames_dropped = self.metrics.counter(
            "telemetry_frames_dropped_total",
            "malformed worker telemetry frames/spans dropped on ingest",
            ("kind",))
        self._stage_seconds = self.metrics.counter(
            "pipeline_stage_seconds_total",
            "wall-clock spent per input-pipeline stage", ("stage",))
        self._stage_elements = self.metrics.counter(
            "pipeline_stage_elements_total",
            "elements processed per input-pipeline stage", ("stage",))
        self._stage_latency = self.metrics.histogram(
            "pipeline_stage_latency_seconds",
            "per-element latency per input-pipeline stage", ("stage",),
            buckets=STAGE_LATENCY_BUCKETS)
        self._step_buckets = self.metrics.counter(
            "step_bucket_seconds_total",
            "wall-clock attributed to each training-step bucket "
            "(data_wait / compute / sync / checkpoint)", ("bucket",))

    # -- recording conveniences --------------------------------------------
    def span(self, name: str, category: str = "span", **attrs):
        return self.tracer.span(name, category=category, **attrs)

    def on_stage(self, stage: str, seconds: float, elements: int = 1) -> None:
        """Input-pipeline stage hook (see ``repro.core.pipeline``)."""
        self._stage_seconds.labels(stage=stage).inc(seconds)
        self._stage_elements.labels(stage=stage).inc(elements)
        if elements > 0:
            self._stage_latency.labels(stage=stage).observe(
                seconds / elements)
        self.tracer.add_completed(stage, seconds, category="pipeline")

    def on_step_bucket(self, bucket: str, seconds: float) -> None:
        """Attribute ``seconds`` of a training step to one bucket
        (``data_wait`` / ``compute`` / ``sync`` / ``checkpoint``)."""
        self._step_buckets.labels(bucket=bucket).inc(seconds)

    def attach_timeline(self, timeline) -> None:
        """Keep a simulated Timeline for the merged trace export."""
        self._timelines.append(timeline)

    def attach_attribution(self, attribution) -> None:
        """Keep an analytic :class:`~repro.telemetry.profiler.
        StepAttribution` (simulated runs have no measured buckets) for
        the profile export."""
        self._attributions.append(attribution)

    def attach_request_tracer(self, tracer) -> None:
        """Install a :class:`~repro.telemetry.tracing.RequestTracer`;
        its kept traces land in ``requests.jsonl`` at flush time."""
        self.request_tracer = tracer

    # -- live monitoring ----------------------------------------------------
    def attach_live(self, monitor) -> None:
        """Install a :class:`~repro.telemetry.live.LiveMonitor`; from
        here on ``live_tick()`` calls drive its snapshot loop."""
        self.live = monitor

    def live_tick(self, force: bool = False) -> None:
        """One monitor tick opportunity (no-op when nothing attached or
        the interval has not elapsed -- safe on hot-ish paths)."""
        if self.live is not None:
            self.live.tick(force=force)

    def record_alert(self, alert) -> None:
        """Keep an :class:`~repro.telemetry.alerts.Alert` record for the
        run manifest and count it by rule/state."""
        self.alerts.append(alert)
        self.metrics.counter(
            "alerts_total", "alert records produced (firings and "
            "resolutions)", ("rule", "state"),
        ).labels(rule=alert.rule, state=alert.state).inc()

    def ingest_worker_frame(self, frame: dict) -> None:
        """Fold a worker-process telemetry frame (spans + metric
        samples + wall-clock anchor) into the cross-process aggregate;
        see :mod:`repro.telemetry.aggregate`.

        Malformed frames are **dropped and counted**, never raised:
        a worker's telemetry side channel must not be able to take the
        driver (and every other trial) down.  Partially malformed
        frames keep their valid spans; each dropped span is counted
        separately.
        """
        from .aggregate import TraceAggregator, sanitize_frame

        frame, dropped_spans = sanitize_frame(frame)
        if dropped_spans:
            self._frames_dropped.labels(kind="span").inc(dropped_spans)
        if frame is None:
            self._frames_dropped.labels(kind="frame").inc()
            return
        if self.aggregator is None:
            self.aggregator = TraceAggregator()
        self.aggregator.add_frame(frame)

    def merged_samples(self) -> list[dict]:
        """Metric sample rows merged across this process and every
        ingested worker frame."""
        if self.aggregator is None:
            return self.metrics.samples()
        from .aggregate import merge_registries

        return merge_registries(
            [self.metrics.samples()] + self.aggregator.sample_sets()
        ).samples()

    # -- persistence --------------------------------------------------------
    def flush(self, run_dir=None) -> Path | None:
        """Write metrics (JSONL + Prometheus text) and the merged Chrome
        trace into the run directory; returns it (None if unset).

        Every artefact is written atomically (temp file + ``os.replace``)
        so an interrupt mid-flush never leaves torn JSON behind.
        """
        run_dir = Path(run_dir) if run_dir is not None else self.run_dir
        if run_dir is None:
            return None
        run_dir.mkdir(parents=True, exist_ok=True)
        from .aggregate import merge_registries, merged_chrome_trace

        if self.aggregator is not None:
            merged = merge_registries(
                [self.metrics.samples()] + self.aggregator.sample_sets())
            merged.export_jsonl(run_dir / METRICS_JSONL)
            merged.export_prometheus(run_dir / METRICS_PROM)
        else:
            self.metrics.export_jsonl(run_dir / METRICS_JSONL)
            self.metrics.export_prometheus(run_dir / METRICS_PROM)
        merged_chrome_trace(self.tracer, self.aggregator,
                            extra_timelines=self._timelines,
                            path=run_dir / TRACE_JSON)
        if self.request_tracer is not None and self.request_tracer.kept:
            atomic_write_text(run_dir / REQUESTS_JSONL,
                              self.request_tracer.to_jsonl())
        if self.profile:
            from .profiler import build_profile_data

            atomic_write_text(
                run_dir / PROFILE_JSON,
                json.dumps(build_profile_data(self).to_dict(), indent=2)
                + "\n")
        if self.last_manifest is not None:
            self.last_manifest.write(run_dir)
        return run_dir

    def finalize_run(self, kind: str, config: dict | None = None,
                     seed: int | None = None,
                     final_metrics: dict | None = None) -> Path | None:
        """Capture a manifest for the run that just finished and flush
        everything to the run directory."""
        if self.live is not None:
            self.live.close()  # final snapshot + health event, idempotent
        self.last_manifest = RunManifest.capture(
            kind, config=config, seed=seed, final_metrics=final_metrics,
            alerts=[a.to_dict() for a in self.alerts],
        )
        return self.flush()


# -- the null twin ----------------------------------------------------------
class _NullSpan:
    """Reusable no-op context manager standing in for a live span."""

    __slots__ = ()
    span = None

    def set(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()


class _NullMetric:
    """Absorbs every metric call; ``labels`` returns itself."""

    __slots__ = ()

    def labels(self, **labels):
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, exemplar: dict | None = None) -> None:
        pass

    def quantile(self, q: float) -> float:
        return float("nan")


_NULL_METRIC = _NullMetric()


class _NullRegistry:
    __slots__ = ()

    def counter(self, name, help="", labelnames=()):
        return _NULL_METRIC

    def gauge(self, name, help="", labelnames=()):
        return _NULL_METRIC

    def histogram(self, name, help="", labelnames=(), buckets=()):
        return _NULL_METRIC

    def families(self):
        return []

    def samples(self):
        return []

    def to_prometheus(self) -> str:
        return ""

    def to_jsonl(self) -> str:
        return ""

    def __len__(self) -> int:
        return 0

    def __contains__(self, name) -> bool:
        return False

    def get(self, name):
        return None


class _NullTracer:
    __slots__ = ()
    spans: list = []

    def now(self) -> float:
        return 0.0

    def span(self, name, category="span", resource=None, **attrs):
        return _NULL_SPAN

    def add_completed(self, name, duration_s, category="span",
                      resource=None, **attrs):
        return None

    def record_span(self, name, start, end, resource="sim",
                    category="span", **attrs):
        return None

    def ingest_timeline(self, timeline) -> int:
        return 0

    def closed_spans(self):
        return []

    def to_chrome_trace(self, path=None, extra_timelines=()):
        return []

    def __len__(self) -> int:
        return 0


class NullHub:
    """Disabled telemetry: swallows everything, writes nothing."""

    enabled = False
    profile = False
    run_dir = None
    last_manifest = None
    aggregator = None
    live = None
    request_tracer = None
    alerts: list = []

    def __init__(self):
        self.metrics = _NullRegistry()
        self.tracer = _NullTracer()

    def attach_live(self, monitor) -> None:
        pass

    def attach_request_tracer(self, tracer) -> None:
        pass

    def live_tick(self, force: bool = False) -> None:
        pass

    def record_alert(self, alert) -> None:
        pass

    def span(self, name, category="span", **attrs):
        return _NULL_SPAN

    def on_stage(self, stage, seconds, elements=1) -> None:
        pass

    def on_step_bucket(self, bucket, seconds) -> None:
        pass

    def attach_timeline(self, timeline) -> None:
        pass

    def attach_attribution(self, attribution) -> None:
        pass

    def ingest_worker_frame(self, frame) -> None:
        pass

    def merged_samples(self):
        return []

    def flush(self, run_dir=None):
        return None

    def finalize_run(self, kind, config=None, seed=None, final_metrics=None):
        return None


NULL_HUB = NullHub()

_default_hub = NULL_HUB


def get_hub():
    """The process-wide default hub (the null hub unless ``set_hub``)."""
    return _default_hub


def set_hub(hub) -> None:
    """Install ``hub`` (or None to disable) as the process-wide default."""
    global _default_hub
    _default_hub = hub if hub is not None else NULL_HUB
