"""E17 -- profiling and live export must be close to free serially.

An observability layer nobody can afford to leave on measures nothing:
the step-bucket attribution added across the stack (``data_wait`` /
``compute`` / ``sync`` / ``checkpoint``) is a pair of ``perf_counter``
reads and one pre-resolved counter ``inc`` per site, so a fully
profiled serial search must cost within a few percent of the same
search against the branch-free null hub.  The same bound applies to
the streaming side: a :class:`~repro.telemetry.LiveMonitor` ticking at
its default interval (rate-limited to one clock read per reporter call
between snapshots) must also stay under ``MAX_OVERHEAD``.

The same 2-trial grid runs against ``NULL_HUB`` and against the
instrumented hubs; each variant is timed ``REPEATS`` times and the best
(least-noisy) run of each is compared.  Machine-readable summaries land
in ``BENCH_profiler_overhead.json`` / ``BENCH_live_overhead.json`` next
to this file.  ``DISTMIS_BENCH_SMOKE=1`` shrinks the workload so the
benchmark doubles as a smoke test (writing quarantined ``*_smoke.json``
files to the temp dir); the <5% assertions are only enforced on the
full-size run (at smoke scale a search is so short that scheduler
noise, not the instrumentation, dominates the ratio).
"""

import json
import tempfile
import time
from pathlib import Path

from repro.core import ExperimentSettings, HyperparameterSpace
from repro.core.experiment_parallel import run_search_inprocess
from repro.perf.regression import (
    bench_output_path,
    host_metadata,
    is_smoke_env,
)
from repro.telemetry import NULL_HUB, LiveMonitor, TelemetryHub

SMOKE = is_smoke_env()
REPEATS = 2 if SMOKE else 3
MAX_OVERHEAD = 0.05
# Smoke runs are quarantined onto *_smoke.json names.
OUT = bench_output_path(__file__, "profiler_overhead", smoke=SMOKE)
OUT_LIVE = bench_output_path(__file__, "live_overhead", smoke=SMOKE)
OUT_TRACE = bench_output_path(__file__, "trace_overhead", smoke=SMOKE)


def _settings() -> ExperimentSettings:
    if SMOKE:
        return ExperimentSettings(num_subjects=6, volume_shape=(8, 8, 8),
                                  epochs=2, base_filters=2, depth=2, seed=0)
    # compute-heavy on purpose: the overhead bound is a ratio, so the
    # denominator must be dominated by real training work
    return ExperimentSettings(num_subjects=10, volume_shape=(16, 16, 16),
                              epochs=4, base_filters=4, depth=2, seed=0)


def _space() -> HyperparameterSpace:
    return HyperparameterSpace(axes={
        "learning_rate": [1e-2, 1e-3],
        "loss": ["dice"],
    })


def _time_search(telemetry) -> float:
    settings, space = _settings(), _space()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = run_search_inprocess(space, settings, telemetry=telemetry)
        best = min(best, time.perf_counter() - t0)
        assert len(result.outcomes) == 2
    return best


def test_profiler_overhead_under_5pct():
    baseline_s = _time_search(NULL_HUB)

    hub = TelemetryHub(profile=True)
    profiled_s = _time_search(hub)

    # the profiled run really measured something
    rows = {r["name"] for r in hub.metrics.samples()}
    assert "step_bucket_seconds_total" in rows

    overhead = profiled_s / baseline_s - 1.0
    summary = {
        "benchmark": "profiler_overhead",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "epochs": _settings().epochs,
        "volume_shape": list(_settings().volume_shape),
        "baseline_seconds": round(baseline_s, 4),
        "profiled_seconds": round(profiled_s, 4),
        "overhead_fraction": round(overhead, 4),
        "budget_fraction": MAX_OVERHEAD,
        "host": host_metadata(),
    }
    OUT.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nnull {baseline_s:.2f}s  profiled {profiled_s:.2f}s  "
          f"overhead {overhead:+.1%} (budget {MAX_OVERHEAD:.0%}) "
          f"-> {OUT.name}")

    if SMOKE:
        import pytest

        pytest.skip("smoke scale: workload too short for a stable ratio; "
                    "overhead recorded, bound enforced on the full run")
    assert overhead < MAX_OVERHEAD, (
        f"profiling cost {overhead:.1%} (> {MAX_OVERHEAD:.0%}) on the "
        f"serial executor: null {baseline_s:.2f}s vs "
        f"profiled {profiled_s:.2f}s")


def test_live_export_overhead_under_5pct():
    baseline_s = _time_search(NULL_HUB)

    def _time_live() -> float:
        settings, space = _settings(), _space()
        best = float("inf")
        for _ in range(REPEATS):
            with tempfile.TemporaryDirectory() as run_dir:
                hub = TelemetryHub(run_dir=run_dir)
                hub.attach_live(LiveMonitor(hub))
                t0 = time.perf_counter()
                result = run_search_inprocess(space, settings,
                                              telemetry=hub)
                elapsed = time.perf_counter() - t0
                # the monitor really streamed: events.jsonl exists
                assert (Path(run_dir) / "events.jsonl").exists() or \
                    hub.live.snapshots == 0
                hub.live.close()
            best = min(best, elapsed)
            assert len(result.outcomes) == 2
        return best

    live_s = _time_live()
    overhead = live_s / baseline_s - 1.0
    summary = {
        "benchmark": "live_overhead",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "epochs": _settings().epochs,
        "volume_shape": list(_settings().volume_shape),
        "baseline_seconds": round(baseline_s, 4),
        "live_seconds": round(live_s, 4),
        "overhead_fraction": round(overhead, 4),
        "budget_fraction": MAX_OVERHEAD,
        "host": host_metadata(),
    }
    OUT_LIVE.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nnull {baseline_s:.2f}s  live {live_s:.2f}s  "
          f"overhead {overhead:+.1%} (budget {MAX_OVERHEAD:.0%}) "
          f"-> {OUT_LIVE.name}")

    if SMOKE:
        import pytest

        pytest.skip("smoke scale: workload too short for a stable ratio; "
                    "overhead recorded, bound enforced on the full run")
    assert overhead < MAX_OVERHEAD, (
        f"live export cost {overhead:.1%} (> {MAX_OVERHEAD:.0%}) on the "
        f"serial executor: null {baseline_s:.2f}s vs live {live_s:.2f}s")


def test_request_tracing_overhead_under_5pct():
    """Request tracing at the default tail-based sampling must stay
    inside the same budget on the serving hot path: per request it adds
    a handful of ``monotonic`` stamps, one sampler decision and (for
    the kept minority) a few span records."""
    import numpy as np

    from repro.core.checkpoint import CheckpointManager
    from repro.nn import UNet3D
    from repro.serve import ModelServer, ServeConfig
    from repro.telemetry import TracingConfig

    model_kwargs = dict(in_channels=1, out_channels=1,
                        base_filters=2 if SMOKE else 4, depth=2,
                        use_batchnorm=False)
    shape = (1, 8, 8, 8) if SMOKE else (1, 16, 16, 16)
    n_requests = 16 if SMOKE else 64
    rng = np.random.default_rng(0)
    vols = [rng.normal(size=shape) for _ in range(n_requests)]

    with tempfile.TemporaryDirectory() as ckpt_dir:
        mgr = CheckpointManager(ckpt_dir)
        mgr.save(UNet3D(rng=np.random.default_rng(7), **model_kwargs),
                 epoch=1, val_dice=0.5)

        def _time_burst(tracing: TracingConfig) -> float:
            cfg = ServeConfig(checkpoint=str(mgr.best_path),
                              model_builder=UNet3D,
                              model_kwargs=model_kwargs, replicas=1,
                              max_batch=4, max_delay_ms=1.0,
                              tracing=tracing)
            best = float("inf")
            for _ in range(REPEATS):
                with ModelServer(cfg, telemetry=NULL_HUB) as server:
                    t0 = time.perf_counter()
                    futs = [server.submit(v) for v in vols]
                    server.drain(timeout_s=600)
                    elapsed = time.perf_counter() - t0
                    assert all(f.result().batch_size >= 1 for f in futs)
                    if tracing.enabled:
                        # default sampling really decided something
                        assert server.latency_quantile(0.5) > 0
                best = min(best, elapsed)
            return best

        baseline_s = _time_burst(TracingConfig(enabled=False))
        traced_s = _time_burst(TracingConfig())  # default sampling

    overhead = traced_s / baseline_s - 1.0
    summary = {
        "benchmark": "trace_overhead",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "requests": n_requests,
        "volume_shape": list(shape[1:]),
        "baseline_seconds": round(baseline_s, 4),
        "traced_seconds": round(traced_s, 4),
        "overhead_fraction": round(overhead, 4),
        "budget_fraction": MAX_OVERHEAD,
        "host": host_metadata(),
    }
    OUT_TRACE.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nuntraced {baseline_s:.2f}s  traced {traced_s:.2f}s  "
          f"overhead {overhead:+.1%} (budget {MAX_OVERHEAD:.0%}) "
          f"-> {OUT_TRACE.name}")

    if SMOKE:
        import pytest

        pytest.skip("smoke scale: workload too short for a stable ratio; "
                    "overhead recorded, bound enforced on the full run")
    assert overhead < MAX_OVERHEAD, (
        f"request tracing cost {overhead:.1%} (> {MAX_OVERHEAD:.0%}) on "
        f"the serving path: untraced {baseline_s:.2f}s vs "
        f"traced {traced_s:.2f}s")
