"""E16 -- true multi-core experiment parallelism (claim C1, executed).

The paper's central argument is that experiment parallelism scales
because trials are self-contained.  The simulator prices that claim at
MareNostrum scale; this benchmark *executes* it at laptop scale: the
same 4-trial grid runs once on the serial in-process executor and once
on a 4-worker process pool, and the report pins

* correctness -- per-trial metrics (full per-epoch history included)
  are bit-identical between the two executors, and
* performance -- on a host with >= 4 usable cores the pool finishes the
  search at least 2x faster than the serial pass (trials are
  embarrassingly parallel; the remaining gap is fork + shared-memory
  setup and result streaming).

A machine-readable summary lands in ``BENCH_parallel.json`` next to
this file.  ``DISTMIS_BENCH_SMOKE=1`` shrinks the trial budget so the
benchmark doubles as a smoke test on tiny hosts (the speedup assertion
is skipped below 4 cores either way; the bit-identity assertion always
runs).
"""

import json
import os
import time

from repro.core import ExperimentSettings, HyperparameterSpace
from repro.core.experiment_parallel import run_search_inprocess
from repro.perf.regression import (
    bench_output_path,
    host_metadata,
    is_smoke_env,
)
from repro.telemetry import TelemetryHub

SMOKE = is_smoke_env()
WORKERS = 4
# Smoke runs are quarantined onto BENCH_parallel_smoke.json so they can
# never overwrite the committed record.
OUT = bench_output_path(__file__, "parallel", smoke=SMOKE)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _settings() -> ExperimentSettings:
    if SMOKE:
        return ExperimentSettings(num_subjects=6, volume_shape=(8, 8, 8),
                                  epochs=2, base_filters=2, depth=2, seed=0)
    return ExperimentSettings(num_subjects=10, volume_shape=(16, 16, 16),
                              epochs=4, base_filters=4, depth=2, seed=0)


def _space() -> HyperparameterSpace:
    return HyperparameterSpace(axes={
        "learning_rate": [1e-2, 1e-3],
        "loss": ["dice", "bce"],
    })


def _rows(result):
    """Canonical per-trial fingerprint: config + finals + full history."""
    return sorted(
        (
            tuple(sorted(o.config.items())),
            o.val_dice,
            o.test_dice,
            tuple((r.train_loss, r.val_dice) for r in o.history),
        )
        for o in result.outcomes
    )


def test_process_pool_speedup():
    import pytest

    settings = _settings()
    space = _space()
    cores = _usable_cores()

    t0 = time.perf_counter()
    serial = run_search_inprocess(space, settings)
    serial_s = time.perf_counter() - t0

    hub = TelemetryHub()
    t0 = time.perf_counter()
    proc = run_search_inprocess(space, settings, telemetry=hub,
                                executor="process", max_workers=WORKERS)
    process_s = time.perf_counter() - t0

    # -- correctness: bit-identical per-trial metrics ----------------------
    assert _rows(serial) == _rows(proc), (
        "process executor diverged from serial metrics")

    # -- worker RSS sanity: attached shared memory, not per-worker copies --
    rss = {
        s["labels"]["worker"]: s["value"]
        for s in hub.metrics.samples()
        if s["name"] == "execpool_worker_rss_kb"
    }
    shared = [s["value"] for s in hub.metrics.samples()
              if s["name"] == "execpool_shared_dataset_bytes"]
    assert rss, "workers reported no RSS stats"
    assert all(v > 0 for v in rss.values())
    # every worker stays within a sane multiple of the parent: a worker
    # holding private dataset copies per trial would blow well past this
    parent_rss_kb = max(rss.values())
    assert parent_rss_kb < 4 * 1024 * 1024  # < 4 GiB, laptop scale

    speedup = serial_s / process_s if process_s > 0 else float("inf")
    summary = {
        "benchmark": "process_parallel_speedup",
        "smoke": SMOKE,
        "usable_cores": cores,
        "workers": WORKERS,
        "num_trials": 4,
        "epochs": settings.epochs,
        "volume_shape": list(settings.volume_shape),
        "serial_seconds": round(serial_s, 4),
        "process_seconds": round(process_s, 4),
        "speedup": round(speedup, 3),
        "bit_identical": True,
        "shared_dataset_bytes": shared[0] if shared else None,
        "worker_max_rss_kb": rss,
        "host": host_metadata(),
    }
    OUT.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nserial {serial_s:.2f}s  process[{WORKERS}w] {process_s:.2f}s  "
          f"speedup {speedup:.2f}x on {cores} cores -> {OUT.name}")

    # -- performance: only meaningful with real parallel hardware ----------
    if cores < WORKERS:
        pytest.skip(
            f"{cores} usable core(s) < {WORKERS}: bit-identity verified, "
            "speedup assertion needs >= 4 cores")
    assert speedup >= 2.0, (
        f"expected >= 2x speedup with {WORKERS} workers on {cores} cores, "
        f"got {speedup:.2f}x (serial {serial_s:.2f}s, "
        f"process {process_s:.2f}s)")
