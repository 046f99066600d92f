"""serve-bench: open-loop load generation for the replica pool.

Drives a :class:`~repro.serve.server.ModelServer` at a fixed offered
rate for a fixed duration and summarises what came back -- tail latency
(p50/p95/p99) overall, per priority and per workload class, achieved
throughput, shed count and the micro-batch size histogram -- as a
``BENCH_serving.json`` record in the same schema the kernel and scaling
benchmarks use (:mod:`repro.perf.regression`).  The committed record is
schema-checked evidence for experiment E21; serving regressions are
gated by perfbench's ``serve_small``/``serve_mixed`` workloads.

The generator is **open-loop** (arrivals follow the schedule, never the
responses), the standard way to expose queueing delay: a closed loop
would slow its own arrivals exactly when the server falls behind and
hide the backlog the autoscaler and the ``serve_backlog`` alert exist
to catch.

Two knobs build the overload scenarios of experiment E21:

* ``priority_mix`` -- ``{"high": 0.2, "normal": 0.6, "low": 0.2}``
  assigns request priorities by a seeded draw, exercising the weighted
  fair scheduler and (with ``ServeConfig.shed_backlog``) admission
  shedding;
* ``large_volumes`` / ``large_every`` -- every Nth request sends a
  large sliding-window volume into a stream of small ones; its patch
  chunks interleave with the small requests under the fair scheduler,
  and the record splits latency into small and large classes.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from ..perf.regression import host_metadata, validate_record

__all__ = ["run_serve_bench", "write_serving_record",
           "STANDARD_PRIORITIES"]

# the per-priority latency block always carries these levels (zero-count
# when unused) so the record schema's required metrics are present in
# every serving record, whatever mix a given run offered
STANDARD_PRIORITIES = ("high", "normal", "low")


def _percentiles(latencies) -> dict:
    if not len(latencies):
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0,
                "max": 0.0}
    lat = np.asarray(sorted(latencies), dtype=np.float64)
    return {
        "p50": float(np.percentile(lat, 50)),
        "p95": float(np.percentile(lat, 95)),
        "p99": float(np.percentile(lat, 99)),
        "mean": float(lat.mean()),
        "max": float(lat.max()),
    }


def _class_block(responses) -> dict:
    return {"count": len(responses),
            "latency_seconds": _percentiles(
                [r.latency_s for r in responses])}


def run_serve_bench(server, volumes, rps: float, duration_s: float,
                    smoke: bool = False, priority_mix: dict | None = None,
                    large_volumes=None, large_every: int = 0,
                    seed: int = 0) -> dict:
    """Offer ``rps * duration_s`` requests on a fixed schedule; returns
    the ``BENCH_serving.json`` record (not yet written).

    ``volumes`` is a non-empty sequence of (C, D, H, W) arrays replayed
    round-robin -- the bench measures the serving stack, not the data.
    ``priority_mix`` maps priority name to offered fraction (seeded
    draw, deterministic per ``seed``); ``large_every`` > 0 replaces
    every Nth request with one of ``large_volumes`` and splits the
    latency summary into small/large workload classes.
    """
    if rps <= 0 or duration_s <= 0:
        raise ValueError("rps and duration_s must be > 0")
    if not len(volumes):
        raise ValueError("need at least one volume to serve")
    if large_every < 0:
        raise ValueError("large_every must be >= 0")
    if large_every > 0 and not (large_volumes is not None
                                and len(large_volumes)):
        raise ValueError("large_every > 0 needs large_volumes")
    if priority_mix:
        total = float(sum(priority_mix.values()))
        if total <= 0 or any(v < 0 for v in priority_mix.values()):
            raise ValueError("priority_mix fractions must be >= 0 and "
                             "sum > 0")
        names = sorted(priority_mix)
        probs = [priority_mix[n] / total for n in names]
        rng = np.random.default_rng(seed)
    n_total = max(1, int(round(rps * duration_s)))
    futures = []   # (future, priority, workload_class)
    sent = 0
    t0 = time.monotonic()
    while sent < n_total or server.pending_count():
        now = time.monotonic()
        while sent < n_total and t0 + sent / rps <= now:
            priority = (str(rng.choice(names, p=probs))
                        if priority_mix else "normal")
            if large_every and (sent + 1) % large_every == 0:
                vol = large_volumes[(sent // large_every)
                                    % len(large_volumes)]
                cls = "large"
            else:
                vol = volumes[sent % len(volumes)]
                cls = "small"
            futures.append(
                (server.submit(vol, priority=priority), priority, cls))
            sent += 1
        server.step()
        # sleep to the next interesting instant (next arrival or batch
        # deadline), capped so worker completions are noticed promptly
        next_send = t0 + sent / rps if sent < n_total else math.inf
        deadline = server.batcher.next_deadline()
        wake = min(next_send, math.inf if deadline is None else deadline)
        pause = min(0.005, wake - time.monotonic())
        if pause > 0:
            time.sleep(pause)
    elapsed = time.monotonic() - t0
    shed = [(f, p, c) for f, p, c in futures if f.shed]
    done = [(f, p, c) for f, p, c in futures
            if f._error is None and not f.shed]
    failed = len(futures) - len(done) - len(shed)
    responses = [(f.result(), p, c) for f, p, c in done]
    if not responses:
        raise RuntimeError(
            f"serve-bench completed no requests ({failed} failed, "
            f"{len(shed)} shed)")
    hist: dict[str, int] = {}
    for r, _, _ in responses:
        hist[str(r.batch_size)] = hist.get(str(r.batch_size), 0) + 1
    # per-priority latency: every standard level is always present
    # (zero-count when unused) plus any custom level the run offered
    levels = list(STANDARD_PRIORITIES) + sorted(
        {p for _, p, _ in responses} - set(STANDARD_PRIORITIES))
    priorities = {
        level: dict(
            _class_block([r for r, p, _ in responses if p == level]),
            shed=sum(1 for _, p, _ in shed if p == level))
        for level in levels
    }
    cfg = server.config
    record = {
        "benchmark": "serving",
        "smoke": bool(smoke),
        "host": host_metadata(),
        "config": {
            "offered_rps": float(rps),
            "duration": float(duration_s),
            "replicas": int(cfg.replicas),
            "max_batch": int(cfg.max_batch),
            "max_delay_ms": float(cfg.max_delay_ms),
            "autoscale": bool(cfg.autoscale),
            "shed_backlog": int(cfg.shed_backlog),
            "compute_dtype": cfg.compute_dtype or "float64",
            "priority_mix": dict(priority_mix or {}),
            "large_every": int(large_every),
        },
        "requests": {
            "sent": len(futures),
            "completed": len(responses),
            "failed": failed,
            "shed": len(shed),
            "retried": sum(1 for r, _, _ in responses if r.attempt > 0),
        },
        "latency_seconds": _percentiles(
            [r.latency_s for r, _, _ in responses]),
        # The fixed SLO bucket grid as [edge_seconds, cumulative_count]
        # pairs.  A *list* (not a dict) on purpose: the record schema's
        # flattener only descends dicts, so raw bucket counts never
        # become record metrics (the percentiles above are the
        # summary), while the full distribution is still persisted for
        # cross-run histogram diffs.
        "latency_histogram": {"buckets": server.latency_histogram()},
        "priorities": priorities,
        "throughput_rps": len(responses) / elapsed,
        "batch_size": {
            "mean": float(np.mean([r.batch_size
                                   for r, _, _ in responses])),
            "max": int(max(r.batch_size for r, _, _ in responses)),
            "histogram": hist,
        },
        "service_seconds_mean": float(
            np.mean([r.model_seconds for r, _, _ in responses])),
        # Replica-side kernel attribution ("backend/op" -> seconds),
        # drained per batch so long-lived replicas stay bounded.
        "kernel_seconds": {
            key: float(v)
            for key, v in sorted(server.kernel_seconds().items())
        },
    }
    if large_every:
        record["mixed_workload"] = {
            "large_every": int(large_every),
            "small": _class_block(
                [r for r, _, c in responses if c == "small"]),
            "large": _class_block(
                [r for r, _, c in responses if c == "large"]),
        }
    return record


def write_serving_record(record: dict, path) -> Path:
    """Validate against the shared bench schema (including the serving
    benchmark's required percentiles) and write it."""
    problems = validate_record(record, path=path)
    if problems:
        raise ValueError("; ".join(problems))
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
