"""Schema, naming and host metadata for the committed ``BENCH_*.json``.

The benchmark suite (``benchmarks/test_*.py``) and ``distmis
serve-bench`` write one machine-readable summary per benchmark --
timings, derived speedups and the host/BLAS metadata that say where
they were measured.  The committed summaries are schema-checked
evidence for the experiments that cite them (``make lint`` runs
``tools/check_bench_schema.py``); they are not a regression gate.
Regressions are gated by ``perfbench/`` against ``BENCHMARK.json``,
run as alternating parent/change pairs on one host.

What is left here:

* **Record schema** -- :func:`validate_record` checks the required keys
  (:data:`SCHEMA_REQUIRED_KEYS`), at least one numeric metric outside
  the ``host`` block, the per-benchmark metrics of
  :func:`required_metrics` (flattened dot-paths) and the serving
  record's latency histogram.
* **Smoke-file placement** -- ``DISTMIS_BENCH_SMOKE=1`` runs write
  ``BENCH_*_smoke.json`` to the temp dir (:func:`bench_output_path`),
  never beside a committed record; :func:`committed_records` and
  :data:`UNTRACKED_RECORDS` name the files the schema gate checks.
* **Host metadata** -- :func:`host_metadata` is the cpu count, machine
  and BLAS block every summary (and every perfbench result) embeds.
"""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path

__all__ = [
    "SCHEMA_REQUIRED_KEYS", "REQUIRED_METRICS", "UNTRACKED_RECORDS",
    "required_metrics", "bench_output_path", "is_smoke_env", "host_metadata",
    "validate_record", "committed_records",
]

# Keys every benchmark summary must carry.
SCHEMA_REQUIRED_KEYS = ("benchmark", "smoke", "host")

# Per-benchmark required metrics (flattened dot-paths): a record
# claiming one of these benchmark names must carry them, so a serving
# run that lost its percentiles can never be committed silently.
REQUIRED_METRICS = {
    # the per-priority block must carry every standard level (the bench
    # zero-fills unused ones) and the shed count, so a serving record
    # that lost its overload accounting fails the schema gate
    "serving": ("latency_seconds.p50", "latency_seconds.p95",
                "latency_seconds.p99", "throughput_rps",
                "priorities.high.latency_seconds.p99",
                "priorities.normal.latency_seconds.p99",
                "priorities.low.latency_seconds.p99",
                "requests.shed"),
    # plus one backends.<name>.<dtype>.step_seconds row per registered
    # kernel backend, derived at validate time by required_metrics()
    "kernel_backends": ("speedup",),
}

# Full-run summaries that stay local (host-specific or re-measured on
# demand); ``.gitignore`` keeps them out of the repo, and ``make clean``
# deletes them.
UNTRACKED_RECORDS = ("BENCH_parallel.json", "BENCH_profiler_overhead.json",
                     "BENCH_live_overhead.json", "BENCH_trace_overhead.json")


def is_smoke_env(environ=None) -> bool:
    """True when ``DISTMIS_BENCH_SMOKE`` asks for the shrunk workload."""
    environ = os.environ if environ is None else environ
    return environ.get("DISTMIS_BENCH_SMOKE", "") not in ("", "0")


def bench_output_path(anchor, name: str, smoke: bool | None = None) -> Path:
    """Where a benchmark writes its summary.

    ``anchor`` is the benchmark module's ``__file__``; full runs land on
    the committed file ``BENCH_<name>.json`` beside it, smoke runs on
    ``<tempdir>/distmis_bench/BENCH_<name>_smoke.json``, away from every
    committed record.
    """
    smoke = is_smoke_env() if smoke is None else smoke
    if not smoke:
        return Path(anchor).with_name(f"BENCH_{name}.json")
    out_dir = Path(tempfile.gettempdir()) / "distmis_bench"
    out_dir.mkdir(exist_ok=True)
    return out_dir / f"BENCH_{name}_smoke.json"


def committed_records(bench_dir) -> list[Path]:
    """The committed records in ``bench_dir``: every ``BENCH_*.json``
    except the untracked ones (:data:`UNTRACKED_RECORDS`, ``*_smoke``).

    Decided by name alone, so a stale local record never reaches the
    schema gates and no ``git`` call is needed.
    """
    return sorted(p for p in Path(bench_dir).glob("BENCH_*.json")
                  if p.name not in UNTRACKED_RECORDS
                  and not p.name.endswith("_smoke.json"))


def host_metadata() -> dict:
    """The host/BLAS identity block every benchmark summary embeds --
    the metadata that makes timings comparable across machines."""
    import platform

    meta: dict = {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")
        },
    }
    try:
        import numpy as np

        meta["numpy"] = np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        meta["blas"] = {k: blas.get(k) for k in ("name", "version")}
    except Exception:  # pragma: no cover - numpy absent or layout drift
        meta.setdefault("numpy", None)
        meta["blas"] = None
    return meta


def _flatten_numeric(obj, prefix: str = "", out: dict | None = None) -> dict:
    if out is None:
        out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            if isinstance(v, bool):
                continue
            if isinstance(v, (int, float)):
                out[key] = float(v)
            elif isinstance(v, dict):
                _flatten_numeric(v, key, out)
    return out


def required_metrics(benchmark: str) -> tuple[str, ...]:
    """The flattened dot-paths a ``benchmark`` record must carry.

    A ``kernel_backends`` record needs one ``step_seconds`` row per
    registered kernel backend and dtype, read from the live registry, so
    a record that silently dropped a backend fails the schema gate and
    removing a backend needs no schema edit.
    """
    needed = REQUIRED_METRICS.get(benchmark, ())
    if benchmark == "kernel_backends":
        from ..nn.kernels import available_backends

        needed = tuple(f"backends.{b}.{d}.step_seconds"
                       for b in available_backends()
                       for d in ("float64", "float32")) + needed
    return needed


def validate_record(obj, path=None) -> list[str]:
    """Schema problems of one summary dict; empty list means valid."""
    problems: list[str] = []
    where = f"{path}: " if path else ""
    if not isinstance(obj, dict):
        return [f"{where}not a JSON object"]
    for key in SCHEMA_REQUIRED_KEYS:
        if key not in obj:
            problems.append(f"{where}missing required key {key!r}")
    if "smoke" in obj and not isinstance(obj["smoke"], bool):
        problems.append(f"{where}'smoke' must be a boolean")
    if "host" in obj and not isinstance(obj["host"], dict):
        problems.append(f"{where}'host' must be an object")
    if path is not None:
        name = Path(path).name
        if obj.get("smoke") and not name.endswith("_smoke.json"):
            problems.append(
                f"{where}smoke record on a trajectory filename (smoke runs "
                "must write *_smoke.json)")
        if not obj.get("smoke", False) and name.endswith("_smoke.json"):
            problems.append(f"{where}full-size record on a *_smoke.json name")
    # the host block says where a record was measured, not what it measured
    flat = _flatten_numeric({k: v for k, v in obj.items() if k != "host"})
    if not flat:
        problems.append(f"{where}no numeric metrics to track")
    for needed in required_metrics(str(obj.get("benchmark", ""))):
        if needed not in flat:
            problems.append(
                f"{where}benchmark {obj.get('benchmark')!r} requires "
                f"metric {needed!r}")
    if obj.get("benchmark") == "serving":
        problems += _validate_latency_histogram(obj, where)
    return problems


def _validate_latency_histogram(obj: dict, where: str) -> list[str]:
    """Structural check for the serving record's SLO histogram: a
    non-empty list of ``[edge_seconds, cumulative_count]`` pairs with
    strictly increasing edges and non-decreasing counts.  Stored as a
    list precisely so :func:`_flatten_numeric` (dicts only) never turns
    raw bucket counts into record metrics."""
    hist = obj.get("latency_histogram")
    if not isinstance(hist, dict) or "buckets" not in hist:
        return [f"{where}serving record requires "
                "'latency_histogram.buckets'"]
    buckets = hist["buckets"]
    if not isinstance(buckets, list) or not buckets:
        return [f"{where}'latency_histogram.buckets' must be a non-empty "
                "list of [edge_seconds, cumulative_count] pairs"]
    prev_edge, prev_count = -math.inf, 0
    for pair in buckets:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(v, (int, float))
                           and not isinstance(v, bool) for v in pair)):
            return [f"{where}malformed latency_histogram bucket {pair!r}"]
        edge, count = float(pair[0]), pair[1]
        if edge <= prev_edge:
            return [f"{where}latency_histogram bucket edges must be "
                    "strictly increasing"]
        if count < prev_count:
            return [f"{where}latency_histogram cumulative counts must be "
                    "non-decreasing"]
        prev_edge, prev_count = edge, count
    return []
