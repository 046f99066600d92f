"""Benchmark-regression tracking over the committed ``BENCH_*.json``.

The benchmark suite (``benchmarks/test_*.py``) writes one
machine-readable summary per benchmark -- timings, derived speedups and
the host/BLAS metadata that make numbers comparable across machines.
Committed summaries form the performance **trajectory** of the repo:
each is an append-only baseline a fresh run can be diffed against, and
``distmis bench compare`` is that diff as a CI gate.

Three rules keep the gate honest:

* **Smoke quarantine** -- ``DISTMIS_BENCH_SMOKE=1`` runs write
  ``BENCH_*_smoke.json`` (see :func:`bench_output_path`), so a smoke
  run can never overwrite a trajectory file, and any record carrying
  ``"smoke": true`` is rejected from comparisons outright: smoke-scale
  numbers are interpreter-bound and say nothing about the kernels.
* **Host awareness** -- records embed cpu count, machine and BLAS
  vendor.  When candidate and baseline disagree on any of these the
  comparison is *advisory* (reported, never failed) unless
  ``strict_host`` forces it: a laptop cannot regress a cluster's
  baseline.
* **Noise-aware thresholds** -- a metric only regresses when it moves
  past ``max(rel_threshold, NOISE_SIGMAS * cv)`` where ``cv`` is the
  coefficient of variation over the trajectory history for that metric
  (when >= MIN_HISTORY points exist).  A metric with a noisy history
  earns a wider band instead of flapping.

Metric direction is inferred from naming (``*_seconds`` and
``*overhead*`` are lower-is-better, ``*speedup*`` and ``*throughput*``
higher-is-better); everything else is informational only.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "BenchRecord", "MetricDelta", "CompareReport", "SCHEMA_REQUIRED_KEYS",
    "REQUIRED_METRICS",
    "bench_output_path", "is_smoke_env", "host_metadata",
    "load_bench_record", "validate_record", "metric_directions",
    "hosts_comparable", "compare_records", "append_trajectory",
    "load_trajectory", "TRAJECTORY_JSONL", "UNTRACKED_RECORDS",
    "committed_records",
]

# Keys every benchmark summary must carry to join the trajectory.
SCHEMA_REQUIRED_KEYS = ("benchmark", "smoke", "host")

# Per-benchmark required metrics (flattened dot-paths): a record
# claiming one of these benchmark names must carry them, so a serving
# run that lost its percentiles can never silently join the trajectory.
REQUIRED_METRICS = {
    # the per-priority block must carry every standard level (the bench
    # zero-fills unused ones) and the shed count, so a serving record
    # that lost its overload accounting can never join the trajectory
    "serving": ("latency_seconds.p50", "latency_seconds.p95",
                "latency_seconds.p99", "throughput_rps",
                "priorities.high.latency_seconds.p99",
                "priorities.normal.latency_seconds.p99",
                "priorities.low.latency_seconds.p99",
                "requests.shed"),
    # every backend x dtype row must be present, so a kernel record that
    # silently dropped a backend can never join the trajectory
    "kernel_backends": tuple(
        f"backends.{b}.{d}.step_seconds"
        for b in ("reference", "gemm", "fused")
        for d in ("float64", "float32")
    ) + ("speedup", "fused_speedup_vs_gemm"),
}

# A candidate regresses when it moves past the larger of these bands.
DEFAULT_REL_THRESHOLD = 0.15
NOISE_SIGMAS = 3.0
MIN_HISTORY = 3

TRAJECTORY_JSONL = "BENCH_trajectory.jsonl"

# Full-run summaries that stay local (host-specific or re-measured on
# demand); ``.gitignore`` keeps them and every smoke record off the
# trajectory, and ``make clean`` deletes them.
UNTRACKED_RECORDS = ("BENCH_parallel.json", "BENCH_profiler_overhead.json",
                     "BENCH_live_overhead.json", "BENCH_trace_overhead.json")

_LOWER_SUFFIXES = ("_seconds", "_s")
_LOWER_TOKENS = ("overhead", "latency", "rss")
_HIGHER_TOKENS = ("speedup", "throughput", "efficiency")


def is_smoke_env(environ=None) -> bool:
    """True when ``DISTMIS_BENCH_SMOKE`` asks for the shrunk workload."""
    environ = os.environ if environ is None else environ
    return environ.get("DISTMIS_BENCH_SMOKE", "") not in ("", "0")


def bench_output_path(anchor, name: str, smoke: bool | None = None) -> Path:
    """Where a benchmark writes its summary.

    ``anchor`` is the benchmark module's ``__file__``; full runs land on
    the trajectory file ``BENCH_<name>.json`` while smoke runs are
    quarantined onto ``BENCH_<name>_smoke.json`` so they can never
    clobber a committed trajectory point.
    """
    smoke = is_smoke_env() if smoke is None else smoke
    suffix = "_smoke" if smoke else ""
    return Path(anchor).with_name(f"BENCH_{name}{suffix}.json")


def committed_records(bench_dir) -> list[Path]:
    """The trajectory records in ``bench_dir``: every ``BENCH_*.json``
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


# -- records -----------------------------------------------------------------
@dataclass
class BenchRecord:
    """One parsed benchmark summary (a trajectory point or candidate)."""

    benchmark: str
    smoke: bool
    host: dict
    metrics: dict            # flat {name: float} of comparable numbers
    raw: dict = field(default_factory=dict, repr=False)
    path: str | None = None

    @property
    def host_key(self) -> tuple:
        """The identity under which numbers are comparable."""
        blas = self.host.get("blas") or {}
        return (self.host.get("machine"), self.host.get("cpu_count"),
                blas.get("name") if isinstance(blas, dict) else blas)


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
    flat = _flatten_numeric(obj if isinstance(obj, dict) else {})
    if not flat:
        problems.append(f"{where}no numeric metrics to track")
    for needed in REQUIRED_METRICS.get(str(obj.get("benchmark", "")), ()):
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
    raw bucket counts into gated trajectory metrics."""
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


def load_bench_record(path) -> BenchRecord:
    """Parse and validate one ``BENCH_*.json``; raises ``ValueError`` on
    schema violations."""
    path = Path(path)
    obj = json.loads(path.read_text())
    problems = validate_record(obj, path=path)
    if problems:
        raise ValueError("; ".join(problems))
    metrics = {k: v for k, v in _flatten_numeric(obj).items()
               if not k.startswith("host.")}
    return BenchRecord(benchmark=str(obj["benchmark"]),
                       smoke=bool(obj["smoke"]), host=dict(obj["host"]),
                       metrics=metrics, raw=obj, path=str(path))


def metric_directions(metrics: dict) -> dict[str, str]:
    """``{name: "lower"|"higher"}`` for the metrics worth gating on.

    Any path component counts (``kernel_seconds.gemm.conv3d_forward``
    is lower-is-better via its ``kernel_seconds`` ancestor), with the
    leaf taking precedence when components disagree.
    """
    out: dict[str, str] = {}
    for name in metrics:
        for part in reversed(name.lower().split(".")):
            if any(tok in part for tok in _HIGHER_TOKENS):
                out[name] = "higher"
                break
            if part.endswith(_LOWER_SUFFIXES) or \
                    any(tok in part for tok in _LOWER_TOKENS):
                out[name] = "lower"
                break
    return out


def hosts_comparable(a: BenchRecord, b: BenchRecord) -> list[str]:
    """Why two records' hosts are *not* comparable (empty = same class)."""
    reasons = []
    for (ka, kb, label) in zip(a.host_key, b.host_key,
                               ("machine", "cpu_count", "blas")):
        if ka != kb:
            reasons.append(f"{label}: {ka!r} vs {kb!r}")
    return reasons


# -- comparison --------------------------------------------------------------
@dataclass
class MetricDelta:
    """One metric's baseline-vs-candidate movement."""

    name: str
    direction: str           # "lower" | "higher"
    baseline: float
    candidate: float
    rel_change: float        # signed, positive = got worse
    threshold: float
    regressed: bool

    def describe(self) -> str:
        arrow = "worse" if self.rel_change > 0 else "better"
        flag = "REGRESSED" if self.regressed else "ok"
        return (f"{self.name}: {self.baseline:g} -> {self.candidate:g} "
                f"({self.rel_change * 100:+.1f}% {arrow}, "
                f"band {self.threshold * 100:.0f}%) [{flag}]")


@dataclass
class CompareReport:
    """Outcome of one candidate-vs-baseline comparison."""

    benchmark: str
    deltas: list[MetricDelta]
    host_mismatch: list[str]
    advisory: bool           # host mismatch downgraded failures to warnings
    quarantined: str | None = None   # set when a smoke record was rejected

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return self.quarantined is None and (
            self.advisory or not self.regressions)

    def describe(self) -> str:
        lines = [f"bench compare: {self.benchmark}"]
        if self.quarantined:
            lines.append(f"  QUARANTINED: {self.quarantined}")
            return "\n".join(lines)
        if self.host_mismatch:
            mode = "advisory (not gating)" if self.advisory else "gating"
            lines.append("  host mismatch [" + "; ".join(self.host_mismatch)
                         + f"] -- {mode}")
        for d in self.deltas:
            lines.append("  " + d.describe())
        lines.append(f"  => {'OK' if self.ok else 'REGRESSION'} "
                     f"({len(self.regressions)} regressed metric(s))")
        return "\n".join(lines)


def _noise_threshold(history: list[float]) -> float:
    if len(history) < MIN_HISTORY:
        return 0.0
    mean = sum(history) / len(history)
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in history) / (len(history) - 1)
    return NOISE_SIGMAS * math.sqrt(var) / abs(mean)


def compare_records(baseline: BenchRecord, candidate: BenchRecord,
                    rel_threshold: float = DEFAULT_REL_THRESHOLD,
                    history: dict[str, list[float]] | None = None,
                    strict_host: bool = False) -> CompareReport:
    """Diff a candidate run against a trajectory baseline.

    ``history`` maps metric name to its past trajectory values (same
    host class) and widens the per-metric band to the measured noise.
    """
    if candidate.smoke:
        return CompareReport(
            benchmark=candidate.benchmark, deltas=[], host_mismatch=[],
            advisory=False,
            quarantined="candidate is a smoke record (interpreter-bound "
                        "numbers never gate the trajectory)")
    if baseline.smoke:
        return CompareReport(
            benchmark=candidate.benchmark, deltas=[], host_mismatch=[],
            advisory=False,
            quarantined="baseline is a smoke record -- regenerate the "
                        "trajectory file with a full-size run")
    mismatch = hosts_comparable(baseline, candidate)
    advisory = bool(mismatch) and not strict_host
    directions = metric_directions(baseline.metrics)
    deltas: list[MetricDelta] = []
    for name, direction in sorted(directions.items()):
        if name not in candidate.metrics:
            continue
        base, cand = baseline.metrics[name], candidate.metrics[name]
        if base == 0:
            continue
        # positive rel_change == moved in the "worse" direction
        change = (cand - base) / abs(base)
        if direction == "higher":
            change = -change
        band = max(rel_threshold,
                   _noise_threshold((history or {}).get(name, [])))
        deltas.append(MetricDelta(
            name=name, direction=direction, baseline=base, candidate=cand,
            rel_change=change, threshold=band,
            regressed=change > band))
    return CompareReport(benchmark=candidate.benchmark, deltas=deltas,
                         host_mismatch=mismatch, advisory=advisory)


# -- trajectory history ------------------------------------------------------
def append_trajectory(record: BenchRecord, bench_dir) -> Path:
    """Append a full-size record to the benchmark directory's history
    JSONL (one line per run; smoke records are refused)."""
    if record.smoke:
        raise ValueError("smoke records are quarantined from the trajectory")
    path = Path(bench_dir) / TRAJECTORY_JSONL
    row = {"t_wall": time.time(), "benchmark": record.benchmark,
           "host_key": list(record.host_key), "metrics": record.metrics}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def load_trajectory(bench_dir, benchmark: str,
                    host_key: tuple | None = None
                    ) -> dict[str, list[float]]:
    """Per-metric value history for one benchmark (optionally filtered
    to one host class), oldest first -- feeds the noise bands."""
    path = Path(bench_dir) / TRAJECTORY_JSONL
    history: dict[str, list[float]] = {}
    if not path.exists():
        return history
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail
            if row.get("benchmark") != benchmark:
                continue
            if host_key is not None and \
                    tuple(row.get("host_key", ())) != tuple(host_key):
                continue
            for name, value in row.get("metrics", {}).items():
                history.setdefault(name, []).append(float(value))
    return history
