#!/usr/bin/env python
"""Lint gate: every committed ``benchmarks/BENCH_*.json`` must satisfy
the record schema (``repro.perf.regression``).  The committed records are
schema-checked evidence cited by EXPERIMENTS.md; the regression gate is
``perfbench/`` against ``BENCHMARK.json``.

Checks, per file: valid JSON object; required keys (``benchmark``,
``smoke``, ``host``); smoke records only on ``*_smoke.json`` filenames
(and vice versa -- a smoke run must never masquerade as a committed
record); at least one numeric metric outside the ``host`` block;
per-benchmark required metrics (``required_metrics``: a
``BENCH_serving.json`` record must carry
``latency_seconds.p50/.p95/.p99``, ``throughput_rps``, the
per-priority tail latencies
``priorities.<high|normal|low>.latency_seconds.p99`` and the overload
accounting ``requests.shed`` -- the serving bench zero-fills priority
levels a run never offered, so absence always means a malformed
record, never a quiet run; a ``BENCH_kernels.json`` record must carry
``speedup`` and a ``backends.<name>.<float64|float32>.step_seconds``
row for every backend registered in ``repro.nn.kernels``
(``available_backends()``, read when the record is validated)).
Exits non-zero with one line per violation, so ``make lint`` fails
before a malformed or quarantine-violating record is committed.

Arguments may be directories (every committed ``BENCH_*.json`` inside
is linted, see ``repro.perf.regression.committed_records``: git-ignored
smoke and local full-run records are skipped) or individual record
files; the default is the repo's ``benchmarks/``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.perf.regression import (  # noqa: E402
    committed_records,
    validate_record,
)


def main(argv: list[str]) -> int:
    targets = [Path(a) for a in argv[1:]] or [
        Path(__file__).resolve().parents[1] / "benchmarks"]
    files: list[Path] = []
    for target in targets:
        files.extend(committed_records(target) if target.is_dir()
                     else [target])
    problems: list[str] = []
    for path in files:
        try:
            obj = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{path}: unreadable ({exc})")
            continue
        problems.extend(validate_record(obj, path=path))
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"check_bench_schema: {len(problems)} problem(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"check_bench_schema: {len(files)} file(s) OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
