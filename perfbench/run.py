#!/usr/bin/env python3
"""perfbench entry point.

One workload in one fresh process (what the driver runs)::

    python3 perfbench/run.py --workload serve_small --seed 3 \\
        --seconds 16 --trace 0

``--trace 0`` prints the six end-to-end metrics, ``--trace 1`` the
per-layer metrics (and writes ``perfbench/out/<workload>.trace.json``).
The last line of standard output is the result object.  Also::

    python3 perfbench/run.py --check        # BENCHMARK.json == spec.py
    python3 perfbench/run.py --sets 10      # spreads -> baseline.json
"""

from __future__ import annotations

import os

# BLAS threading is pinned before NumPy loads (as benchmarks/conftest.py
# does): two workers on two cores must not each spawn a GEMM pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(ROOT), str(SRC)]

from perfbench import spec  # noqa: E402


def _need_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'repro'} "
                 "is missing")


# == one workload ===========================================================
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _need_program()
    run_dir = OUT / f"run-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    (run_dir / "tmp").mkdir(parents=True)
    # everything the run writes stays under perfbench/out/
    os.environ["TMPDIR"] = tempfile.tempdir = str(run_dir / "tmp")
    try:
        result = _measure(name, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        _reap_resource_tracker()
    print(json.dumps(result))
    return 0


def _reap_resource_tracker() -> None:
    """``SharedArrayStore`` makes multiprocessing start a tracker process
    that otherwise outlives us by a moment; close it and wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _measure(name: str, seed: int, seconds: float, trace: bool,
             run_dir: Path) -> dict:
    from perfbench import workloads
    from perfbench.measure import (SpanLog, peak_rss_mb, percentile,
                                   windowed_percentile)

    serving = spec.WORKLOADS[name]["kind"] == spec.SERVE
    strict = seconds >= spec.RUN_SECONDS
    spans = SpanLog() if trace else None
    print(f"perfbench {name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")

    t_import = workloads.now()
    import_s = workloads.import_program(name)
    if trace:
        spans.add("import repro", "cli", t_import, workloads.now())
    inputs = workloads.serve_inputs(
        name, seed, seconds / 2 if trace else seconds,
        run_dir / "inputs") if serving else None
    firsts = []
    for i in range(3):
        setup_dir = run_dir / f"setup{i}"
        t0 = workloads.now()
        if serving:
            firsts.append(workloads.serve_first_result(inputs))
        else:
            firsts.append(
                workloads.training_first_result(name, seed, setup_dir))
            shutil.rmtree(setup_dir)
        if trace:
            spans.add(f"cold first result {i}", "bench", t0, workloads.now())

    def timed_pass(label: str, pass_seconds: float, pass_spans):
        if serving:
            return workloads.serve_pass(inputs, pass_spans)
        return workloads.training_pass(name, seed, pass_seconds,
                                       run_dir / label, pass_spans)

    if trace:
        # the same workload twice at half length: once bare, once with
        # spans; the ratio of the two medians is the tracing overhead
        bare = timed_pass("bare", seconds / 2, None)
        measured = timed_pass("traced", seconds / 2, spans)
    else:
        measured = timed_pass("timed", seconds, None)
    rss_mb = peak_rss_mb()      # before the checks' own allocations

    try:
        problems = measured.check()
    except Exception:
        problems = ["check crashed:\n" + traceback.format_exc()]
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    n = len(measured.op_ms)
    if not strict:
        print(f"  (smoke run: {n} op samples, the 10-beyond-p90 rule is "
              "not enforced below the declared run length)")
    if trace:
        metrics = _layer_metrics(name, seed, run_dir, inputs, spans, bare,
                                 measured)
    else:
        window_s = spec.WORKLOADS[name].get("window_s")
        if window_s:
            def op_percentile(q):
                return windowed_percentile(measured.op_at, measured.op_ms,
                                           q, window_s, strict)
            how = f"n={n}, median over {window_s:g} s windows"
        else:
            def op_percentile(q):
                return percentile(measured.op_ms, q, strict)
            how = f"n={n}"
        values = {
            "setup_s": import_s + statistics.median(firsts),
            "wall_s": measured.wall_s,
            "cpu_s": measured.cpu_s,
            "op_p50_ms": op_percentile(50),
            "op_p90_ms": op_percentile(90),
            "peak_rss_mb": rss_mb,
        }
        notes = {
            "setup_s": f"import {import_s:.3f} s + median of first results "
                       + " ".join(f"{s:.3f}" for s in firsts),
            "op_p50_ms": how, "op_p90_ms": how,
        }
        metrics = {}
        for metric, unit, _, _ in spec.END_TO_END:
            metrics[metric] = {"value": values[metric], "unit": unit}
            print(f"  {metric:<12} {values[metric]:>12.4f} {unit:<3} "
                  f"{notes.get(metric, '')}")
    print(f"  attempted {measured.attempted}  failed {measured.failed}  "
          f"correct {not problems}")
    return {"correct": not problems, "attempted": int(measured.attempted),
            "failed": int(measured.failed), "metrics": metrics}


def _layer_metrics(name, seed, run_dir, inputs, spans, bare, traced) -> dict:
    from perfbench import probes

    layer = dict(traced.layer)
    layer["cli.import_ms"] = probes.cli_import_ms(name, SRC)
    if inputs is not None:
        layer.update(probes.serve_probes(inputs))
    else:
        layer.update(probes.training_probes(name, seed, run_dir / "probes"))
    op_ms = statistics.median(traced.op_ms)
    bare_ms = statistics.median(bare.op_ms)
    print(f"  op median: {op_ms:.4f} ms traced, {bare_ms:.4f} ms bare "
          f"(n={len(traced.op_ms)} each)")
    layer["bench.trace_overhead_ratio"] = op_ms / bare_ms
    layer["bench.unattributed_share"] = 1.0 - _attributed_ms(
        name, layer) / op_ms

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{name}.trace.json"
    spans.write_chrome_trace(trace_path)
    print(f"  {len(spans.spans)} spans -> {trace_path.relative_to(ROOT)}; "
          "self seconds by layer: "
          + "  ".join(f"{k} {v:.2f}" for k, v in
                      sorted(spans.layer_self_seconds().items())))

    metrics = {}
    idle = []
    for metric, unit, _, exercised in spec.PER_LAYER:
        if name in exercised:
            value = float(layer[metric])
        else:
            value = 0.0
            idle.append(metric)
        metrics[metric] = {"value": value, "unit": unit}
        print(f"  {metric:<30} {value:>12.4f} {unit}")
    print(f"  not exercised by {name} (printed as 0): {' '.join(idle)}")
    return metrics


def _attributed_ms(name: str, layer: dict) -> float:
    """The layer rows that make up one user-visible operation: an epoch
    (steps x data-parallel step + one pass over the records + validation
    [+ checkpoint]) or a small request (its five phases + send lateness).
    """
    w = spec.WORKLOADS[name]
    if w["kind"] == spec.SERVE:
        return sum(layer[f"serve.{phase}_ms"] for phase in
                   ("late", "queue_wait", "batch_wait", "dispatch",
                    "compute", "stitch"))
    from repro.data import PAPER_FRACTIONS

    train_subjects = int(w["subjects"] * PAPER_FRACTIONS[0])
    steps = train_subjects / (2 * w["replicas"])   # batch 2 per replica
    return (steps * layer["raysim.dp_step_ms"] + layer["data.epoch_read_ms"]
            + layer["core.val_eval_ms"]
            + layer.get("core.checkpoint_save_ms", 0.0))


# == --check ================================================================
def check() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        benchmark = json.load(f)
    problems = spec.check_declarations(benchmark)
    if benchmark.get("paths") != [HERE.name]:
        problems.append(f"paths must be [{HERE.name!r}]")
    if benchmark.get("command") != ["python3", f"{HERE.name}/run.py"]:
        problems.append("command must run perfbench/run.py")
    for problem in problems:
        print(f"perfbench --check: {problem}")
    if not problems:
        print(f"perfbench --check: BENCHMARK.json matches spec.py "
              f"({len(spec.WORKLOADS)} workloads, {len(spec.END_TO_END)} "
              f"end-to-end and {len(spec.PER_LAYER)} per-layer metrics)")
    return 1 if problems else 0


# == --sets =================================================================
def host_metadata() -> dict:
    """The repo's own host/BLAS block plus what a 2-core sandbox adds."""
    from repro.perf.regression import host_metadata as repo_metadata

    return {**repo_metadata(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "load_1min": os.getloadavg()[0]}


def spread(values) -> float:
    """Distance between the quartiles as a share of the median -- the
    driver's steadiness rule."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_sets(n: int, seconds: float, seed_base: int) -> int:
    _need_program()
    host = host_metadata()
    runs = []
    for i in range(n):
        for name in spec.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed_base + i), "--seconds", f"{seconds:g}",
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": name, "seed": seed_base + i, **result})
            print(f"set {i + 1}/{n} {name}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
    summary = {}
    print(f"\n{'workload':<12} {'metric':<12} {'median':>11} "
          f"{'spread':>7} {'bound':>6}")
    for name in spec.WORKLOADS:
        summary[name] = {}
        for metric, unit, _, bound in spec.END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs
                      if r["workload"] == name]
            row = {"median": statistics.median(values), "unit": unit,
                   "bound": bound}
            flag = ""
            if len(values) >= 2:
                row["spread"] = spread(values)
                if row["spread"] > bound / 3 and metric != "setup_s":
                    flag = "  > bound/3"
                if row["spread"] > bound and metric != "setup_s":
                    flag = "  > BOUND"
            summary[name][metric] = row
            print(f"{name:<12} {metric:<12} {row['median']:>11.4f} "
                  f"{row.get('spread', float('nan')):>7.3f} {bound:>6.2f}"
                  f"{flag}")
    baseline = {"host": host, "run_seconds": seconds, "sets": n,
                "seed_base": seed_base, "summary": summary, "runs": runs,
                "claim": None}
    with open(HERE / "baseline.json", "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    print(f"\nwrote {HERE.name}/baseline.json")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="compare BENCHMARK.json with spec.py")
    parser.add_argument("--sets", type=int, metavar="N",
                        help="run every workload N times, print spreads, "
                             "write baseline.json")
    parser.add_argument("--seed-base", type=int, default=1,
                        help="first seed of --sets (seed-base + i)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.check:
        return check()
    if args.sets:
        return run_sets(args.sets, args.seconds, args.seed_base)
    if not args.workload:
        parser.error("one of --workload, --check, --sets is required")
    # NumPy seeds must be non-negative
    return run_workload(args.workload, abs(args.seed) % 2 ** 31,
                        args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
