"""Command-line interface: ``distmis <command>``.

The paper ships its framework as deployable tooling for researchers
adapting their own MIS workloads (Section V-B); the CLI is that
surface:

* ``distmis table1``   -- reproduce Table I on the simulated cluster;
* ``distmis fig4``     -- reproduce the Fig 4 series (3 jittered runs);
* ``distmis train``    -- train one configuration in-process;
* ``distmis search``   -- run a hyper-parameter search in-process;
* ``distmis simulate`` -- price one (method, #GPUs) cell, optionally
  exporting the Chrome trace;
* ``distmis profile``  -- the bottleneck analyzer: given a profiled run
  directory, the step-time attribution verdict; with no directory, the
  Section III-B1 online-vs-offline pipeline comparison;
* ``distmis calibrate``-- re-fit the cost model against Table I;
* ``distmis telemetry``-- inspect a telemetry run directory (summary /
  Prometheus text / merged Chrome trace);
* ``distmis top``      -- live (or post-hoc) text view over a run's
  ``events.jsonl`` stream: worker liveness, step-time buckets, alerts;
* ``distmis trace``    -- per-request phase waterfalls over a serve
  run's kept traces (``requests.jsonl``): queue_wait / batch_wait /
  dispatch / compute / stitch, naming the dominant phase;
* ``distmis serve-bench`` -- load-test the micro-batched replica pool
  (:mod:`repro.serve`) at a fixed offered rate and write the serving
  latency record ``BENCH_serving.json`` (tail latency, throughput,
  batch-size histogram).

``train``, ``search`` and ``simulate`` accept ``--telemetry DIR`` to
record the run (manifest + metrics + trace) into ``DIR``.  ``search``
and ``simulate`` additionally accept ``--profile DIR``: the run then
also writes ``profile.json`` (step-time attribution + input-stage
latencies + per-trial GPU seconds), renders a live trial progress
table, and prints the bottleneck report when it finishes -- plus
``--watch`` (stream live snapshots/alerts to stdout while the run is
in flight) and ``--live-port PORT`` (serve ``/metrics`` and ``/health``
on localhost), both requiring a run directory.
"""

from __future__ import annotations

import argparse
import sys


def _watch_line(monitor) -> None:
    """One non-TTY-friendly line per live snapshot (``--watch``)."""
    vals = monitor.last_values
    firing = ",".join(a.rule for a in monitor.engine.firing) or "-"
    print(f"[watch] snapshot {monitor.snapshots:>4}  "
          f"alive {int(vals.get('workers_alive', 0))}  "
          f"stalled {int(vals.get('workers_stalled', 0))}  "
          f"data_wait {vals.get('data_wait_ratio', 0.0):.0%}  "
          f"alerts {firing}", flush=True)


def _make_hub(args):
    """A live hub writing to ``--telemetry DIR`` (``--profile DIR``
    additionally enables step-time attribution), else the null sink.
    ``--watch`` / ``--live-port`` additionally attach a
    :class:`~repro.telemetry.LiveMonitor` streaming ``events.jsonl``
    (and the localhost ``/metrics`` + ``/health`` endpoint)."""
    watch = bool(getattr(args, "watch", False))
    live_port = getattr(args, "live_port", None)
    hub = None
    if getattr(args, "profile", None):
        from .telemetry import TelemetryHub

        hub = TelemetryHub(run_dir=args.profile, profile=True)
    elif getattr(args, "telemetry", None):
        from .telemetry import TelemetryHub

        hub = TelemetryHub(run_dir=args.telemetry)
    if hub is None:
        if watch or live_port is not None:
            raise SystemExit("--watch/--live-port need a run directory: "
                             "pass --telemetry DIR (or --profile DIR)")
        from .telemetry import NULL_HUB

        return NULL_HUB
    if watch or live_port is not None:
        from .telemetry import LiveMonitor

        monitor = LiveMonitor(hub, http_port=live_port,
                              on_snapshot=_watch_line if watch else None)
        hub.attach_live(monitor)
        if live_port is not None:
            print(f"live endpoint: http://127.0.0.1:{monitor.http_port}"
                  "/health (and /metrics)")
    return hub


def _add_scale_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--subjects", type=int, default=10,
                   help="synthetic cohort size (paper: 484)")
    p.add_argument("--volume", type=int, nargs=3, default=(16, 16, 16),
                   metavar=("D", "H", "W"),
                   help="volume shape (paper: 240 240 155)")
    p.add_argument("--epochs", type=int, default=15, help="epoch budget")
    p.add_argument("--base-filters", type=int, default=4,
                   help="first-level filters (paper: 8)")
    p.add_argument("--depth", type=int, default=2,
                   help="resolution steps (paper: 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compute-dtype", default=None,
                   choices=["float64", "float32"],
                   help="parameter/activation dtype (default: float64 -- "
                        "except 'search', which defaults to float32 -- or "
                        "DISTMIS_COMPUTE_DTYPE)")


#: Undo actions recorded by :func:`_apply_compute_flags`, drained by
#: :func:`main` after the command returns so in-process callers (tests)
#: never observe a leaked global dtype policy.
_policy_restores: list = []


def _apply_compute_flags(args) -> None:
    """Install --compute-dtype before any model is built (None leaves
    env/default resolution untouched)."""
    if getattr(args, "compute_dtype", None):
        from .nn.dtypes import set_compute_dtype

        prev = set_compute_dtype(args.compute_dtype)
        _policy_restores.append(lambda: set_compute_dtype(prev))


def _settings(args):
    from .core import ExperimentSettings

    return ExperimentSettings(
        num_subjects=args.subjects,
        volume_shape=tuple(args.volume),
        epochs=args.epochs,
        base_filters=args.base_filters,
        depth=args.depth,
        seed=args.seed,
    )


def cmd_table1(args) -> int:
    from .perf import SpeedupTable, calibrated_model

    print(SpeedupTable(calibrated_model()).render())
    return 0


def cmd_fig4(args) -> int:
    from .core.runner import DistMISRunner

    report = DistMISRunner().simulate_comparison(num_runs=args.runs,
                                                 base_seed=args.seed)
    print(report.render_figure_series())
    return 0


def cmd_train(args) -> int:
    from .core import MISPipeline, train_trial

    _apply_compute_flags(args)
    hub = _make_hub(args)
    settings = _settings(args)
    pipeline = MISPipeline(settings, telemetry=hub)
    config = {"learning_rate": args.lr, "loss": args.loss}
    out = train_trial(
        config, settings, pipeline, num_replicas=args.gpus,
        convergence_patience=4, telemetry=hub,
    )
    for rec in out.history:
        print(f"epoch {rec.epoch:>3}  loss {rec.train_loss:.4f}  "
              f"val DSC {rec.val_dice:.4f}  lr {rec.lr:.2e}")
    print(f"best val DSC {out.val_dice:.4f}   test DSC {out.test_dice:.4f}")
    if out.converged_epoch is not None:
        print(f"converged at epoch {out.converged_epoch}")
    run_dir = hub.finalize_run(
        kind="train", config=config, seed=settings.seed,
        final_metrics={"val_dice": out.val_dice,
                       "test_dice": out.test_dice,
                       "wall_seconds": out.wall_seconds},
    )
    if run_dir is not None:
        print(f"telemetry written to {run_dir}")
    return 0


def cmd_search(args) -> int:
    import os

    from .core import HyperparameterSpace
    from .core.search import check_search, run_search

    try:
        check_search(args.method, args.gpus, args.executor, args.workers)
    except ValueError as exc:
        args.error(str(exc))
    # Search workloads trade a little precision for throughput: default
    # to the float32 fast path unless the user (flag or env) said
    # otherwise.  Gradcheck/parity tooling keeps the float64 default.
    if (args.compute_dtype is None
            and not os.environ.get("DISTMIS_COMPUTE_DTYPE", "").strip()):
        args.compute_dtype = "float32"
    _apply_compute_flags(args)
    space = HyperparameterSpace(
        {"learning_rate": args.lr, "loss": args.losses}
    )
    settings = _settings(args)
    hub = _make_hub(args)
    progress = None
    if args.profile:
        from .telemetry import ProgressReporter

        progress = ProgressReporter()
    result = run_search(
        args.method, space, settings, args.gpus,
        executor=args.executor, max_workers=args.workers,
        progress=progress, telemetry=hub,
    )
    if args.executor == "process":
        print(f"process executor: {len(result.outcomes)} trials over "
              f"{result.num_gpus} workers in {result.elapsed_seconds:.1f} s")
    for row in result.analysis.results_table("val_dice"):
        print(f"{row['trial_id']} {row['config']} "
              f"val DSC {row['val_dice']:.4f} [{row['status']}]")
    print(f"best: {result.analysis.best_config('val_dice')}")
    if args.profile:
        from .telemetry import analyze_run_dir

        print(analyze_run_dir(hub.run_dir).render())
    if hub.enabled:
        print(f"telemetry written to {hub.run_dir}")
    return 0


def _parse_failures(spec: str):
    """``mtbf=43200,repair=600`` -> FailureModel (seconds)."""
    from .cluster import FailureModel

    known = {"mtbf": "mtbf_s", "repair": "repair_s"}
    kwargs = {}
    for part in spec.split(","):
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in known:
            raise SystemExit(
                f"bad --failures entry {part!r}; expected "
                "mtbf=SECONDS[,repair=SECONDS]"
            )
        kwargs[known[key]] = float(value)
    if "mtbf_s" not in kwargs:
        raise SystemExit("--failures needs at least mtbf=SECONDS")
    return FailureModel(**kwargs)


def cmd_simulate(args) -> int:
    from .core.runner import DistMISRunner
    from .perf import format_hms

    failures = _parse_failures(args.failures) if args.failures else None
    retry_policy = None
    if failures is not None and (args.max_retries is not None
                                 or args.resume != "checkpoint"):
        from .fault_tolerance import RetryPolicy

        retry_policy = RetryPolicy(
            max_retries=args.max_retries if args.max_retries is not None
            else 0,
            resume=args.resume,
        )
    runner = DistMISRunner(telemetry=_make_hub(args))
    if args.profile:
        # Pin the simulated run's step-time attribution to the
        # calibrated cost model's decomposition for the method's
        # per-trial GPU width (experiment-parallel trials are 1-GPU,
        # the property behind claim C1's zero sync overhead).
        from .perf import TrialConfig
        from .telemetry import StepAttribution

        if args.method == "data_parallel":
            width = args.gpus
        elif args.method == "hybrid":
            width = args.gpus_per_trial or min(
                args.gpus, runner.cost_model.cluster.node.num_gpus)
        else:
            width = 1
        runner.telemetry.attach_attribution(StepAttribution.from_cost_model(
            runner.cost_model, TrialConfig(), num_gpus=width))
    run = runner.simulate(args.method, args.gpus, seed=args.seed,
                          gpus_per_trial=args.gpus_per_trial,
                          failures=failures, retry_policy=retry_policy)
    print(f"{run.method} @ {args.gpus} GPUs: "
          f"{format_hms(run.elapsed_seconds)} "
          f"({run.elapsed_seconds:.0f} s), "
          f"mean GPU utilisation {run.timeline.mean_utilization():.0%}")
    if failures is not None:
        print(f"failures: {run.num_failures}, wasted "
              f"{format_hms(run.wasted_seconds)}, "
              f"abandoned trials: {run.num_abandoned}")
        for rec in run.retries:
            resumed = (f"resume at epoch {rec.resumed_epoch}"
                       if rec.resumed_epoch is not None else "from scratch")
            print(f"  {rec.trial} attempt {rec.attempt} failed at "
                  f"{format_hms(rec.failed_at_s)} ({resumed})")
    if args.trace:
        run.timeline.to_chrome_trace(args.trace)
        print(f"chrome trace written to {args.trace}")
    if args.profile:
        from .telemetry import analyze_run_dir

        print(analyze_run_dir(runner.telemetry.run_dir).render())
    if runner.telemetry.enabled:
        print(f"telemetry written to {runner.telemetry.run_dir}")
    return 0


def cmd_telemetry(args) -> int:
    import json
    from pathlib import Path

    from .telemetry import RunManifest
    from .telemetry.hub import METRICS_JSONL, METRICS_PROM, TRACE_JSON

    run_dir = Path(args.run_dir)
    if args.action == "summary":
        if not run_dir.is_dir():
            print(f"no run directory at {run_dir}", file=sys.stderr)
            return 1
        manifest_path = run_dir / "manifest.json"
        if manifest_path.exists():
            m = RunManifest.load(run_dir)
            print(f"run       : {m.run_id}")
            print(f"kind      : {m.kind}")
            created = m.to_dict()["created_iso"]
            print(f"created   : {created}")
            print(f"git rev   : {m.git_rev or '(unknown)'}")
            print(f"host      : {m.host.get('hostname', '?')} "
                  f"({m.host.get('platform', '?')})")
            print(f"seed      : {m.seed}")
            if m.config:
                print(f"config    : {json.dumps(m.config, sort_keys=True)}")
            for k, v in sorted(m.final_metrics.items()):
                print(f"  {k:<20} {v}")
        else:
            print(f"no manifest.json in {run_dir}")
        metrics_path = run_dir / METRICS_JSONL
        if metrics_path.exists():
            rows = [json.loads(line)
                    for line in metrics_path.read_text().splitlines() if line]
            print(f"metrics   : {len(rows)} series")
            for row in rows:
                labels = ",".join(f"{k}={v}"
                                  for k, v in sorted(row["labels"].items()))
                name = row["name"] + (f"{{{labels}}}" if labels else "")
                if row["kind"] == "histogram":
                    mean = row["sum"] / row["count"] if row["count"] else 0.0
                    print(f"  {name:<44} n={row['count']} mean={mean:.4g}")
                else:
                    print(f"  {name:<44} {row['value']:g}")
        trace_path = run_dir / TRACE_JSON
        if trace_path.exists():
            events = json.loads(trace_path.read_text())
            cats: dict[str, int] = {}
            for ev in events:
                cats[ev.get("cat", "?")] = cats.get(ev.get("cat", "?"), 0) + 1
            breakdown = ", ".join(f"{k}: {v}" for k, v in sorted(cats.items()))
            print(f"trace     : {len(events)} spans ({breakdown})")
        return 0
    if args.action == "prom":
        prom = run_dir / METRICS_PROM
        if not prom.exists():
            print(f"no {METRICS_PROM} in {run_dir}", file=sys.stderr)
            return 1
        sys.stdout.write(prom.read_text())
        return 0
    # action == "trace": merge the run dirs' traces into one Perfetto file.
    # Each run dir may already span several pids (real spans + simulated
    # timelines), so shift rather than overwrite to keep lanes distinct.
    merged: list[dict] = []
    offset = 0
    for d in [run_dir] + [Path(p) for p in args.extra_runs]:
        trace_path = d / TRACE_JSON
        if not trace_path.exists():
            print(f"no {TRACE_JSON} in {d}", file=sys.stderr)
            return 1
        events = json.loads(trace_path.read_text())
        for ev in events:
            ev["pid"] = offset + ev.get("pid", 0)
            merged.append(ev)
        offset = max((e["pid"] for e in events), default=offset) + 1
    # metadata events ("M": process names, clock anchors) carry no ts;
    # keep them ahead of the span stream they describe
    merged.sort(key=lambda e: e.get("ts", -1.0))
    out = Path(args.output)
    out.write_text(json.dumps(merged))
    print(f"merged chrome trace ({len(merged)} spans) written to {out}")
    return 0


def cmd_profile(args) -> int:
    if args.run_dir:
        from .telemetry import analyze_run_dir

        try:
            report = analyze_run_dir(args.run_dir)
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(report.render())
        return 0
    from .core import ExperimentSettings, profile_online_vs_offline

    try:
        ExperimentSettings(num_subjects=args.subjects,
                           volume_shape=tuple(args.volume),
                           epochs=args.epochs)
    except ValueError as exc:
        args.error(str(exc))
    report = profile_online_vs_offline(
        num_subjects=args.subjects,
        volume_shape=tuple(args.volume),
        epochs=args.epochs,
    )
    print(report.render())
    return 0


def cmd_top(args) -> int:
    from .telemetry import run_top

    return run_top(args.run_dir, follow=args.follow,
                   interval_s=args.interval, max_frames=args.frames)


def cmd_trace(args) -> int:
    from .telemetry import REQUESTS_JSONL, load_request_traces
    from .telemetry.tracing import render_waterfall

    traces = load_request_traces(args.run_dir)
    if not traces:
        print(f"no {REQUESTS_JSONL} in {args.run_dir} -- serve with a "
              "--telemetry run directory (kept traces are written at "
              "flush time)", file=sys.stderr)
        return 1
    if args.request is not None:
        chosen = [t for t in traces if t.request_id == args.request
                  or t.trace_id == args.request]
        if not chosen:
            print(f"no kept trace for request {args.request!r} "
                  f"({len(traces)} kept traces; it may have been "
                  "sampled out)", file=sys.stderr)
            return 1
        for t in chosen:
            print(render_waterfall(t))
        return 0
    ranked = sorted(traces, key=lambda t: t.latency_s, reverse=True)
    if args.slowest is not None:
        for i, t in enumerate(ranked[:args.slowest]):
            if i:
                print()
            print(render_waterfall(t))
        return 0
    # default: a summary plus the slowest request's waterfall
    reasons: dict[str, int] = {}
    for t in traces:
        reasons[t.keep_reason] = reasons.get(t.keep_reason, 0) + 1
    kept = ", ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
    print(f"{len(traces)} kept request trace(s) ({kept})")
    dominant: dict[str, int] = {}
    for t in traces:
        phase = t.dominant_phase()
        if phase is not None:
            dominant[phase] = dominant.get(phase, 0) + 1
    if dominant:
        top_phase = max(sorted(dominant), key=lambda p: dominant[p])
        print(f"dominant phase across kept traces: {top_phase} "
              f"({dominant[top_phase]}/{len(traces)} requests)")
    print()
    print("slowest kept request:")
    print(render_waterfall(ranked[0]))
    return 0


def cmd_serve_bench(args) -> int:
    import tempfile
    from pathlib import Path

    import numpy as np

    from .core.checkpoint import CheckpointManager
    from .nn import UNet3D
    from .perf.regression import bench_output_path, is_smoke_env
    from .serve import (
        ModelServer,
        ServeConfig,
        run_serve_bench,
        write_serving_record,
    )

    hub = _make_hub(args)
    smoke = bool(args.smoke or is_smoke_env())
    model_kwargs = dict(in_channels=args.channels, out_channels=1,
                        base_filters=args.base_filters, depth=args.depth,
                        use_batchnorm=False)
    rng = np.random.default_rng(args.seed)
    tmp = None
    checkpoint = args.checkpoint
    if checkpoint is None:
        # a synthetic "best trial": untrained weights through the same
        # CheckpointManager round-trip a tuned model would take
        tmp = tempfile.TemporaryDirectory(prefix="serve_ckpt_")
        model = UNet3D(rng=np.random.default_rng(args.seed),
                       **model_kwargs)
        mgr = CheckpointManager(tmp.name)
        mgr.save(model, epoch=0, val_dice=1.0)
        checkpoint = str(mgr.best_path)
    volumes = [rng.normal(size=(args.channels, *args.volume))
               for _ in range(8)]
    large_volumes = None
    if args.large_every:
        large_volumes = [rng.normal(size=(args.channels,
                                          *args.large_volume))
                         for _ in range(4)]
    priority_mix = None
    if args.priority_mix is not None:
        high, normal, low = args.priority_mix
        priority_mix = {"high": high, "normal": normal, "low": low}

    def build_config(**overrides):
        base = dict(
            checkpoint=checkpoint, model_builder=UNet3D,
            model_kwargs=model_kwargs, replicas=args.replicas,
            max_batch=args.max_batch, max_delay_ms=args.max_delay_ms,
            autoscale=args.autoscale,
            full_volume_max_voxels=args.full_volume_max_voxels,
            patch_shape=tuple(args.patch_size),
            overlap=args.overlap, sw_batch_size=args.sw_batch_size,
            shed_backlog=args.shed_backlog,
            compute_dtype=args.compute_dtype,
        )
        base.update(overrides)
        return ServeConfig(**base)

    try:
        with ModelServer(build_config(), telemetry=hub) as server:
            record = run_serve_bench(
                server, volumes, rps=args.rps, duration_s=args.duration,
                smoke=smoke, priority_mix=priority_mix,
                large_volumes=large_volumes,
                large_every=args.large_every, seed=args.seed)
        if args.dtype_compare and args.compute_dtype != "float32":
            # float32 serving mode (ROADMAP 1c): latency win plus the
            # identity cost versus the float64-served reference,
            # recorded as a labelled row of the serving record
            from .core.inference import full_volume_inference
            from .core.checkpoint import load_checkpoint

            with ModelServer(build_config(compute_dtype="float32"),
                             telemetry=hub) as server32:
                rec32 = run_serve_bench(
                    server32, volumes, rps=args.rps,
                    duration_s=args.duration, smoke=smoke,
                    priority_mix=priority_mix,
                    large_volumes=large_volumes,
                    large_every=args.large_every, seed=args.seed)
                probe = server32.submit(volumes[0])
                server32.drain(timeout_s=60)
                pred32 = probe.result().prediction
            ref_model = UNet3D(rng=np.random.default_rng(args.seed),
                               **model_kwargs)
            load_checkpoint(checkpoint, ref_model)
            ref = full_volume_inference(
                ref_model, np.asarray(volumes[0])[None]).prediction[0]
            diff = float(np.max(np.abs(
                pred32.astype(np.float64) - ref)))
            p99_64 = record["latency_seconds"]["p99"]
            p99_32 = rec32["latency_seconds"]["p99"]
            record["float32_mode"] = {
                "latency_seconds": rec32["latency_seconds"],
                "throughput_rps": rec32["throughput_rps"],
                "p99_speedup_vs_float64": (p99_64 / p99_32
                                           if p99_32 > 0 else 0.0),
                "max_abs_diff_vs_float64": diff,
                "bit_identical_to_float64": diff == 0.0,
            }
    finally:
        if tmp is not None:
            tmp.cleanup()
    if args.out:
        out = Path(args.out)
    else:
        out = bench_output_path(Path(args.bench_dir) / "_anchor",
                                "serving", smoke)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_serving_record(record, out)
    lat = record["latency_seconds"]
    req = record["requests"]
    print(f"serving: {req['completed']}/{req['sent']} requests on "
          f"{args.replicas} replica(s) ({req['failed']} failed, "
          f"{req['shed']} shed, {req['retried']} retried)")
    print(f"  latency  p50 {lat['p50'] * 1e3:.1f} ms   "
          f"p95 {lat['p95'] * 1e3:.1f} ms   "
          f"p99 {lat['p99'] * 1e3:.1f} ms")
    print(f"  throughput {record['throughput_rps']:.1f} rps "
          f"(offered {args.rps:g})")
    if priority_mix or args.shed_backlog:
        for level in ("high", "normal", "low"):
            block = record["priorities"][level]
            if not (block["count"] or block["shed"]):
                continue
            print(f"  {level:>6}: {block['count']} served, "
                  f"{block['shed']} shed, "
                  f"p99 {block['latency_seconds']['p99'] * 1e3:.1f} ms")
    mixed = record.get("mixed_workload")
    if mixed:
        print(f"  small p99 {mixed['small']['latency_seconds']['p99'] * 1e3:.1f} ms"
              f"   large p99 {mixed['large']['latency_seconds']['p99'] * 1e3:.1f} ms")
    f32 = record.get("float32_mode")
    if f32:
        print(f"  float32 mode: p99 "
              f"{f32['latency_seconds']['p99'] * 1e3:.1f} ms "
              f"({f32['p99_speedup_vs_float64']:.2f}x vs float64), "
              f"max |diff| {f32['max_abs_diff_vs_float64']:.3g}")
    hist = record["batch_size"]["histogram"]
    sizes = ", ".join(f"{k}x{hist[k]}"
                      for k in sorted(hist, key=int))
    print(f"  batch sizes: {sizes}")
    run_dir = hub.finalize_run(
        kind="serve-bench",
        config={"rps": args.rps, "duration": args.duration,
                "replicas": args.replicas, "max_batch": args.max_batch,
                "max_delay_ms": args.max_delay_ms,
                "shed_backlog": args.shed_backlog,
                "priority_mix": priority_mix or {},
                "large_every": args.large_every},
        seed=args.seed,
        final_metrics={"latency_p50_s": lat["p50"],
                       "latency_p99_s": lat["p99"],
                       "throughput_rps": record["throughput_rps"],
                       "shed": float(req["shed"])},
    )
    if run_dir is not None:
        print(f"telemetry written to {run_dir}")
    print(f"serving benchmark written to {out}")
    return 0


def cmd_summary(args) -> int:
    import numpy as np

    from .nn import UNet3D, format_summary

    net = UNet3D(
        4, 1, args.base_filters, args.depth,
        transpose_halves=not args.transpose_keeps_channels,
        rng=np.random.default_rng(0),
    )
    print(format_summary(net, (1, 4, *args.volume)))
    return 0


def cmd_report(args) -> int:
    from .core.report import build_report

    text = build_report(num_runs=args.runs, base_seed=args.seed)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_calibrate(args) -> int:
    from .perf import fit_to_table1

    result = fit_to_table1()
    print("fitted parameters:")
    for name in ("gpu_efficiency", "straggler_sigma", "mirrored_overhead_s",
                 "internode_overhead_s", "epoch_fixed_s", "startup_base_s",
                 "startup_per_node_s", "tune_trial_overhead_s"):
        print(f"  {name} = {getattr(result.params, name):.6g}")
    print(f"max |error| {result.max_abs_pct_error:.1f}%, "
          f"mean {result.mean_abs_pct_error:.1f}%")
    return 0


class _LossNames:
    """``choices`` for ``--loss``/``--losses``: the loss registry's
    names, imported when argparse first checks a value or lists them
    (``in`` falls back to iteration), so parsing a command that trains
    nothing (``telemetry``, ``top``, ``trace``) loads neither
    :mod:`repro.nn` nor NumPy.  The flags carry an explicit metavar
    because argparse formats a choices-derived one when the argument
    is added."""

    def __iter__(self):
        from .nn.losses import LOSS_NAMES

        return iter(LOSS_NAMES)


def build_parser() -> argparse.ArgumentParser:
    loss_names = _LossNames()
    parser = argparse.ArgumentParser(
        prog="distmis",
        description="DistMIS reproduction: distributed hyper-parameter "
                    "tuning for 3D medical image segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="reproduce Table I").set_defaults(
        fn=cmd_table1
    )

    p = sub.add_parser("fig4", help="reproduce Figure 4 series")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_fig4)

    p = sub.add_parser("train", help="train one configuration in-process")
    _add_scale_args(p)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--loss", default="dice", choices=loss_names,
                   metavar="NAME", help="one of: %(choices)s")
    p.add_argument("--gpus", type=int, default=1,
                   help="virtual data-parallel replicas")
    p.add_argument("--telemetry", metavar="DIR",
                   help="record manifest/metrics/trace into DIR")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("search", help="hyper-parameter search in-process")
    _add_scale_args(p)
    p.add_argument("--lr", type=float, nargs="+", default=[3e-3, 1e-3])
    p.add_argument("--losses", nargs="+", default=["dice"],
                   choices=loss_names, metavar="NAME",
                   help="one or more of: %(choices)s")
    p.add_argument("--method", default="experiment_parallel",
                   choices=["data_parallel", "experiment_parallel"])
    p.add_argument("--gpus", type=int, default=1,
                   help="data_parallel: virtual replicas per trial; "
                        "experiment_parallel: 1 (serial executor) or the "
                        "process pool's worker count")
    p.add_argument("--executor", default="serial",
                   choices=["serial", "process"],
                   help="experiment_parallel trial execution backend: "
                        "serial (one core) or a process pool (true "
                        "multi-core parallelism, result-identical)")
    p.add_argument("--workers", type=int, default=None,
                   help="process executor: worker processes "
                        "(default: --gpus when > 1, else all cores)")
    p.add_argument("--telemetry", metavar="DIR",
                   help="record manifest/metrics/trace into DIR")
    p.add_argument("--profile", metavar="DIR",
                   help="profile the run into DIR (step-time attribution "
                        "+ merged cross-process trace + bottleneck "
                        "report; implies --telemetry DIR)")
    p.add_argument("--watch", action="store_true",
                   help="stream live snapshot/alert lines while the search "
                        "runs (requires --telemetry/--profile; the run dir "
                        "also gains events.jsonl for `distmis top`)")
    p.add_argument("--live-port", type=int, default=None, metavar="PORT",
                   help="serve /metrics (Prometheus) and /health (JSON) on "
                        "localhost while the run is in flight (0 = any "
                        "free port; requires --telemetry/--profile)")
    p.set_defaults(fn=cmd_search, error=p.error)

    p = sub.add_parser("simulate", help="price one cell on the simulator")
    p.add_argument("method",
                   choices=["data_parallel", "experiment_parallel", "hybrid"])
    p.add_argument("gpus", type=int)
    p.add_argument("--gpus-per-trial", type=int, default=None,
                   help="hybrid method: GPUs per trial (default: one node)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--failures", metavar="SPEC",
                   help="price the run under exponential GPU failures: "
                        "mtbf=SECONDS[,repair=SECONDS] "
                        "(experiment_parallel only; per-epoch checkpoint "
                        "resume unless --resume scratch)")
    p.add_argument("--max-retries", type=int, default=None,
                   help="with --failures: abandon a trial after this many "
                        "retries (default: unlimited)")
    p.add_argument("--resume", choices=["checkpoint", "scratch"],
                   default="checkpoint",
                   help="with --failures: what a retried trial keeps")
    p.add_argument("--trace", help="write a Chrome trace JSON here")
    p.add_argument("--telemetry", metavar="DIR",
                   help="record manifest/metrics/trace into DIR")
    p.add_argument("--profile", metavar="DIR",
                   help="profile the run into DIR: attribution from the "
                        "calibrated cost model + bottleneck report "
                        "(implies --telemetry DIR)")
    p.add_argument("--watch", action="store_true",
                   help="stream live snapshot lines while the simulation "
                        "runs (requires --telemetry/--profile)")
    p.add_argument("--live-port", type=int, default=None, metavar="PORT",
                   help="serve /metrics and /health on localhost during "
                        "the run (0 = any free port)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("telemetry",
                       help="inspect a telemetry run directory")
    p.add_argument("action", choices=["summary", "prom", "trace"],
                   help="summary: manifest + metrics overview; prom: dump "
                        "Prometheus text; trace: merge Chrome traces")
    p.add_argument("run_dir", help="run directory written by --telemetry")
    p.add_argument("extra_runs", nargs="*",
                   help="further run dirs to merge (trace action)")
    p.add_argument("--output", default="merged_trace.json",
                   help="output path for the merged trace")
    p.set_defaults(fn=cmd_telemetry)

    p = sub.add_parser("profile", help="bottleneck analyzer / report")
    p.add_argument("run_dir", nargs="?", default=None,
                   help="a --profile run directory: print its step-time "
                        "attribution verdict (omit for the online-vs-"
                        "offline pipeline comparison)")
    p.add_argument("--subjects", type=int, default=6)
    p.add_argument("--volume", type=int, nargs=3, default=(48, 48, 32))
    p.add_argument("--epochs", type=int, default=3)
    p.set_defaults(fn=cmd_profile, error=p.error)

    p = sub.add_parser("top",
                       help="live text view over a run's events.jsonl")
    p.add_argument("run_dir",
                   help="run directory written with --watch / a live "
                        "monitor (needs events.jsonl)")
    p.add_argument("--follow", action="store_true",
                   help="keep tailing until the run's final health event "
                        "(default: render once and exit)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period in seconds with --follow")
    p.add_argument("--frames", type=int, default=None,
                   help="stop after this many rendered frames (useful in "
                        "non-TTY smoke runs)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("trace",
                       help="per-request phase waterfalls from a serve "
                            "run's kept traces (requests.jsonl)")
    p.add_argument("run_dir",
                   help="run directory written by a served --telemetry "
                        "run (needs requests.jsonl)")
    p.add_argument("--request", default=None, metavar="ID",
                   help="render one request by request id or trace id")
    p.add_argument("--slowest", type=int, default=None, metavar="N",
                   help="render the N slowest kept requests")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("serve-bench",
                       help="load-test the micro-batched replica pool "
                            "and write the serving latency record")
    p.add_argument("--rps", type=float, default=20.0,
                   help="offered request rate (open loop)")
    p.add_argument("--duration", type=float, default=3.0,
                   help="load-generation window in seconds")
    p.add_argument("--replicas", type=int, default=2,
                   help="model replica processes")
    p.add_argument("--max-batch", type=int, default=4,
                   help="micro-batch size cap")
    p.add_argument("--max-delay-ms", type=float, default=10.0,
                   help="micro-batch coalescing deadline, binding only "
                        "while every replica is busy")
    p.add_argument("--autoscale", action="store_true",
                   help="let the backlog-driven autoscaler resize the "
                        "pool during the run")
    p.add_argument("--priority-mix", type=float, nargs=3, default=None,
                   metavar=("HIGH", "NORMAL", "LOW"),
                   help="offered fraction per priority (e.g. 0.2 0.6 "
                        "0.2); default: all normal")
    p.add_argument("--shed-backlog", type=int, default=0,
                   help="backlog at which low-priority admissions are "
                        "shed (0 = no shedding)")
    p.add_argument("--dtype-compare", action="store_true",
                   help="also run the bench in float32 serving mode and "
                        "record the latency/identity trade-off row")
    p.add_argument("--compute-dtype", default=None,
                   choices=["float64", "float32"],
                   help="replica kernel dtype policy (default float64; "
                        "float32 trades offline bit-identity for speed)")
    p.add_argument("--large-every", type=int, default=0,
                   help="replace every Nth request with a large "
                        "sliding-window volume (0 = uniform small "
                        "traffic)")
    p.add_argument("--large-volume", type=int, nargs=3,
                   default=(16, 16, 16), metavar=("D", "H", "W"),
                   help="shape of the large mixed-workload volume")
    p.add_argument("--full-volume-max-voxels", type=int,
                   default=64 ** 3,
                   help="volumes above this spatial voxel count route "
                        "to sliding-window inference")
    p.add_argument("--patch-size", type=int, nargs=3,
                   default=(16, 16, 16), metavar=("D", "H", "W"),
                   help="sliding-window patch shape")
    p.add_argument("--overlap", type=float, default=0.5,
                   help="sliding-window patch overlap in [0, 1)")
    p.add_argument("--sw-batch-size", type=int, default=4,
                   help="patches per sliding-window model invocation "
                        "(the scatter-gather chunk size)")
    p.add_argument("--volume", type=int, nargs=3, default=(16, 16, 16),
                   metavar=("D", "H", "W"),
                   help="served volume shape (paper: 240 240 155)")
    p.add_argument("--channels", type=int, default=1,
                   help="input channels (paper: 4 modalities)")
    p.add_argument("--base-filters", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default=None,
                   help="serve this .npz checkpoint (model flags must "
                        "match its architecture; default: a synthetic "
                        "best-trial checkpoint built from the flags)")
    p.add_argument("--bench-dir", default="benchmarks",
                   help="where BENCH_serving.json lands (smoke: temp dir)")
    p.add_argument("--out", default=None,
                   help="explicit output path (overrides --bench-dir)")
    p.add_argument("--smoke", action="store_true",
                   help="write the quarantined *_smoke.json record "
                        "(also: DISTMIS_BENCH_SMOKE=1)")
    p.add_argument("--telemetry", metavar="DIR",
                   help="record manifest/metrics/trace into DIR")
    p.add_argument("--watch", action="store_true",
                   help="stream live snapshot/alert lines (serve_backlog "
                        "etc.) while the bench runs; requires --telemetry")
    p.add_argument("--live-port", type=int, default=None, metavar="PORT",
                   help="serve /metrics and /health on localhost during "
                        "the run (0 = any free port)")
    p.set_defaults(fn=cmd_serve_bench)

    p = sub.add_parser("summary", help="print the model's layer summary")
    p.add_argument("--base-filters", type=int, default=8)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--volume", type=int, nargs=3, default=(16, 16, 16),
                   metavar=("D", "H", "W"),
                   help="probe volume for output shapes (paper: 240 240 152)")
    p.add_argument("--transpose-keeps-channels", action="store_true",
                   help="use the 410k-parameter synthesis variant")
    p.set_defaults(fn=cmd_summary)

    p = sub.add_parser("report",
                       help="regenerate the full reproduction report")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write markdown here instead of stdout")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("calibrate", help="re-fit the cost model to Table I")
    p.set_defaults(fn=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    finally:
        while _policy_restores:
            _policy_restores.pop()()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
