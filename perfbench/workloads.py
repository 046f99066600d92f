"""The four workloads, driven through the program's public entry points.

The training workloads (``search_pool``, ``train_dp2``) time one
entry-point call and the intervals between the epoch reports it
streams; the serve workloads drive a :class:`repro.serve.ModelServer`
open loop on a seeded arrival schedule and time every request from
when it was *due*.  ``repro`` is imported inside functions only, so
``run.py`` can time the import as part of ``setup_s``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import spec
from .measure import SpanLog, arrival_schedule, cpu_seconds

now = time.monotonic  # the one clock of the harness (and of repro.serve)


@dataclass
class Pass:
    """What one timed instance of a workload produced."""

    wall_s: float
    cpu_s: float
    op_ms: list                 # user-visible operation times
    attempted: int
    failed: int
    check: object               # zero-arg callable -> list of problems
    layer: dict = field(default_factory=dict)   # per-layer numbers seen
    op_at: list | None = None   # serving: when each operation fell due, s


def import_program(workload: str) -> float:
    """Import the ``repro`` modules the workload needs; returns seconds."""
    t0 = now()
    import repro.core  # noqa: F401
    import repro.nn  # noqa: F401
    if spec.WORKLOADS[workload]["kind"] == spec.SERVE:
        import repro.serve  # noqa: F401
    return now() - t0


# == training workloads =====================================================
class ReportObserver:
    """The ``progress=`` observer of a search: when each epoch report of
    each trial reached the driver, and when trials started and ended."""

    def __init__(self):
        self.arrivals: dict[str, list[float]] = {}
        self.started: dict[str, float] = {}
        self.ended: dict[str, float] = {}
        self.finished_at: float | None = None

    def update(self, trials, in_flight=None, now=None):
        t = time.monotonic()
        for trial in trials:
            seen = self.arrivals.setdefault(trial.trial_id, [])
            seen.extend([t] * (len(trial.results) - len(seen)))
            status = trial.status.value
            if status != "pending":
                self.started.setdefault(trial.trial_id, t)
            if status in ("terminated", "stopped", "error"):
                self.ended.setdefault(trial.trial_id, t)

    def finish(self, trials):
        self.finished_at = time.monotonic()

    def first_report(self) -> float:
        return min(times[0] for times in self.arrivals.values() if times)


class EpochReporter:
    """The ``reporter=`` callable of ``train_trial``: keeps every report
    and when it arrived."""

    def __init__(self):
        self.arrivals: list[float] = []
        self.rows: list[dict] = []

    def __call__(self, **metrics) -> bool:
        self.arrivals.append(time.monotonic())
        self.rows.append(metrics)
        return True


def settings_for(workload: str, seed: int, epochs: int):
    from repro.core import ExperimentSettings

    w = spec.WORKLOADS[workload]
    side = w["volume"]
    return ExperimentSettings(
        num_subjects=w["subjects"], volume_shape=(side, side, side),
        epochs=epochs, base_filters=w["base_filters"], depth=w["depth"],
        seed=seed, data_seed=100 + seed)


def first_config(workload: str) -> dict:
    return {k: v[0] for k, v in spec.WORKLOADS[workload]["space"].items()}


def intervals_ms(arrivals) -> list[float]:
    return [(b - a) * 1e3 for a, b in zip(arrivals, arrivals[1:])]


def _run_search(workload: str, settings, space_axes: dict, record_dir: Path,
                observer: ReportObserver):
    """``distmis search --executor process --workers 2`` as a call."""
    from repro.core import HyperparameterSpace, MISPipeline
    from repro.core.experiment_parallel import run_search_inprocess
    from repro.nn import use_compute_dtype

    w = spec.WORKLOADS[workload]
    record_dir.mkdir(parents=True)
    with use_compute_dtype(w["dtype"]):
        pipeline = MISPipeline(settings, record_dir=record_dir)
        result = run_search_inprocess(
            HyperparameterSpace(space_axes), settings, pipeline=pipeline,
            executor="process", max_workers=w["workers"],
            progress=observer)
    return pipeline, result


def _run_train(workload: str, settings, config: dict, run_dir: Path,
               reporter: EpochReporter):
    """``distmis train --gpus 2`` as a call, checkpointing every epoch."""
    from repro.core import CheckpointManager, MISPipeline, train_trial

    records = run_dir / "records"
    records.mkdir(parents=True)
    pipeline = MISPipeline(settings, record_dir=records)
    manager = CheckpointManager(run_dir / "checkpoints")
    outcome = train_trial(
        config, settings, pipeline,
        num_replicas=spec.WORKLOADS[workload]["replicas"],
        reporter=reporter, checkpoint_manager=manager)
    return pipeline, manager, outcome


def training_first_result(workload: str, seed: int, run_dir: Path) -> float:
    """Cold time to first result: entry-point call on fresh inputs ->
    first epoch report (1 trial x 1 epoch)."""
    settings = settings_for(workload, seed, epochs=1)
    config = first_config(workload)
    t0 = now()
    if workload == "search_pool":
        observer = ReportObserver()
        _run_search(workload, settings, {k: [v] for k, v in config.items()},
                    run_dir / "records", observer)
        return observer.first_report() - t0
    reporter = EpochReporter()
    _run_train(workload, settings, config, run_dir, reporter)
    return reporter.arrivals[0] - t0


def training_pass(workload: str, seed: int, seconds: float, run_dir: Path,
                  spans: SpanLog | None) -> Pass:
    if workload == "search_pool":
        return _search_pool_pass(workload, seed, seconds, run_dir, spans)
    return _train_dp2_pass(workload, seed, seconds, run_dir, spans)


def _trace_reports(spans: SpanLog, parent: int, trace_id: str, start: float,
                   arrivals: list, layer: str) -> None:
    for k, t in enumerate(arrivals):
        spans.add(f"epoch {k}", layer, start, t, parent, trace_id)
        start = t


def _search_pool_pass(workload, seed, seconds, run_dir, spans) -> Pass:
    w = spec.WORKLOADS[workload]
    epochs = spec.epochs_for(workload, seconds)
    settings = settings_for(workload, seed, epochs)
    observer = ReportObserver()
    cpu0, t0 = cpu_seconds(), now()
    pipeline, result = _run_search(workload, settings, w["space"],
                                   run_dir / "records", observer)
    t1 = now()
    cpu_s = cpu_seconds() - cpu0
    trials = result.analysis.trials
    if spans is not None:
        root = spans.add("run_search_inprocess", "core", t0, t1)
        for trial in trials:
            tid = trial.trial_id
            start = observer.started.get(tid, t0)
            node = spans.add(tid, "execpool", start,
                             observer.ended.get(tid, t1), root, tid)
            _trace_reports(spans, node, tid, start,
                           observer.arrivals.get(tid, []), "nn")
        spans.add("pool shutdown", "execpool",
                  observer.finished_at or t1, t1, root)
    op_ms = [ms for times in observer.arrivals.values()
             for ms in intervals_ms(times)]
    attempted = len(trials) * epochs
    reported = sum(min(len(t.results), epochs) for t in trials
                   if t.status.value == "terminated")
    busy = sum(o.wall_seconds for o in result.outcomes)

    def check() -> list[str]:
        problems = []
        for trial in trials:
            rows = trial.results
            if trial.status.value != "terminated" or len(rows) != epochs:
                problems.append(f"{trial.trial_id}: {trial.status.value} "
                                f"with {len(rows)}/{epochs} reports")
            elif not all(math.isfinite(r["train_loss"])
                         and math.isfinite(r["val_dice"]) for r in rows):
                problems.append(f"{trial.trial_id}: non-finite history")
        problems += _replay_first_epochs(workload, settings, pipeline,
                                         trials[0])
        return problems

    return Pass(wall_s=t1 - t0, cpu_s=cpu_s, op_ms=op_ms,
                attempted=attempted, failed=attempted - reported,
                check=check,
                layer={"execpool.worker_busy_share":
                       busy / (w["workers"] * (t1 - t0))})


def _replay_first_epochs(workload, settings, pipeline, trial) -> list[str]:
    """Serial, in-process, same dtype: trial 0's first two epochs must
    equal the pool's first two reports bit for bit."""
    from repro.core import train_trial
    from repro.nn import use_compute_dtype

    rows: list[tuple] = []

    def reporter(**m) -> bool:
        rows.append((m["train_loss"], m["val_dice"]))
        return len(rows) < 2

    with use_compute_dtype(spec.WORKLOADS[workload]["dtype"]):
        train_trial(dict(trial.config), settings, pipeline, num_replicas=1,
                    reporter=reporter)
    pooled = [(r["train_loss"], r["val_dice"]) for r in trial.results[:2]]
    if rows != pooled:
        return [f"serial replay {rows} != pool reports {pooled}"]
    return []


def _train_dp2_pass(workload, seed, seconds, run_dir, spans) -> Pass:
    epochs = spec.epochs_for(workload, seconds)
    settings = settings_for(workload, seed, epochs)
    config = first_config(workload)
    reporter = EpochReporter()
    cpu0, t0 = cpu_seconds(), now()
    pipeline, manager, outcome = _run_train(workload, settings, config,
                                            run_dir, reporter)
    t1 = now()
    cpu_s = cpu_seconds() - cpu0
    if spans is not None:
        root = spans.add("train_trial", "core", t0, t1, trace_id="trial")
        _trace_reports(spans, root, "trial", t0, reporter.arrivals, "raysim")
    rows = reporter.rows

    def check() -> list[str]:
        from repro.core import build_model, load_checkpoint
        from repro.nn import batch_dice

        if len(rows) != epochs:
            return [f"{len(rows)}/{epochs} epoch reports"]
        losses = [r["train_loss"] for r in rows]
        if not all(math.isfinite(v) for v in losses):
            return ["non-finite train loss"]
        problems = []
        if not losses[-1] < losses[0]:
            problems.append(f"train loss did not fall: {losses[0]} -> "
                            f"{losses[-1]}")
        model = build_model(config, settings)
        load_checkpoint(manager.latest_path(), model)
        val_x, val_y = pipeline.load_split_arrays("val")
        dice = float(batch_dice(model.predict(val_x), val_y).mean())
        if dice != rows[-1]["val_dice"]:
            problems.append(f"checkpoint val_dice {dice!r} != last report "
                            f"{rows[-1]['val_dice']!r}")
        return problems

    return Pass(wall_s=t1 - t0, cpu_s=cpu_s,
                op_ms=intervals_ms(reporter.arrivals), attempted=epochs,
                failed=epochs - min(len(rows), epochs), check=check)


# == serve workloads ========================================================
@dataclass
class ServeInputs:
    """Everything the seed generates for a serve workload."""

    config: object              # repro.serve.ServeConfig
    small: list
    large: list
    due: np.ndarray
    large_every: int
    behind_s: float = 0.0       # > 0: time only small requests due this
                                # soon behind a large one

    def volume(self, index: int) -> tuple[np.ndarray, bool, int]:
        """``(volume, is_large, slot)`` of the ``index``-th request."""
        every = self.large_every
        if every and (index + 1) % every == 0:
            slot = (index // every) % len(self.large)
            return self.large[slot], True, slot
        slot = index % len(self.small)
        return self.small[slot], False, slot


def serve_inputs(workload: str, seed: int, seconds: float,
                 run_dir: Path) -> ServeInputs:
    from repro.core import CheckpointManager
    from repro.nn import UNet3D
    from repro.serve import ServeConfig

    w = spec.WORKLOADS[workload]
    rng = np.random.default_rng([int(seed), 0x5E12])
    model = UNet3D(rng=np.random.default_rng(seed), **spec.SERVE_MODEL)
    manager = CheckpointManager(run_dir / "checkpoint")
    manager.save(model, epoch=0, val_dice=1.0)
    ch = spec.SERVE_MODEL["in_channels"]
    small = [rng.normal(size=(ch,) + (spec.SMALL_SIDE,) * 3)
             for _ in range(spec.SMALL_VOLUMES)]
    large = [rng.normal(size=(ch,) + (spec.LARGE_SIDE,) * 3)
             for _ in range(spec.LARGE_VOLUMES)] if w["large_every"] else []
    config = ServeConfig(
        checkpoint=str(manager.best_path), model_builder=UNet3D,
        model_kwargs=dict(spec.SERVE_MODEL), replicas=spec.SERVE_REPLICAS,
        full_volume_max_voxels=spec.SMALL_SIDE ** 3)
    return ServeInputs(config=config, small=small, large=large,
                       due=arrival_schedule(seed, w["rate"], seconds),
                       large_every=w["large_every"],
                       behind_s=w.get("behind_ms", 0.0) / 1e3)


def serve_first_result(inputs: ServeInputs) -> float:
    """Cold time to first result: ``ModelServer(...)`` -> first response."""
    from repro.serve import ModelServer

    t0 = now()
    server = ModelServer(inputs.config)
    try:
        future = server.submit(inputs.small[0])
        server.drain(timeout_s=60.0)
        future.result()
        return now() - t0
    finally:
        server.close()


@dataclass
class Request:
    index: int
    large: bool
    slot: int
    due: float
    sent: float                 # submit() entered
    admitted: float             # submit() returned
    future: object
    done: float | None = None   # the loop saw the response


GIVE_UP_S = 30.0   # after the last due time; the rest stay unanswered


def drive_open_loop(server, inputs, spans: SpanLog | None = None,
                    clock=time.monotonic, sleep=time.sleep):
    """Send on the schedule whatever the responses do (open loop).

    A request is submitted at the first loop turn at or after its due
    time and its latency runs from the *due* time, so a stall charges
    the wait it imposes on every request behind it.  Pacing matches
    ``repro.serve.bench.run_serve_bench``: step, then sleep to the next
    arrival or batch deadline, 5 ms at most.  Returns the requests in
    send order (``due`` on the loop's clock); those still unanswered
    ``GIVE_UP_S`` after the last due time stay ``done=None``.
    """
    due = inputs.due
    n = len(due)
    start = clock() + 0.05      # head room: request 0 is not born late
    requests: list[Request] = []
    waiting: list[Request] = []
    loop = None if spans is None else spans.add(
        "open loop", "bench", start, start)
    sent = 0
    while sent < n or waiting:
        t = clock()
        while sent < n and start + due[sent] <= t:
            volume, large, slot = inputs.volume(sent)
            t_in = clock()
            future = server.submit(volume)
            req = Request(sent, large, slot, start + due[sent], t_in,
                          clock(), future)
            requests.append(req)
            waiting.append(req)
            sent += 1
        t_in = clock()
        server.step()
        t_out = clock()
        if spans is not None:
            spans.add("step", "serve", t_in, t_out, loop)
        for req in waiting:
            if req.future.done():
                req.done = t_out
        waiting = [req for req in waiting if req.done is None]
        if sent == n and t_out > start + due[-1] + GIVE_UP_S:
            break
        next_send = start + due[sent] if sent < n else math.inf
        deadline = server.batcher.next_deadline()
        wake = min(next_send, math.inf if deadline is None else deadline)
        pause = min(0.005, wake - clock())
        if pause > 0:
            sleep(pause)
    if spans is not None:
        spans.spans[loop]["end"] = clock()
    return requests


_PHASES = (("queue_wait", "serve"), ("batch_wait", "execpool"),
           ("dispatch", "execpool"), ("compute", "nn"), ("stitch", "core"))


def _trace_request(spans: SpanLog, req: Request, response) -> None:
    """One request: late -> submit -> the response's five public phase
    fields laid end to end from admission -> detection lag."""
    tid = response.trace_id or f"req{req.index}"
    root = spans.add("large request" if req.large else "small request",
                     "serve", req.due, req.done, trace_id=tid)
    spans.add("late", "bench", req.due, req.sent, root, tid)
    spans.add("submit", "serve", req.sent, req.admitted, root, tid)
    t = req.admitted
    for phase, layer in _PHASES:
        seconds = getattr(response, phase + "_s")
        spans.add(phase, layer, t, t + seconds, root, tid)
        t += seconds
    spans.add("detect", "bench", min(t, req.done), req.done, root, tid)


def serve_pass(inputs: ServeInputs, spans: SpanLog | None) -> Pass:
    from repro.serve import ModelServer

    cpu0 = cpu_seconds()
    t_up = now()
    server = ModelServer(inputs.config)
    try:
        # fill the replicas' lazy state (arena, first-shape costs) before
        # timing: a user of a running server never pays it
        warm = [server.submit(v) for v in inputs.large * 2 + inputs.small]
        server.drain(timeout_s=120.0)
        for future in warm:
            future.result()
        t_warm = now()
        requests = drive_open_loop(server, inputs, spans)
        t_loop = now()
    finally:
        server.close()
    t_down = now()
    cpu_s = cpu_seconds() - cpu0
    if spans is not None:
        spans.add("ModelServer + warm-up", "serve", t_up, t_warm)
        spans.add("close", "execpool", t_loop, t_down)

    answered = []               # (request, response)
    failed = 0
    for req in requests:
        try:
            if req.done is None:
                raise RuntimeError("unanswered")
            response = req.future.result()   # raises if errored or shed
        except RuntimeError:
            failed += 1
            continue
        answered.append((req, response))
        limit = spec.LARGE_LIMIT_MS if req.large else spec.SMALL_LIMIT_MS
        if (req.done - req.due) * 1e3 > limit:
            failed += 1
        if spans is not None:
            _trace_request(spans, req, response)
    large = [(q, r) for q, r in answered if q.large]
    ops = timed_operations(inputs, requests, answered)
    last = max((q.done for q, _ in answered), default=t_loop)
    wall_s = last - requests[0].due

    def med_ms(values) -> float:
        return float(np.median(values)) * 1e3 if len(values) else 0.0

    layer = {
        "serve.submit_us": med_ms([q.admitted - q.sent for q, _ in ops])
        * 1e3,
        "serve.submit_large_ms": med_ms([q.admitted - q.sent
                                         for q, _ in large]),
        "serve.queue_wait_ms": med_ms([r.queue_wait_s for _, r in ops]),
        "serve.batch_wait_ms": med_ms([r.batch_wait_s for _, r in ops]),
        "serve.dispatch_ms": med_ms([r.dispatch_s for _, r in ops]),
        "serve.compute_ms": med_ms([r.compute_s for _, r in ops]),
        "serve.stitch_ms": med_ms([r.stitch_s for _, r in ops]),
        "serve.batch_size_mean": float(np.mean(
            [r.batch_size for _, r in ops])) if ops else 0.0,
        "serve.large_p50_ms": med_ms([q.done - q.due for q, _ in large]),
        "serve.late_ms": med_ms([q.sent - q.due for q, _ in answered]),
        # full-volume responses of one batch all carry the batch's model
        # seconds; a scattered response carries its own chunks'
        "execpool.worker_busy_share": sum(
            r.model_seconds / (1 if q.large else r.batch_size)
            for q, r in answered) / (spec.SERVE_REPLICAS * wall_s),
    }
    if spans is not None:
        steps = [s["end"] - s["start"] for s in spans.spans
                 if s["name"] == "step"]
        layer["serve.step_us"] = med_ms(steps) * 1e3

    def check() -> list[str]:
        return _check_responses(inputs, answered)

    return Pass(wall_s=wall_s, cpu_s=cpu_s,
                op_ms=[(q.done - q.due) * 1e3 for q, _ in ops],
                attempted=len(requests), failed=failed, check=check,
                layer=layer,
                op_at=[q.due - requests[0].due for q, _ in ops])


def timed_operations(inputs: ServeInputs, requests, answered) -> list:
    """The ``(request, response)`` pairs whose due -> response time is
    the workload's user-visible operation: the answered small requests,
    or with ``behind_s`` only those due that soon behind a large one --
    the requests a fan-out delays.  The choice depends on the schedule
    alone, never on how the server behaved."""
    small = [(q, r) for q, r in answered if not q.large]
    if not inputs.behind_s:
        return small
    large_due = np.array([q.due for q in requests if q.large])
    return [(q, r) for q, r in small
            if np.any((large_due <= q.due)
                      & (q.due < large_due + inputs.behind_s))]


def _check_responses(inputs: ServeInputs, answered) -> list[str]:
    """Every response equals offline inference on a model loaded from
    the same checkpoint, bit for bit."""
    from repro.core import (full_volume_inference, load_checkpoint,
                            sliding_window_inference)
    from repro.nn import UNet3D

    cfg = inputs.config
    model = UNet3D(**spec.SERVE_MODEL)
    load_checkpoint(cfg.checkpoint, model)
    want_small = [full_volume_inference(model, v[None]).prediction[0]
                  for v in inputs.small]
    want_large = [sliding_window_inference(
        model, v[None], patch_shape=tuple(cfg.patch_shape),
        overlap=cfg.overlap, batch_size=cfg.sw_batch_size).prediction[0]
        for v in inputs.large]
    wrong = [req.index for req, response in answered
             if not np.array_equal(
                 response.prediction,
                 (want_large if req.large else want_small)[req.slot])]
    if wrong:
        return [f"{len(wrong)} responses differ from offline inference "
                f"(first: request {wrong[0]})"]
    return []
