"""Step-time attribution and bottleneck analysis.

Turns "the run felt slow" into "this run was 63% input-bound, binarise
your data".  Three pieces:

* :class:`StepAttribution` -- wall-clock split of training steps into
  the four buckets instrumented across the stack (``data_wait`` in
  :func:`repro.core.pipeline.train_trial`, ``compute`` in
  :class:`repro.raysim.sgd.DataParallelTrainer`, ``sync`` in
  :func:`repro.raysim.sgd.ring_allreduce`, ``checkpoint``
  around :class:`repro.fault_tolerance.CheckpointManager` saves).
  ``from_cost_model`` derives the same split analytically from
  :class:`repro.perf.costs.StepCostModel`, which is how measured
  fractions are pinned against the simulator in tests and how simulated
  runs are profiled at all.
* :func:`analyze` -- a pure function over the aggregated
  :class:`ProfileData` producing a :class:`BottleneckReport` (verdict,
  input-bound %, sync-overhead %, straggler workers, per-trial
  GPU-second accounting).
* :class:`ProgressReporter` -- a Tune-style live console table rendered
  from the driver's trial state during a search.

The paper's two load-bearing claims surface directly: C1 (experiment
parallelism pays zero gradient-sync overhead) shows as
``sync_overhead_pct == 0`` for 1-replica trials, and C3 (raw NIfTI
decode dominates the input pipeline) shows as the input-bound %
collapsing when the pipeline switches from online NIfTI decoding to
binarised records.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = ["STEP_BUCKETS", "StepAttribution", "ProfileData",
           "BottleneckReport", "analyze", "analyze_run_dir",
           "build_profile_data", "ProgressReporter"]

STEP_BUCKETS = ("data_wait", "compute", "sync", "checkpoint")

# Verdict thresholds (fractions of attributed step time).
INPUT_BOUND_AT = 0.40
SYNC_BOUND_AT = 0.25
CHECKPOINT_BOUND_AT = 0.25
# A worker whose mean seconds-per-task exceeds the fleet median by this
# factor is flagged as a straggler.
STRAGGLER_FACTOR = 1.5


@dataclass(frozen=True)
class StepAttribution:
    """Seconds of training-step wall-clock attributed to each bucket."""

    data_wait: float = 0.0
    compute: float = 0.0
    sync: float = 0.0
    checkpoint: float = 0.0

    @property
    def total(self) -> float:
        return self.data_wait + self.compute + self.sync + self.checkpoint

    def fraction(self, bucket: str) -> float:
        if bucket not in STEP_BUCKETS:
            raise ValueError(f"unknown step bucket {bucket!r}")
        total = self.total
        return getattr(self, bucket) / total if total > 0 else 0.0

    @property
    def input_bound_fraction(self) -> float:
        return self.fraction("data_wait")

    @property
    def sync_overhead_fraction(self) -> float:
        return self.fraction("sync")

    def __add__(self, other: "StepAttribution") -> "StepAttribution":
        return StepAttribution(
            data_wait=self.data_wait + other.data_wait,
            compute=self.compute + other.compute,
            sync=self.sync + other.sync,
            checkpoint=self.checkpoint + other.checkpoint,
        )

    def as_dict(self) -> dict:
        return {b: getattr(self, b) for b in STEP_BUCKETS}

    @classmethod
    def from_dict(cls, d: dict) -> "StepAttribution":
        return cls(**{b: float(d.get(b, 0.0)) for b in STEP_BUCKETS})

    @classmethod
    def from_samples(cls, rows) -> "StepAttribution":
        """Read the ``step_bucket_seconds_total`` counter out of metric
        sample rows (:meth:`MetricsRegistry.samples` format)."""
        att = cls()
        for row in rows:
            if row.get("name") != "step_bucket_seconds_total":
                continue
            bucket = row.get("labels", {}).get("bucket")
            if bucket in STEP_BUCKETS:
                att = replace(att, **{
                    bucket: getattr(att, bucket) + float(row["value"])})
        return att

    @classmethod
    def from_cost_model(cls, model, config, num_gpus: int,
                        include_checkpoint: bool = True
                        ) -> "StepAttribution":
        """The analytic per-step split the simulator's
        :class:`~repro.perf.costs.StepCostModel` implies.

        Decomposes ``model.step_time`` exactly: ``compute`` is the pure
        forward+backward, ``sync`` is everything the barrier adds on top
        (straggler inflation + all-reduce wire time + framework
        overhead -- identically zero at ``num_gpus == 1``, claim C1),
        ``data_wait`` is the input copy, and ``checkpoint`` amortises
        the fixed per-epoch cost over the epoch's steps, so that
        ``total == step_time + epoch_fixed_s / steps_per_epoch``.
        """
        from ..cluster.collectives import allreduce_time

        compute = model.step_compute_time(config)
        sync = 0.0
        if num_gpus > 1:
            comm = allreduce_time(
                model.gradient_bytes(config), num_gpus,
                model.cluster.node.num_gpus,
                model.cluster.node.intra_link, model.cluster.inter_link)
            sync = (compute * (model.sync_factor(num_gpus) - 1.0)
                    + comm + model.framework_overhead(num_gpus))
        checkpoint = 0.0
        if include_checkpoint:
            checkpoint = (model.params.epoch_fixed_s
                          / model.steps_per_epoch(config, num_gpus))
        return cls(data_wait=model.input_time(config), compute=compute,
                   sync=sync, checkpoint=checkpoint)


@dataclass
class ProfileData:
    """The aggregated profile of one run: what ``profile.json`` holds
    and what :func:`analyze` consumes."""

    attribution: StepAttribution = field(default_factory=StepAttribution)
    stage_seconds: dict = field(default_factory=dict)
    stage_elements: dict = field(default_factory=dict)
    workers: list = field(default_factory=list)
    trials: list = field(default_factory=list)
    # "backend/op" -> seconds inside dispatched convolution kernels; a
    # finer-grained split of the compute bucket (kernel_seconds_total).
    kernels: dict = field(default_factory=dict)
    source: str = "measured"

    def to_dict(self) -> dict:
        return {
            "buckets": self.attribution.as_dict(),
            "stages": {
                stage: {
                    "seconds": self.stage_seconds[stage],
                    "elements": self.stage_elements.get(stage, 0),
                }
                for stage in sorted(self.stage_seconds)
            },
            "workers": self.workers,
            "trials": self.trials,
            "kernels": {k: self.kernels[k] for k in sorted(self.kernels)},
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProfileData":
        stages = d.get("stages", {})
        return cls(
            attribution=StepAttribution.from_dict(d.get("buckets", {})),
            stage_seconds={s: v["seconds"] for s, v in stages.items()},
            stage_elements={s: v.get("elements", 0)
                            for s, v in stages.items()},
            workers=list(d.get("workers", [])),
            trials=list(d.get("trials", [])),
            kernels={k: float(v)
                     for k, v in d.get("kernels", {}).items()},
            source=d.get("source", "measured"),
        )

    @classmethod
    def from_samples(cls, rows, pids=None) -> "ProfileData":
        """Step buckets, input-pipeline stages, worker accounting and
        kernel time out of metric sample rows
        (:meth:`MetricsRegistry.samples` format, or the lines of a run's
        ``metrics.jsonl``).  ``pids`` maps worker ids to process ids
        (a worker it does not name gets pid ``None``, unknown); trials
        come from spans, so they are left to the caller."""
        pids = pids or {}
        stage_seconds: dict = {}
        stage_elements: dict = {}
        busy: dict = {}
        tasks: dict = {}
        kernels: dict = {}
        for row in rows:
            name, labels = row.get("name"), row.get("labels", {})
            if name == "pipeline_stage_seconds_total":
                stage_seconds[labels["stage"]] = float(row["value"])
            elif name == "pipeline_stage_elements_total":
                stage_elements[labels["stage"]] = int(row["value"])
            elif name == "execpool_worker_busy_seconds":
                busy[labels["worker"]] = float(row["value"])
            elif name == "execpool_tasks_total":
                tasks[labels["worker"]] = int(row["value"])
            elif name == "kernel_seconds_total":
                key = f"{labels.get('backend', '?')}/{labels.get('op', '?')}"
                kernels[key] = kernels.get(key, 0.0) + float(row["value"])
        workers = [
            {
                "worker_id": int(w),
                "pid": pids.get(w),
                "busy_seconds": busy.get(w, 0.0),
                "tasks": tasks.get(w, 0),
            }
            for w in sorted(set(busy) | set(tasks), key=int)
        ]
        return cls(attribution=StepAttribution.from_samples(rows),
                   stage_seconds=stage_seconds,
                   stage_elements=stage_elements, workers=workers,
                   kernels=kernels)


def build_profile_data(hub) -> ProfileData:
    """Assemble the run profile from a live hub: merged metric samples
    (driver + worker frames), per-trial spans and worker accounting."""
    pids = {}
    if getattr(hub, "aggregator", None) is not None:
        pids = {str(w["worker_id"]): w["pid"]
                for w in hub.aggregator.workers()}
    data = ProfileData.from_samples(hub.merged_samples(), pids)
    measured = data.attribution.total > 0
    for extra in getattr(hub, "_attributions", ()):
        data.attribution = data.attribution + extra
    data.trials = [
        {
            "trial_id": s.name,
            "seconds": s.duration,
            "worker": s.attrs.get("worker"),
            "gpu_seconds": s.duration * int(s.attrs.get("num_gpus", 1)),
        }
        for s in hub.tracer.closed_spans() if s.category == "trial"
    ]
    if not measured and getattr(hub, "_attributions", ()):
        data.source = "cost_model"
    return data


@dataclass
class BottleneckReport:
    """The analyzer's verdict over one run profile."""

    attribution: StepAttribution
    input_bound_pct: float
    compute_pct: float
    sync_overhead_pct: float
    checkpoint_pct: float
    verdict: str
    stragglers: list
    workers: list
    trials: list
    gpu_seconds_total: float
    top_stages: list
    kernels: dict = field(default_factory=dict)
    source: str = "measured"

    def render(self) -> str:
        att = self.attribution
        lines = [f"bottleneck report (source: {self.source})",
                 f"step-time attribution over {att.total:.3f} s:"]
        pcts = {"data_wait": self.input_bound_pct,
                "compute": self.compute_pct,
                "sync": self.sync_overhead_pct,
                "checkpoint": self.checkpoint_pct}
        for bucket in STEP_BUCKETS:
            lines.append(f"  {bucket:<11} {getattr(att, bucket):>10.3f} s"
                         f"  {pcts[bucket]:>5.1f}%")
        lines.append(f"verdict: {self.verdict}")
        if self.kernels:
            total_k = sum(self.kernels.values())
            lines.append(
                f"convolution kernels ({total_k:.3f} s incl. validation "
                "passes, by backend/op):")
            for key in sorted(self.kernels, key=lambda k: -self.kernels[k]):
                lines.append(f"  {key:<36} {self.kernels[key]:>10.3f} s")
        if self.top_stages:
            lines.append("input-pipeline stages (by wall-clock):")
            for stage, seconds, elements in self.top_stages:
                per = seconds / elements * 1e3 if elements else math.nan
                lines.append(f"  {stage:<16} {seconds:>10.3f} s  "
                             f"{elements:>7d} el  {per:>8.3f} ms/el")
        if self.workers:
            lines.append("workers:")
            for w in self.workers:
                per = (w["busy_seconds"] / w["tasks"]
                       if w["tasks"] else math.nan)
                flag = "  <- straggler" \
                    if w["worker_id"] in self.stragglers else ""
                pid = "unknown" if w["pid"] is None else w["pid"]
                lines.append(
                    f"  worker {w['worker_id']} (pid {pid}): "
                    f"{w['tasks']} tasks, {w['busy_seconds']:.2f} s busy, "
                    f"{per:.2f} s/task{flag}")
        if self.trials:
            lines.append(
                f"per-trial GPU seconds (total {self.gpu_seconds_total:.2f}):")
            for t in sorted(self.trials, key=lambda t: t["trial_id"]):
                lines.append(f"  {t['trial_id']:<12} "
                             f"{t['gpu_seconds']:>8.2f}")
        return "\n".join(lines)


def analyze(data: ProfileData) -> BottleneckReport:
    """Pure function: aggregated profile in, verdict out."""
    att = data.attribution
    pct = {b: att.fraction(b) * 100.0 for b in STEP_BUCKETS}

    if att.total <= 0:
        verdict = "no step time recorded -- run with profiling enabled"
    elif att.input_bound_fraction >= INPUT_BOUND_AT:
        verdict = (f"input-bound ({pct['data_wait']:.0f}% waiting on "
                   "data) -- binarise your dataset offline (claim C3)")
    elif att.sync_overhead_fraction >= SYNC_BOUND_AT:
        verdict = (f"sync-bound ({pct['sync']:.0f}% in gradient "
                   "synchronisation) -- prefer experiment parallelism "
                   "over data parallelism (claim C1)")
    elif att.fraction("checkpoint") >= CHECKPOINT_BOUND_AT:
        verdict = (f"checkpoint-bound ({pct['checkpoint']:.0f}% "
                   "saving state) -- lower the checkpoint cadence")
    else:
        verdict = (f"compute-bound ({pct['compute']:.0f}% in "
                   "forward/backward) -- the accelerator is the "
                   "bottleneck; scale out trials")

    stragglers: list = []
    rates = {w["worker_id"]: w["busy_seconds"] / w["tasks"]
             for w in data.workers if w["tasks"]}
    if len(rates) >= 2:
        ordered = sorted(rates.values())
        median = ordered[len(ordered) // 2]
        if median > 0:
            stragglers = sorted(w for w, r in rates.items()
                                if r > STRAGGLER_FACTOR * median)

    top_stages = sorted(
        ((s, sec, data.stage_elements.get(s, 0))
         for s, sec in data.stage_seconds.items()),
        key=lambda row: -row[1])

    return BottleneckReport(
        attribution=att,
        input_bound_pct=pct["data_wait"],
        compute_pct=pct["compute"],
        sync_overhead_pct=pct["sync"],
        checkpoint_pct=pct["checkpoint"],
        verdict=verdict,
        stragglers=stragglers,
        workers=list(data.workers),
        trials=list(data.trials),
        gpu_seconds_total=sum(t.get("gpu_seconds", 0.0)
                              for t in data.trials),
        top_stages=top_stages,
        kernels=dict(data.kernels),
        source=data.source,
    )


def analyze_run_dir(run_dir) -> BottleneckReport:
    """Analyze a run directory produced by ``--profile DIR``.

    Prefers ``profile.json``; falls back to reconstructing the profile
    from ``metrics.jsonl`` + ``trace.json`` for runs recorded with plain
    ``--telemetry``.
    """
    run_dir = Path(run_dir)
    profile_path = run_dir / "profile.json"
    if profile_path.exists():
        data = ProfileData.from_dict(json.loads(profile_path.read_text()))
        return analyze(data)

    metrics_path = run_dir / "metrics.jsonl"
    if not metrics_path.exists():
        raise FileNotFoundError(
            f"{run_dir} holds neither profile.json nor metrics.jsonl -- "
            "record the run with --profile DIR (or --telemetry DIR)")
    # metrics.jsonl carries no pids: the workers render as pid unknown
    data = ProfileData.from_samples(
        [json.loads(line)
         for line in metrics_path.read_text().splitlines() if line])
    trace_path = run_dir / "trace.json"
    if trace_path.exists():
        for ev in json.loads(trace_path.read_text()):
            if ev.get("ph") == "X" and ev.get("cat") == "trial":
                data.trials.append({
                    "trial_id": ev["name"],
                    "seconds": ev["dur"] / 1e6,
                    "worker": ev.get("args", {}).get("worker"),
                    "gpu_seconds": ev["dur"] / 1e6 * int(
                        ev.get("args", {}).get("num_gpus", 1)),
                })
    return analyze(data)


class ProgressReporter:
    """Tune-style live console table for a running search.

    Rate-limited (at most one table per ``interval_s``) so per-epoch
    report streams don't flood the terminal; in-flight trials render
    their running time via :meth:`Span.elapsed`.
    """

    def __init__(self, stream=None, interval_s: float = 2.0,
                 clock=time.monotonic):
        self._stream = stream if stream is not None else sys.stdout
        self._interval = interval_s
        self._clock = clock
        self._last = -math.inf
        self.renders = 0

    def render(self, trials, in_flight=None, now: float | None = None) -> str:
        in_flight = in_flight or {}
        counts: dict = {}
        for t in trials:
            counts[t.status.value] = counts.get(t.status.value, 0) + 1
        head = " | ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        lines = [f"== trials ({head}) ==",
                 f"{'trial':<12} {'status':<11} {'iter':>4} "
                 f"{'val_dice':>9} {'elapsed_s':>9}"]
        for t in trials:
            last = t.results[-1] if t.results else {}
            dice = last.get("val_dice")
            span = in_flight.get(t.trial_id)
            if span is not None:
                elapsed = span.elapsed(now)
            elif t.status.value in ("terminated", "stopped", "error"):
                elapsed = t.runtime_s
            else:
                elapsed = None
            lines.append(
                f"{t.trial_id:<12} {t.status.value:<11} "
                f"{len(t.results):>4} "
                f"{dice if dice is None else format(dice, '.4f')!s:>9} "
                f"{elapsed if elapsed is None else format(elapsed, '.1f')!s:>9}")
        return "\n".join(lines)

    def update(self, trials, in_flight=None, now: float | None = None,
               force: bool = False) -> None:
        if not force and self._clock() - self._last < self._interval:
            return
        self._last = self._clock()
        self.renders += 1
        self._stream.write(self.render(trials, in_flight, now) + "\n")
        if hasattr(self._stream, "flush"):
            self._stream.flush()

    def finish(self, trials, now: float | None = None) -> None:
        self.update(trials, in_flight=None, now=now, force=True)
