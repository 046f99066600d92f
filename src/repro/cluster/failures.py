"""Failure injection for simulated cluster runs.

Shared HPC clusters lose GPUs mid-run (ECC errors, preemption, node
reboots).  This module injects exponential-lifetime failures into the
experiment-parallel placement so the fault-tolerance story can be
quantified: a failed trial loses its un-checkpointed progress, waits
out the repair, and re-queues.

Checkpoint semantics mirror the in-process runner
(:func:`repro.raysim.tune.tune_run`): with ``num_epochs`` set, progress
is preserved at *discrete epoch boundaries* -- exactly what a
:class:`repro.core.checkpoint.CheckpointManager` saving once per epoch
gives you -- under the same :class:`repro.fault_tolerance.RetryPolicy`
(``resume="scratch"`` discards everything, ``max_retries`` caps the
attempts before a trial is abandoned).  Without ``num_epochs`` every
retry restarts from scratch.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..fault_tolerance import RetryPolicy
from .trace import Timeline

__all__ = [
    "FailureModel",
    "FailureRunResult",
    "RetryRecord",
    "run_with_failures",
    "expected_slowdown",
]


@dataclass(frozen=True)
class FailureModel:
    """Exponential failures: a running task on one GPU fails with rate
    ``1 / mtbf_s``; a failure costs ``repair_s`` before the work can be
    retried on the (repaired) device."""

    mtbf_s: float
    repair_s: float = 300.0

    def __post_init__(self):
        if self.mtbf_s <= 0:
            raise ValueError("mtbf_s must be positive")
        if self.repair_s < 0:
            raise ValueError("repair_s must be >= 0")


@dataclass(frozen=True)
class RetryRecord:
    """One failed attempt of one trial (also embedded in the Timeline's
    ``failure`` events, so the Chrome trace shows every retry)."""

    trial: str
    attempt: int
    failed_at_s: float
    kept_work_s: float
    lost_work_s: float
    resumed_epoch: int | None = None


@dataclass
class FailureRunResult:
    makespan: float
    num_failures: int
    wasted_seconds: float
    timeline: Timeline
    num_abandoned: int = 0
    retries: list[RetryRecord] = field(default_factory=list)

    def attempts(self) -> dict[str, int]:
        """Per-trial attempt count (1 = finished first try)."""
        out: dict[str, int] = {}
        for ev in self.timeline.events:
            base = ev.name.replace("_abandoned", "").replace("_fail", "")
            out[base] = max(out.get(base, 0), ev.meta.get("attempt", 0) + 1)
        return out


def run_with_failures(
    durations: list[float],
    num_gpus: int,
    failure_model: FailureModel,
    seed: int = 0,
    per_trial_overhead: float = 0.0,
    num_epochs: int | Sequence[int] | None = None,
    retry_policy: RetryPolicy | None = None,
) -> FailureRunResult:
    """Experiment-parallel placement under failures.

    Trials start in submission order on the lowest free GPU (Ray Tune's
    FIFO runner); a GPU that frees up goes to the longest-waiting trial.
    Each attempt of trial ``i`` samples an exponential failure time when
    it starts; if it lands inside the remaining work, the attempt aborts
    there and its GPU is held for the repair.  The repaired GPU then
    goes to the head of the queue and the crashed trial re-queues at
    the back (or restarts at once when nobody waits).

    Progress preserved across attempts: with ``num_epochs`` set (an
    int, or one per trial) the trial's work is ``num_epochs`` equal
    epochs and a failure rolls back to the last completed epoch boundary
    (per-epoch checkpoints); otherwise every retry restarts from scratch.

    ``retry_policy`` (default: unlimited checkpoint-resume attempts)
    caps attempts at ``max_retries + 1`` -- a trial that exhausts them
    is *abandoned* (an ``abandoned`` timeline event, counted in
    ``num_abandoned``) -- and ``resume="scratch"`` discards all progress
    on every failure.  Every failed attempt is recorded as a
    :class:`RetryRecord` in ``retries`` and as a ``failure`` event in
    the timeline, so retry behaviour is visible in the Chrome trace.
    Each attempt is recorded on its GPU's lane (``gpu<k>``).
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if any(d < 0 for d in durations):
        raise ValueError("durations must be non-negative")
    if isinstance(num_epochs, (list, tuple)):
        if len(num_epochs) != len(durations):
            raise ValueError("num_epochs list must match durations")
        epochs_per_trial = [int(e) for e in num_epochs]
    elif num_epochs is not None:
        epochs_per_trial = [int(num_epochs)] * len(durations)
    else:
        epochs_per_trial = None
    if epochs_per_trial is not None and any(e < 1 for e in epochs_per_trial):
        raise ValueError("num_epochs must be >= 1")
    scratch = retry_policy is not None and retry_policy.resume == "scratch"
    max_attempts = retry_policy.max_attempts if retry_policy else None

    rng = np.random.default_rng(seed)
    timeline = Timeline()
    retries: list[RetryRecord] = []
    num_failures = num_abandoned = 0
    wasted = 0.0
    # checkpointed work units and attempt number carried across attempts
    done = [0.0] * len(durations)
    attempt = [0] * len(durations)
    epoch_len = [
        d / epochs_per_trial[i] if epochs_per_trial is not None and d > 0
        else None
        for i, d in enumerate(durations)
    ]
    # (time, seq, kind, trial, gpu, attempt start, drawn failure time)
    events: list[tuple[float, int, str, int, int, float, float]] = []
    seq = itertools.count()  # FIFO among events due at the same time
    waiting: deque[int] = deque()
    free = list(range(num_gpus))  # already a min-heap
    now = 0.0

    def start(idx: int, gpu: int) -> None:
        need = (durations[idx] - done[idx]) + per_trial_overhead
        fail_after = float(rng.exponential(failure_model.mtbf_s))
        if fail_after >= need:
            item = (now + need, next(seq), "done", idx, gpu, now, fail_after)
        else:
            item = (now + fail_after, next(seq), "fail", idx, gpu, now,
                    fail_after)
        heapq.heappush(events, item)

    def request(idx: int) -> None:
        if free:
            start(idx, heapq.heappop(free))
        else:
            waiting.append(idx)

    def release(gpu: int) -> None:
        if waiting:
            start(waiting.popleft(), gpu)
        else:
            heapq.heappush(free, gpu)

    def resumed_epoch(idx: int, work: float) -> int | None:
        ep = epoch_len[idx]
        return int(round(work / ep)) if ep and work > 0 else None

    for i in range(len(durations)):
        request(i)
    while events:
        now, _, kind, idx, gpu, began, fail_after = heapq.heappop(events)
        name, lane = f"trial_{idx:02d}", f"gpu{gpu}"
        if kind == "done":
            timeline.record(name, began, now, lane, category="train",
                            attempt=attempt[idx],
                            resumed_epoch=resumed_epoch(idx, done[idx]))
            release(gpu)
        elif kind == "fail":
            num_failures += 1
            progressed = max(0.0, fail_after - per_trial_overhead)
            total = done[idx] + progressed
            ep = epoch_len[idx]
            if scratch or ep is None:
                kept = 0.0
            else:
                kept = min(total, math.floor(total / ep + 1e-9) * ep)
            lost = total - kept
            wasted += lost
            resumed = resumed_epoch(idx, kept)
            retries.append(RetryRecord(
                trial=name, attempt=attempt[idx], failed_at_s=now,
                kept_work_s=kept, lost_work_s=lost, resumed_epoch=resumed,
            ))
            timeline.record(f"{name}_fail", began, now, lane,
                            category="failure", attempt=attempt[idx],
                            kept_work_s=kept, lost_work_s=lost,
                            resumed_epoch=resumed)
            done[idx] = kept
            heapq.heappush(events, (now + failure_model.repair_s, next(seq),
                                    "repaired", idx, gpu, now, 0.0))
        else:  # repaired: the GPU serves the queue head, the trial re-queues
            release(gpu)
            attempt[idx] += 1
            if max_attempts is not None and attempt[idx] >= max_attempts:
                num_abandoned += 1
                timeline.record(f"{name}_abandoned", now, now, lane,
                                category="abandoned",
                                attempt=attempt[idx] - 1)
            else:
                request(idx)
    return FailureRunResult(
        makespan=now,
        num_failures=num_failures,
        wasted_seconds=wasted,
        timeline=timeline,
        num_abandoned=num_abandoned,
        retries=retries,
    )


def expected_slowdown(duration_s: float, model: FailureModel) -> float:
    """Analytic expected completion time / duration for one task with
    restart-from-scratch semantics (``run_with_failures`` without
    ``num_epochs``):

    E[T] = (mtbf + repair) * (exp(d / mtbf) - 1) / d
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    m, r, d = model.mtbf_s, model.repair_s, duration_s
    return (m + r) * (math.exp(d / m) - 1.0) / d
