"""Hybrid distribution: experiment parallelism over multi-GPU trials.

The paper benchmarks the two extremes -- every trial on ALL GPUs (data
parallel) or every trial on ONE GPU (experiment parallel) -- and cites
hybrid-parallelism work as related (Section II-A).  The middle ground
matters precisely in the paper's own configuration: with 20 trials on
32 GPUs, pure experiment parallelism leaves 12 GPUs idle and its
makespan is pinned to the longest trial.  Giving each trial ``g`` GPUs
trades per-trial speed-up (sub-linear, it pays the data-parallel
overheads) against trial concurrency (``floor(n / g)`` at a time).

:func:`simulate_hybrid_search` prices any ``gpus_per_trial`` with Ray
Tune's greedy placement (the schedule that prices Table I);
:func:`best_gpus_per_trial` sweeps the feasible values.  ``g = 1``
recovers the experiment-parallel method, ``g = n`` the data-parallel
method (both asserted by tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.trace import Timeline
from ..perf.costs import StepCostModel, TrialConfig
from ..perf.speedup import experiment_parallel_placement

__all__ = ["HybridResult", "simulate_hybrid_search", "best_gpus_per_trial"]


@dataclass(frozen=True)
class HybridResult:
    gpus_per_trial: int
    concurrent_slots: int
    elapsed_seconds: float
    mean_gpu_utilization: float


def simulate_hybrid_search(
    trials: list[TrialConfig],
    model: StepCostModel,
    num_gpus: int,
    gpus_per_trial: int,
    seed: int | None = None,
    telemetry=None,
) -> tuple[HybridResult, Timeline]:
    """FIFO placement of ``g``-GPU trials onto ``floor(n/g)`` slots.

    Each trial's duration is the *data-parallel* trial time at ``g``
    GPUs (so it inherits the straggler/comm overheads), plus the Tune
    per-trial overhead; Ray cluster startup over the hosting nodes is
    charged once, as in the pure methods.  The timeline holds one span
    per trial on the slot that ran it.
    """
    elapsed, placement, durations = experiment_parallel_placement(
        model, trials, num_gpus, seed=seed, gpus_per_trial=gpus_per_trial,
        telemetry=telemetry)
    timeline = Timeline()
    for idx, (worker, start, end) in enumerate(placement.assignments):
        timeline.record(
            f"trial_{idx:02d}", start, end,
            resource=f"slot{worker}", category="train",
            gpus=gpus_per_trial,
        )

    overhead = model.params.tune_trial_overhead_s
    busy_gpu_seconds = gpus_per_trial * sum(d + overhead for d in durations)
    util = busy_gpu_seconds / (elapsed * num_gpus) if elapsed > 0 else 0.0
    return (
        HybridResult(
            gpus_per_trial=gpus_per_trial,
            concurrent_slots=num_gpus // gpus_per_trial,
            elapsed_seconds=elapsed,
            mean_gpu_utilization=min(1.0, util),
        ),
        timeline,
    )


def best_gpus_per_trial(
    trials: list[TrialConfig],
    model: StepCostModel,
    num_gpus: int,
    candidates: tuple[int, ...] | None = None,
    seed: int | None = None,
) -> dict[int, HybridResult]:
    """Sweep feasible ``gpus_per_trial`` values; returns {g: result}.

    Default candidates: powers of two up to one node's GPUs, plus the
    extremes (1 and ``num_gpus``), filtered to divisors of sensible
    slot counts.
    """
    if candidates is None:
        m = model.cluster.node.num_gpus
        cand = [1]
        g = 2
        while g <= min(num_gpus, m * 2):
            cand.append(g)
            g *= 2
        if num_gpus not in cand:
            cand.append(num_gpus)
        candidates = tuple(c for c in cand if c <= num_gpus)
    out: dict[int, HybridResult] = {}
    for g in candidates:
        result, _ = simulate_hybrid_search(trials, model, num_gpus, g,
                                           seed=seed)
        out[g] = result
    return out
