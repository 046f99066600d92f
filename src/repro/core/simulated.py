"""Paper-scale simulated searches: the three methods on the cluster model.

Prices the searches that :func:`repro.core.search.run_search` executes
at laptop scale at paper scale instead, on the calibrated MareNostrum
model, with one timeline span per trial.  Simulator side: nothing executed imports this module.

The hybrid method gives each trial ``g`` GPUs, trading per-trial
speed-up (sub-linear, it pays the data-parallel overheads) against
trial concurrency (``floor(n / g)`` at a time): with 20 trials on 32
GPUs, pure experiment parallelism leaves 12 GPUs idle.  ``g = 1``
recovers the experiment-parallel method, ``g = n`` the data-parallel
method (both asserted by tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.failures import FailureModel, FailureRunResult, run_with_failures
from ..cluster.trace import Timeline
from ..fault_tolerance import RetryPolicy
from ..perf.costs import StepCostModel, TrialConfig
from ..perf.speedup import (
    experiment_parallel_placement,
    ray_cluster_startup,
    trial_durations,
)

__all__ = [
    "placement_case",
    "simulate_data_parallel_search",
    "simulate_experiment_parallel_search",
    "simulate_search_with_failures",
    "HybridResult",
    "simulate_hybrid_search",
    "best_gpus_per_trial",
]


def placement_case(num_gpus: int, gpus_per_node: int = 4) -> str:
    """The Section III-B2 trichotomy (string tag used in logs/traces)."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if num_gpus == 1:
        return "sequential"
    if num_gpus <= gpus_per_node:
        return "mirrored"
    return "ray_sgd"


def simulate_data_parallel_search(
    trials: list[TrialConfig],
    model: StepCostModel,
    num_gpus: int,
    seed: int | None = None,
) -> tuple[float, Timeline]:
    """Trials run back-to-back, each occupying the first ``num_gpus``
    GPUs packed node by node; returns (elapsed seconds, timeline).  The
    elapsed time is :func:`repro.perf.speedup.data_parallel_search_time`;
    the timeline adds one span per trial on every GPU, tagged with the
    placement case."""
    case = placement_case(num_gpus, model.cluster.node.num_gpus)
    devices = model.cluster.devices(num_gpus)
    timeline = Timeline()
    end = 0.0
    for idx, (cfg, duration) in enumerate(
            zip(trials, trial_durations(model, trials, num_gpus, seed))):
        start, end = end, end + duration
        for dev in devices:
            timeline.record(
                name=f"trial_{idx:02d}", start=start, end=end,
                resource=str(dev), category="train",
                case=case, loss=cfg.loss, lr=cfg.learning_rate,
                base_filters=cfg.base_filters,
            )
    return end, timeline


def simulate_experiment_parallel_search(
    trials: list[TrialConfig],
    model: StepCostModel,
    num_gpus: int,
    seed: int | None = None,
    telemetry=None,
) -> tuple[float, Timeline]:
    """Ray Tune's placement: trials are placed FIFO, each on the
    earliest free one of ``num_gpus`` GPUs for ``tune_overhead +
    duration``; the elapsed time is the makespan plus the Ray cluster
    spin-up over the hosting nodes --
    :func:`repro.perf.experiment_parallel_search_time`, with one
    timeline span per trial on the GPU that ran it.
    """
    elapsed, placement, _ = experiment_parallel_placement(
        model, trials, num_gpus, seed=seed, telemetry=telemetry)
    timeline = Timeline()
    for idx, (cfg, (worker, start, end)) in enumerate(
            zip(trials, placement.assignments)):
        timeline.record(
            name=f"trial_{idx:02d}", start=start, end=end,
            resource=str(model.cluster.device(worker)), category="train",
            loss=cfg.loss, lr=cfg.learning_rate,
            base_filters=cfg.base_filters,
        )
    return elapsed, timeline


def simulate_search_with_failures(
    trials: list[TrialConfig],
    model: StepCostModel,
    num_gpus: int,
    failure_model: FailureModel,
    retry_policy: RetryPolicy | None = None,
    seed: int | None = None,
    telemetry=None,
) -> tuple[float, FailureRunResult]:
    """Paper-scale experiment-parallel placement under failures.

    Same calibrated per-trial durations and Ray Tune FIFO placement as
    :func:`simulate_experiment_parallel_search`, but executed through
    :func:`repro.cluster.failures.run_with_failures` with per-epoch
    checkpoint granularity (each trial's ``epochs``) and the shared
    :class:`RetryPolicy` semantics.  Returns ``(elapsed, result)`` where
    ``elapsed`` includes the cluster spin-up and ``result`` carries the
    failure count, wasted seconds, per-trial retry records and the
    timeline (failures included) for the Chrome trace.
    """
    cluster_startup = ray_cluster_startup(model, num_gpus)
    if telemetry is None:
        from ..telemetry import get_hub

        telemetry = get_hub()
    result = run_with_failures(
        trial_durations(model, trials, 1, seed), num_gpus, failure_model,
        seed=0 if seed is None else seed,
        per_trial_overhead=model.params.tune_trial_overhead_s,
        num_epochs=[cfg.epochs for cfg in trials],
        retry_policy=retry_policy,
    )
    telemetry.metrics.counter(
        "sim_failures_total", "injected simulator failures",
        ("method",)).labels(method="experiment_parallel").inc(
            result.num_failures)
    telemetry.metrics.counter(
        "sim_wasted_seconds_total", "simulated compute lost to failures",
        ("method",)).labels(method="experiment_parallel").inc(
            result.wasted_seconds)
    return result.makespan + cluster_startup, result


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
