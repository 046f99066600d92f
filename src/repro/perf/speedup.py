"""Search-level elapsed-time and speed-up computation.

Combines the step cost model with trial placement to price an entire
hyper-parameter search under both distribution methods, at any GPU
count -- the quantities Table I and Fig 4 report.  Placement is Ray
Tune's greedy FIFO (LPT for the scheduling ablation, E9): pure
functions over (durations, worker count), property-tested against
:func:`makespan_lower_bound`, and the one placement of every
failure-free paper-scale search.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .costs import StepCostModel, TrialConfig

__all__ = [
    "PlacementResult",
    "fifo_schedule",
    "lpt_schedule",
    "makespan_lower_bound",
    "paper_search_grid",
    "trial_durations",
    "data_parallel_search_time",
    "ray_cluster_startup",
    "experiment_parallel_placement",
    "experiment_parallel_search_time",
    "SpeedupRow",
    "SpeedupTable",
    "format_hms",
    "PAPER_GPU_COUNTS",
]

PAPER_GPU_COUNTS = (1, 2, 4, 8, 12, 16, 32)


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of a static schedule."""

    makespan: float
    # per-trial (worker, start, end), in input order
    assignments: tuple[tuple[int, float, float], ...]

    def worker_loads(self, num_workers: int) -> list[float]:
        loads = [0.0] * num_workers
        for w, s, e in self.assignments:
            loads[w] += e - s
        return loads


def _greedy(durations, order, num_workers: int, per_trial_overhead: float,
            policy: str = "fifo", telemetry=None):
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if any(d < 0 for d in durations):
        raise ValueError("durations must be non-negative")
    if telemetry is None:
        from ..telemetry import get_hub

        telemetry = get_hub()
    m_placements = telemetry.metrics.counter(
        "scheduler_placements_total", "trial-to-worker placements made",
        ("policy",)).labels(policy=policy)
    m_queue = telemetry.metrics.histogram(
        "scheduler_queue_depth", "trials still waiting at each placement",
        ("policy",),
        buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128)).labels(policy=policy)
    # (available_time, worker_id) min-heap
    heap = [(0.0, w) for w in range(num_workers)]
    heapq.heapify(heap)
    assignments: list[tuple[int, float, float] | None] = [None] * len(durations)
    for placed, idx in enumerate(order):
        avail, w = heapq.heappop(heap)
        start = avail
        end = start + per_trial_overhead + durations[idx]
        assignments[idx] = (w, start, end)
        heapq.heappush(heap, (end, w))
        m_placements.inc()
        m_queue.observe(len(durations) - placed - 1)
    makespan = max((a[2] for a in assignments), default=0.0)
    telemetry.metrics.gauge(
        "scheduler_makespan_seconds", "makespan of the last schedule",
        ("policy",)).labels(policy=policy).set(makespan)
    return PlacementResult(makespan=makespan, assignments=tuple(assignments))


def fifo_schedule(
    durations, num_workers: int, per_trial_overhead: float = 0.0,
    telemetry=None,
) -> PlacementResult:
    """Greedy earliest-available-worker in submission order (Ray Tune)."""
    return _greedy(durations, range(len(durations)), num_workers,
                   per_trial_overhead, policy="fifo", telemetry=telemetry)


def lpt_schedule(
    durations, num_workers: int, per_trial_overhead: float = 0.0,
    telemetry=None,
) -> PlacementResult:
    """Longest-processing-time-first; 4/3-approximate minimum makespan."""
    order = sorted(range(len(durations)), key=lambda i: -durations[i])
    return _greedy(durations, order, num_workers, per_trial_overhead,
                   policy="lpt", telemetry=telemetry)


def makespan_lower_bound(durations, num_workers: int,
                         per_trial_overhead: float = 0.0) -> float:
    """max(longest trial, total work / workers) -- no schedule beats it."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    padded = [d + per_trial_overhead for d in durations]
    if not padded:
        return 0.0
    return max(max(padded), sum(padded) / num_workers)


def paper_search_grid() -> list[TrialConfig]:
    """The benchmark search space (documented assumption, DESIGN.md).

    The paper says only that the space is the cross-product of the
    configured options (Section III-B2).  We use 5 learning rates x
    2 loss variants (soft Dice vs quadratic soft Dice, both of which the
    paper trains) x 2 model widths (base filters 8 and 11) = 20 trials.
    This grid was selected during calibration: 20 trials whose durations
    split ~1.7 h / ~2.9 h reproduce the ~44 h single-GPU total AND the
    experiment-parallel makespan curve of Table I to a few percent
    (see EXPERIMENTS.md for the per-cell residuals of the candidate
    grids considered).
    """
    lrs = (1e-3, 5e-4, 1e-4, 5e-5, 1e-5)
    losses = ("dice", "quadratic_dice")
    widths = (8, 11)
    return [
        TrialConfig(learning_rate=lr, loss=loss, base_filters=w)
        for lr in lrs
        for loss in losses
        for w in widths
    ]


def trial_durations(
    model: StepCostModel,
    trials: list[TrialConfig],
    gpus_per_trial: int,
    seed: int | None = None,
) -> list[float]:
    """Seconds each trial trains on ``gpus_per_trial`` GPUs.

    ``seed`` draws one unit-mean lognormal throughput jitter per trial
    (the run-to-run spread behind Fig 4a's error bars); ``None`` prices
    the expected durations.
    """
    sigma = model.params.trial_jitter_sigma
    if seed is None or sigma == 0.0:
        jitters = np.ones(len(trials))
    else:
        draws = np.random.default_rng(seed).lognormal(
            mean=0.0, sigma=sigma, size=len(trials))
        jitters = draws / np.exp(0.5 * sigma**2)  # unit mean
    return [
        model.trial_time(cfg, gpus_per_trial, jitter=float(j))
        for cfg, j in zip(trials, jitters)
    ]


def data_parallel_search_time(
    model: StepCostModel,
    trials: list[TrialConfig],
    num_gpus: int,
    seed: int | None = None,
) -> float:
    """Elapsed seconds of the data-parallel method: the trials run one
    after another, each using all ``num_gpus`` GPUs."""
    return float(sum(trial_durations(model, trials, num_gpus, seed)))


def ray_cluster_startup(model: StepCostModel, num_gpus: int,
                        gpus_per_trial: int = 1) -> float:
    """Seconds to spin the Ray cluster up over the nodes hosting
    ``num_gpus`` GPUs (none on a single GPU), after checking that the
    cluster holds them and that ``gpus_per_trial``-GPU trials fit."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if gpus_per_trial < 1:
        raise ValueError("gpus_per_trial must be >= 1")
    if gpus_per_trial > num_gpus:
        raise ValueError(
            f"gpus_per_trial {gpus_per_trial} exceeds {num_gpus} GPUs"
        )
    if num_gpus > model.cluster.total_gpus:
        raise ValueError(
            f"{num_gpus} GPUs requested, cluster has {model.cluster.total_gpus}"
        )
    if num_gpus == 1:
        return 0.0
    return model.params.startup_per_node_s * model.cluster.nodes_for(num_gpus)


def experiment_parallel_placement(
    model: StepCostModel,
    trials: list[TrialConfig],
    num_gpus: int,
    seed: int | None = None,
    policy: str = "fifo",
    gpus_per_trial: int = 1,
    telemetry=None,
) -> tuple[float, PlacementResult, list[float]]:
    """Ray Tune's placement of the search: ``(elapsed, placement,
    durations)``.

    Each trial holds ``gpus_per_trial`` GPUs (1 is experiment
    parallelism, more is the hybrid method), so ``num_gpus //
    gpus_per_trial`` trials run at once, placed greedily by ``policy``
    with the Tune per-trial overhead.  ``elapsed`` is the makespan plus
    the Ray cluster spin-up over the hosting nodes; the placement's
    ``assignments`` hold each trial's (worker, start, end), and
    ``durations`` are the training seconds it priced (Tune overhead
    excluded).
    """
    cluster_startup = ray_cluster_startup(model, num_gpus, gpus_per_trial)
    durations = trial_durations(model, trials, gpus_per_trial, seed)
    schedule = {"fifo": fifo_schedule, "lpt": lpt_schedule}[policy]
    result = schedule(
        durations, num_gpus // gpus_per_trial,
        per_trial_overhead=model.params.tune_trial_overhead_s,
        telemetry=telemetry,
    )
    return float(result.makespan + cluster_startup), result, durations


def experiment_parallel_search_time(
    model: StepCostModel,
    trials: list[TrialConfig],
    num_gpus: int,
    seed: int | None = None,
    policy: str = "fifo",
) -> float:
    """Elapsed seconds of the experiment-parallel method: each trial on
    one GPU, placed by Ray Tune's greedy scheduler; the search ends when
    the last trial does (makespan)."""
    return experiment_parallel_placement(
        model, trials, num_gpus, seed=seed, policy=policy)[0]


def format_hms(seconds: float) -> str:
    """``44:18:02``-style formatting used by Table I."""
    if seconds < 0:
        raise ValueError("seconds must be >= 0")
    total = int(round(seconds))
    h, rem = divmod(total, 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}"


@dataclass(frozen=True)
class SpeedupRow:
    """One Table I row."""

    num_gpus: int
    dp_seconds: float
    ep_seconds: float
    dp_speedup: float
    ep_speedup: float

    def formatted(self) -> tuple:
        return (
            self.num_gpus,
            format_hms(self.dp_seconds),
            f"{self.dp_speedup:.2f}",
            format_hms(self.ep_seconds),
            f"{self.ep_speedup:.2f}",
        )


class SpeedupTable:
    """Builds and formats the full Table I reproduction."""

    def __init__(
        self,
        model: StepCostModel,
        trials: list[TrialConfig] | None = None,
        gpu_counts: tuple[int, ...] = PAPER_GPU_COUNTS,
        seed: int | None = None,
    ):
        self.model = model
        self.trials = trials if trials is not None else paper_search_grid()
        self.gpu_counts = gpu_counts
        self.seed = seed

    def compute(self) -> list[SpeedupRow]:
        dp1 = data_parallel_search_time(self.model, self.trials, 1, self.seed)
        ep1 = experiment_parallel_search_time(
            self.model, self.trials, 1, self.seed
        )
        rows = []
        for n in self.gpu_counts:
            dp = data_parallel_search_time(self.model, self.trials, n, self.seed)
            ep = experiment_parallel_search_time(
                self.model, self.trials, n, self.seed
            )
            rows.append(
                SpeedupRow(
                    num_gpus=n,
                    dp_seconds=dp,
                    ep_seconds=ep,
                    dp_speedup=dp1 / dp,
                    ep_speedup=ep1 / ep,
                )
            )
        return rows

    def render(self, rows: list[SpeedupRow] | None = None) -> str:
        rows = rows if rows is not None else self.compute()
        lines = [
            "        |  Data Parallel Method   | Experiment Parallel Method",
            "# GPUs  | Elapsed time | Speedup  | Elapsed time | Speedup",
            "-" * 64,
        ]
        for r in rows:
            n, dp_t, dp_s, ep_t, ep_s = r.formatted()
            lines.append(
                f"{n:>6}  | {dp_t:>12} | {dp_s:>7}  | {ep_t:>12} | {ep_s:>7}"
            )
        return "\n".join(lines)
