"""Trial-to-worker placement policies and makespan computation.

Experiment parallelism's elapsed time is the *makespan* of placing the
search's trials onto single-GPU workers.  Ray Tune's behaviour is
greedy FIFO: trials start in submission order, each on the earliest
available GPU.  LPT (longest-processing-time-first) is the classic
makespan heuristic, provided for the scheduling ablation (E9).

These are pure functions over (durations, worker count) so they can be
property-tested against the makespan lower bounds.  They are the only
placement of failure-free paper-scale searches: Table I's pricing and
the simulated experiment-parallel and hybrid runs (whose timelines are
read off ``PlacementResult.assignments``) all call them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

__all__ = ["PlacementResult", "fifo_schedule", "lpt_schedule", "makespan_lower_bound"]


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
