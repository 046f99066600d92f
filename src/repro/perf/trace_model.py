"""Per-category cost decomposition of one training trial.

Table I only needs trial totals; understanding *why* data parallelism
scales sub-linearly needs the breakdown this module provides: how much
of a trial's wall-clock goes to useful compute, to waiting at the
synchronisation barrier for stragglers, to the all-reduce, to the input
pipeline and to framework overhead (expected values, summing to
:meth:`StepCostModel.trial_time`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.collectives import allreduce_time
from .costs import StepCostModel, TrialConfig

__all__ = ["epoch_breakdown", "TrialBreakdown"]


@dataclass(frozen=True)
class TrialBreakdown:
    """Seconds per cost category for one full trial."""

    compute: float
    straggler_wait: float
    allreduce: float
    input: float
    framework: float
    validation: float
    fixed: float

    def total(self) -> float:
        return (self.compute + self.straggler_wait + self.allreduce
                + self.input + self.framework + self.validation + self.fixed)

    def fractions(self) -> dict[str, float]:
        t = self.total()
        return {
            "compute": self.compute / t,
            "straggler_wait": self.straggler_wait / t,
            "allreduce": self.allreduce / t,
            "input": self.input / t,
            "framework": self.framework / t,
            "validation": self.validation / t,
            "fixed": self.fixed / t,
        }


def epoch_breakdown(
    model: StepCostModel, config: TrialConfig, num_gpus: int
) -> TrialBreakdown:
    """Analytic per-trial cost decomposition (expected values)."""
    steps = model.steps_per_epoch(config, num_gpus)
    compute = model.step_compute_time(config)
    sync = compute * (model.sync_factor(num_gpus) - 1.0)
    m = model.cluster.node.num_gpus
    comm = allreduce_time(
        model.gradient_bytes(config), num_gpus, m,
        model.cluster.node.intra_link, model.cluster.inter_link,
    )
    e = config.epochs
    return TrialBreakdown(
        compute=e * steps * compute,
        straggler_wait=e * steps * sync,
        allreduce=e * steps * comm,
        input=e * steps * model.input_time(config),
        framework=e * steps * model.framework_overhead(num_gpus),
        validation=e * model.validation_time(config, num_gpus),
        fixed=e * model.params.epoch_fixed_s + model.startup_time(num_gpus),
    )
