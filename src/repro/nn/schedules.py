"""Learning-rate schedules.

Data-parallel training scales the batch by the number of replicas, so the
paper scales the initial learning rate by ``#GPUs`` and notes that the
*cyclic learning rate* technique (Smith, WACV 2017 -- the paper's
reference [38]) is used to approximate a good rate under that scaling.
Schedules are callables ``lr = schedule(step)`` on the global update
counter.
"""

from __future__ import annotations

import math

__all__ = [
    "Schedule",
    "ConstantLR",
    "CyclicLR",
    "linear_scaling_rule",
]


class Schedule:
    """Base class: a callable mapping the update index to a rate."""

    def __call__(self, step: int) -> float:
        raise NotImplementedError


class ConstantLR(Schedule):
    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.base_lr = float(lr)

    def __call__(self, step: int) -> float:
        return self.base_lr


class CyclicLR(Schedule):
    """Triangular cyclic learning rate (Smith 2017, paper reference [38]).

    The rate sweeps linearly from ``base_lr`` up to ``max_lr`` and back
    over ``2 * step_size`` updates.  ``mode='triangular2'`` halves the
    amplitude each cycle.
    """

    def __init__(self, base_lr: float, max_lr: float, step_size: int,
                 mode: str = "triangular"):
        if max_lr < base_lr:
            raise ValueError("max_lr must be >= base_lr")
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if mode not in ("triangular", "triangular2"):
            raise ValueError(f"unknown cyclic mode {mode!r}")
        self.base_lr, self.max_lr = float(base_lr), float(max_lr)
        self.step_size, self.mode = int(step_size), mode

    def __call__(self, step: int) -> float:
        cycle = math.floor(1 + step / (2 * self.step_size))
        x = abs(step / self.step_size - 2 * cycle + 1)
        scale = 1.0 if self.mode == "triangular" else 1.0 / (2 ** (cycle - 1))
        return self.base_lr + (self.max_lr - self.base_lr) * max(0.0, 1 - x) * scale


def linear_scaling_rule(base_lr: float, num_replicas: int) -> float:
    """The paper's LR scaling: ``1e-4 x #GPUs`` (Section IV-B)."""
    if num_replicas < 1:
        raise ValueError("num_replicas must be >= 1")
    return base_lr * num_replicas
