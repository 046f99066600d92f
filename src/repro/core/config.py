"""Experiment configuration: hyper-parameter spaces and run settings.

The paper defines its search space as "the cross-product of the
different values for each option in the configuration" (Section
III-B2).  :data:`HyperparameterSpace` captures that contract and
produces the concrete per-trial dictionaries consumed by both
distribution methods; :class:`ExperimentSettings` holds everything
else a run needs (dataset scale, epochs, seeds, cluster shape).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.losses import get_loss
from ..nn.optimizers import Adam, SGD
from ..nn.schedules import ConstantLR, CyclicLR, linear_scaling_rule
from ..nn.unet3d import UNet3D
from ..raysim.search import GridSearch

__all__ = ["HyperparameterSpace", "ExperimentSettings", "build_model",
           "build_loss", "build_optimizer", "DEFAULT_SPACE"]


#: The grid: ``HyperparameterSpace(axes)`` is the one grid implementation,
#: :class:`repro.raysim.search.GridSearch`, which the search driver hands
#: to ``tune_run`` as its search algorithm unchanged.
HyperparameterSpace = GridSearch


# A small default space for the in-process experiments (the full-scale
# benchmark grid lives in repro.perf.speedup.paper_search_grid).
DEFAULT_SPACE = HyperparameterSpace(
    {
        "learning_rate": [1e-2, 1e-3],
        "loss": ["dice", "quadratic_dice"],
    }
)


@dataclass
class ExperimentSettings:
    """Scale and reproducibility knobs for an in-process run.

    Defaults are laptop-sized; the paper-scale values (484 subjects,
    240x240x152, 250 epochs, batch 2/replica) are what the *simulated*
    backend prices instead of executing.
    """

    num_subjects: int = 12
    volume_shape: tuple[int, int, int] = (24, 24, 16)
    epochs: int = 8
    batch_per_replica: int = 2
    base_filters: int = 4
    depth: int = 3
    seed: int = 0
    data_seed: int = 100
    use_batchnorm: bool = True
    sync_batchnorm: bool = False
    scale_learning_rate: bool = True   # the paper's LR x #GPUs rule
    cyclic_lr: bool = False            # CLR variant (reference [38])
    augment: bool = False              # online flips + noise per epoch

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.num_subjects < 3:
            raise ValueError("need >= 3 subjects for a 70/15/15 split")
        div = 2 ** (self.depth - 1)
        if any(s % div for s in self.volume_shape):
            raise ValueError(
                f"volume {self.volume_shape} not divisible by {div} "
                f"(depth {self.depth})"
            )

    def model_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def build_model(config: dict, settings: ExperimentSettings) -> UNet3D:
    """Instantiate the 3D U-Net a trial's config describes.

    Seeding is deterministic in ``settings.seed`` only, so two trials
    with different hyper-parameters still start from comparable weights
    and -- crucially for claim C2 -- the same trial rebuilt on another
    'device' is bit-identical.
    """
    return UNet3D(
        in_channels=4,
        out_channels=1,
        base_filters=int(config.get("base_filters", settings.base_filters)),
        depth=int(config.get("depth", settings.depth)),
        use_batchnorm=settings.use_batchnorm,
        rng=settings.model_rng(),
    )


def build_loss(config: dict):
    return get_loss(config.get("loss", "dice"))


def build_optimizer(config: dict, settings: ExperimentSettings, model,
                    num_replicas: int = 1, steps_per_epoch: int | None = None):
    """Optimizer per the paper: Adam at ``lr x #GPUs`` (Section IV-B),
    optionally under a cyclic schedule (reference [38])."""
    base_lr = float(config.get("learning_rate", 1e-4))
    lr = (
        linear_scaling_rule(base_lr, num_replicas)
        if settings.scale_learning_rate
        else base_lr
    )
    if settings.cyclic_lr:
        step_size = max(1, (steps_per_epoch or 10) * 2)
        schedule = CyclicLR(base_lr=lr / 4, max_lr=lr, step_size=step_size)
    else:
        schedule = ConstantLR(lr)
    name = config.get("optimizer", "adam")
    if name == "adam":
        return Adam(model, lr=schedule)
    if name == "sgd":
        return SGD(model, lr=schedule)
    raise ValueError(f"unknown optimizer {name!r}")
