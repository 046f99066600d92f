"""Analytic cost model for 3D U-Net training steps at cluster scale.

Builds per-step / per-epoch / per-trial wall-clock estimates from first
principles plus a handful of calibrated constants:

* **compute** -- convolution FLOPs of the Fig 2 architecture divided by
  the V100's sustained throughput (peak x calibrated efficiency);
* **synchronisation** -- data-parallel steps end at a barrier, so the
  step takes the *max* of the replicas' jittered compute times
  (:mod:`repro.perf.straggler`);
* **communication** -- hierarchical ring all-reduce of the gradient
  buffer (:mod:`repro.cluster.collectives`) plus calibrated per-step
  framework overhead (MirroredStrategy in-node, Ray SGD across nodes);
* **input** -- host-to-device transfer of the binarised batch;
* **quantisation** -- ``ceil(samples / (batch x n))`` steps per epoch,
  which wastes up to one partial step per epoch at large ``n`` (338
  training volumes / global batch 64 = 5.28 -> 6 steps at 32 GPUs).

The same model prices the experiment-parallel method: each trial is a
1-GPU run plus the Ray Tune per-trial overhead, and the search's elapsed
time is a placement makespan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from ..cluster.collectives import allreduce_time
from ..cluster.resources import ClusterSpec, marenostrum_cte
from .straggler import expected_max_factor

__all__ = [
    "conv3d_flops",
    "unet3d_forward_flops",
    "unet3d_param_count",
    "TrialConfig",
    "CostModelParams",
    "StepCostModel",
    "PAPER_TRAIN_SAMPLES",
    "PAPER_VAL_SAMPLES",
    "PAPER_EPOCHS",
    "PAPER_SPATIAL",
]

# Section IV-A/B constants: 484 subjects split 70/15/15, 250 epochs,
# 240x240x152 input after the crop.
PAPER_TRAIN_SAMPLES = 338
PAPER_VAL_SAMPLES = 73
PAPER_EPOCHS = 250
PAPER_SPATIAL = (240, 240, 152)


def conv3d_flops(voxels: int, c_in: int, c_out: int, kernel: int = 3) -> float:
    """Multiply-add count x2 for one convolution over ``voxels`` outputs."""
    return 2.0 * voxels * c_in * c_out * kernel**3


@functools.lru_cache(maxsize=None)
def unet3d_forward_flops(
    spatial: tuple[int, int, int] = PAPER_SPATIAL,
    base_filters: int = 8,
    depth: int = 4,
    in_channels: int = 4,
    out_channels: int = 1,
    transpose_halves: bool = True,
) -> float:
    """Forward-pass FLOPs of the paper's U-Net for ONE sample.

    Mirrors the layer structure of :class:`repro.nn.unet3d.UNet3D`
    exactly (the unit tests cross-check against the real layer graph).
    """
    voxels0 = spatial[0] * spatial[1] * spatial[2]
    f = [base_filters * 2**s for s in range(depth)]
    total = 0.0
    # analysis path
    ci = in_channels
    for s in range(depth):
        v = voxels0 / (8**s)
        total += conv3d_flops(v, ci, f[s]) + conv3d_flops(v, f[s], f[s])
        ci = f[s]
    # synthesis path
    cur = f[-1]
    for s in range(depth - 2, -1, -1):
        v = voxels0 / (8**s)
        up_out = f[s] if transpose_halves else cur
        total += conv3d_flops(v, cur, up_out, kernel=2) / 8  # convT: k^3/stride^3 taps/output
        cat = up_out + f[s]
        total += conv3d_flops(v, cat, f[s]) + conv3d_flops(v, f[s], f[s])
        cur = f[s]
    total += conv3d_flops(voxels0, cur, out_channels, kernel=1)
    return total


def unet3d_param_count(base_filters: int = 8, depth: int = 4,
                       in_channels: int = 4, out_channels: int = 1,
                       transpose_halves: bool = True) -> int:
    """Trainable parameter count (weights + biases + BN gamma/beta),
    for gradient-buffer sizing."""
    f = [base_filters * 2**s for s in range(depth)]
    total = 0
    ci = in_channels
    for s in range(depth):
        total += ci * f[s] * 27 + f[s] + 2 * f[s]
        total += f[s] * f[s] * 27 + f[s] + 2 * f[s]
        ci = f[s]
    cur = f[-1]
    for s in range(depth - 2, -1, -1):
        up_out = f[s] if transpose_halves else cur
        total += cur * up_out * 8 + up_out
        cat = up_out + f[s]
        total += cat * f[s] * 27 + f[s] + 2 * f[s]
        total += f[s] * f[s] * 27 + f[s] + 2 * f[s]
        cur = f[s]
    total += cur * out_channels + out_channels
    return total


@dataclass(frozen=True)
class TrialConfig:
    """One hyper-parameter combination of the benchmark search.

    The paper does not enumerate its grid; DESIGN.md documents the
    assumption used here: 5 learning rates x 2 losses x 2 batch sizes
    = 20 trials at the fixed Fig 2 architecture.
    """

    learning_rate: float = 1e-4
    loss: str = "dice"              # "dice" | "quadratic_dice"
    batch_per_replica: int = 2      # V100 16 GB fits at most 2 full volumes
    base_filters: int = 8
    epochs: int = PAPER_EPOCHS

    def __post_init__(self):
        if self.batch_per_replica not in (1, 2):
            raise ValueError(
                "batch_per_replica must be 1 or 2 (16 GB V100, Section V-C)"
            )
        if self.loss not in ("dice", "quadratic_dice"):
            raise ValueError(f"unknown loss {self.loss!r}")

    def compute_scale(self) -> float:
        """Relative per-sample cost vs the default configuration."""
        scale = unet3d_forward_flops(base_filters=self.base_filters) / \
            unet3d_forward_flops(base_filters=8)
        if self.loss == "quadratic_dice":
            scale *= 1.02  # extra elementwise squares in the loss
        return scale


@dataclass(frozen=True)
class CostModelParams:
    """Calibrated constants of the cost model.

    ``gpu_efficiency`` etc. are fitted once against Table I by
    :mod:`repro.perf.calibration`; every other quantity is physical.
    """

    gpu_efficiency: float = 0.55          # sustained fraction of peak fp32
    straggler_sigma: float = 0.10         # lognormal per-replica jitter
    mirrored_overhead_s: float = 0.05     # per-step, 1 < n <= M (in-node)
    internode_overhead_s: float = 0.02    # per-step x num_nodes (Ray SGD)
    input_bytes_per_sample: float = 4 * 240 * 240 * 152 * 4.0
    epoch_fixed_s: float = 5.0            # checkpoint/logging per epoch
    startup_base_s: float = 60.0          # process + TF graph build
    startup_per_node_s: float = 20.0      # Ray cluster join per node
    tune_trial_overhead_s: float = 90.0   # Tune scheduling + env setup
    trial_jitter_sigma: float = 0.05      # run-to-run throughput spread
    backward_factor: float = 2.0          # bwd = 2 x fwd FLOPs

    def validate(self) -> None:
        if not 0.0 < self.gpu_efficiency <= 1.0:
            raise ValueError("gpu_efficiency must be in (0, 1]")
        for name in ("straggler_sigma", "mirrored_overhead_s",
                     "internode_overhead_s", "epoch_fixed_s",
                     "startup_base_s", "startup_per_node_s",
                     "tune_trial_overhead_s", "trial_jitter_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def with_overrides(self, **kw) -> "CostModelParams":
        return replace(self, **kw)


class StepCostModel:
    """Prices steps, epochs and trials on a given cluster."""

    def __init__(
        self,
        params: CostModelParams | None = None,
        cluster: ClusterSpec | None = None,
        train_samples: int = PAPER_TRAIN_SAMPLES,
        val_samples: int = PAPER_VAL_SAMPLES,
        spatial: tuple[int, int, int] = PAPER_SPATIAL,
    ):
        self.params = params or CostModelParams()
        self.params.validate()
        self.cluster = cluster or marenostrum_cte(8)
        self.train_samples = train_samples
        self.val_samples = val_samples
        self.spatial = spatial
        self._fwd_flops_base = unet3d_forward_flops(spatial)

    # -- building blocks ---------------------------------------------------
    def forward_time(self, config: TrialConfig) -> float:
        """Forward seconds for one per-replica batch."""
        p = self.params
        peak = self.cluster.node.gpu.fp32_tflops * 1e12
        flops = (
            self._fwd_flops_base
            * config.compute_scale()
            * config.batch_per_replica
        )
        return flops / (peak * p.gpu_efficiency)

    def step_compute_time(self, config: TrialConfig) -> float:
        """Forward + backward seconds for one per-replica batch."""
        return self.forward_time(config) * (1.0 + self.params.backward_factor)

    def input_time(self, config: TrialConfig) -> float:
        """Host-to-device copy of the binarised batch (prefetch overlaps
        the record read itself, so only the PCIe hop is charged)."""
        nbytes = self.params.input_bytes_per_sample * config.batch_per_replica
        link = self.cluster.node.host_link
        return link.latency_s + nbytes / link.bandwidth_bytes_per_s

    def gradient_bytes(self, config: TrialConfig) -> int:
        return unet3d_param_count(base_filters=config.base_filters) * 4

    def framework_overhead(self, num_gpus: int) -> float:
        """Per-step cost of the distribution framework (Section III-B2
        cases: none / MirroredStrategy / Ray SGD across nodes)."""
        p = self.params
        m = self.cluster.node.num_gpus
        if num_gpus <= 1:
            return 0.0
        if num_gpus <= m:
            return p.mirrored_overhead_s
        nodes = math.ceil(num_gpus / m)
        return p.mirrored_overhead_s + p.internode_overhead_s * nodes

    def sync_factor(self, num_gpus: int) -> float:
        """Straggler inflation: barrier waits for the slowest replica."""
        return expected_max_factor(num_gpus, self.params.straggler_sigma)

    def step_time(self, config: TrialConfig, num_gpus: int) -> float:
        """One synchronous data-parallel training step on ``num_gpus``."""
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        m = self.cluster.node.num_gpus
        comm = allreduce_time(
            self.gradient_bytes(config),
            num_gpus,
            m,
            self.cluster.node.intra_link,
            self.cluster.inter_link,
        )
        return (
            self.step_compute_time(config) * self.sync_factor(num_gpus)
            + comm
            + self.framework_overhead(num_gpus)
            + self.input_time(config)
        )

    # -- aggregates -------------------------------------------------------
    def steps_per_epoch(self, config: TrialConfig, num_gpus: int) -> int:
        global_batch = config.batch_per_replica * num_gpus
        return math.ceil(self.train_samples / global_batch)

    def validation_time(self, config: TrialConfig, num_gpus: int) -> float:
        """Per-epoch validation: forward-only pass over the val split."""
        steps = math.ceil(
            self.val_samples / (config.batch_per_replica * num_gpus)
        )
        per = self.forward_time(config) + self.input_time(config)
        if num_gpus > 1:
            per = per * self.sync_factor(num_gpus) + self.framework_overhead(num_gpus)
        return steps * per

    def epoch_time(self, config: TrialConfig, num_gpus: int) -> float:
        return (
            self.steps_per_epoch(config, num_gpus) * self.step_time(config, num_gpus)
            + self.validation_time(config, num_gpus)
            + self.params.epoch_fixed_s
        )

    def startup_time(self, num_gpus: int) -> float:
        nodes = self.cluster.nodes_for(num_gpus)
        extra = self.params.startup_per_node_s * nodes if num_gpus > 1 else 0.0
        return self.params.startup_base_s + extra

    def trial_time(self, config: TrialConfig, num_gpus: int,
                   jitter: float = 1.0) -> float:
        """Full data-parallel training run of one configuration."""
        if jitter <= 0:
            raise ValueError("jitter must be positive")
        return (
            config.epochs * self.epoch_time(config, num_gpus) * jitter
            + self.startup_time(num_gpus)
        )
