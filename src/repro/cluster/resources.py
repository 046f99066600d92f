"""Hardware resource specifications.

Models the paper's benchmarking environment (Section IV-B): the BSC
MareNostrum-CTE cluster of 52 IBM Power9 nodes (2x20 cores @ 2.4 GHz),
each with 4 NVIDIA V100 16 GB GPUs, interconnected with InfiniBand.
Specs are plain dataclasses consumed by the network/collective cost
models and the paper-scale placements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .network import LinkSpec, INFINIBAND_EDR, NVLINK2, PCIE3_X16

__all__ = [
    "GPUSpec",
    "NodeSpec",
    "ClusterSpec",
    "DeviceId",
    "V100_16GB",
    "POWER9_NODE",
    "marenostrum_cte",
    "unet3d_activation_bytes",
    "fits_in_gpu_memory",
]


@dataclass(frozen=True)
class GPUSpec:
    """An accelerator model."""

    name: str
    memory_bytes: int
    fp32_tflops: float
    mem_bandwidth_gbs: float

    @property
    def memory_gb(self) -> float:
        return self.memory_bytes / 2**30


V100_16GB = GPUSpec(
    name="NVIDIA V100 16GB",
    memory_bytes=16 * 2**30,
    fp32_tflops=15.7,
    mem_bandwidth_gbs=900.0,
)


@dataclass(frozen=True)
class NodeSpec:
    """A compute node: CPU sockets plus attached GPUs and intra-node links."""

    name: str
    num_gpus: int
    gpu: GPUSpec
    cpu_cores: int
    cpu_ghz: float
    host_memory_bytes: int
    intra_link: LinkSpec = NVLINK2
    host_link: LinkSpec = PCIE3_X16

    def __post_init__(self):
        if self.num_gpus < 1:
            raise ValueError("a node needs at least one GPU")


POWER9_NODE = NodeSpec(
    name="IBM Power9 8335-GTH",
    num_gpus=4,
    gpu=V100_16GB,
    cpu_cores=40,  # 2 sockets x 20 cores
    cpu_ghz=2.4,
    host_memory_bytes=512 * 2**30,
)


@dataclass(frozen=True)
class DeviceId:
    """Global GPU address: (node index, local GPU index)."""

    node: int
    local: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"node{self.node}:gpu{self.local}"


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of nodes joined by an inter-node fabric."""

    num_nodes: int
    node: NodeSpec = POWER9_NODE
    inter_link: LinkSpec = INFINIBAND_EDR
    name: str = "cluster"

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("a cluster needs at least one node")

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.node.num_gpus

    def device(self, global_index: int) -> DeviceId:
        """Map a global GPU index to its (node, local) address; GPUs are
        packed node-by-node, matching Slurm-style allocation."""
        if not 0 <= global_index < self.total_gpus:
            raise ValueError(
                f"GPU index {global_index} out of range [0, {self.total_gpus})"
            )
        return DeviceId(
            node=global_index // self.node.num_gpus,
            local=global_index % self.node.num_gpus,
        )

    def devices(self, count: int | None = None) -> list[DeviceId]:
        """First ``count`` GPUs (default all), packed densely."""
        n = self.total_gpus if count is None else count
        if n > self.total_gpus:
            raise ValueError(
                f"requested {n} GPUs but cluster has {self.total_gpus}"
            )
        return [self.device(i) for i in range(n)]

    def nodes_for(self, num_gpus: int) -> int:
        """Minimum node count hosting ``num_gpus`` densely-packed GPUs."""
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        return math.ceil(num_gpus / self.node.num_gpus)


def marenostrum_cte(num_nodes: int = 8) -> ClusterSpec:
    """The paper's benchmarking cluster (1..8 nodes used of 52)."""
    if not 1 <= num_nodes <= 52:
        raise ValueError("MareNostrum-CTE has 52 Power9 nodes")
    return ClusterSpec(num_nodes=num_nodes, node=POWER9_NODE,
                       inter_link=INFINIBAND_EDR, name="MareNostrum-CTE")


def unet3d_activation_bytes(
    spatial: tuple[int, int, int],
    base_filters: int = 8,
    depth: int = 4,
    batch_per_replica: int = 2,
    bytes_per_value: int = 4,
    train: bool = True,
) -> int:
    """Rough activation-memory footprint of the paper's 3D U-Net.

    Counts the feature maps held live during a training step: each
    conv/BN/ReLU stage on both paths retains its output for backprop
    (TensorFlow keeps the conv output *and* the normalised tensor), plus
    the skip tensors and the channel-doubled concat buffers -- about ten
    width-f maps per resolution level.  The constant is calibrated so
    the model reproduces the paper's feasibility edge: 2 full volumes
    per 16 GB V100 fit, 3 do not (Sections IV-B, V-C); the test suite
    pins that edge.
    """
    voxels = 1
    for s in spatial:
        voxels *= s
    total = 0.0
    for level in range(depth):
        f = base_filters * 2**level
        level_voxels = voxels / (8**level)
        maps = 10 if level < depth - 1 else 4
        total += maps * f * level_voxels
    total *= batch_per_replica * bytes_per_value
    if train:
        total *= 2.0  # stored activations + gradients
    return int(total)


def fits_in_gpu_memory(
    gpu: GPUSpec,
    model_params: int,
    activation_bytes: int,
    optimizer_slots: int = 2,
    bytes_per_value: int = 4,
    reserve_fraction: float = 0.08,
) -> bool:
    """Memory feasibility check: weights + grads + optimizer state
    (Adam: 2 slots) + activations against the device, with a runtime
    reserve (CUDA context, workspace)."""
    weights = model_params * bytes_per_value
    state = weights * (1 + optimizer_slots)  # grads + slots
    need = weights + state + activation_bytes
    budget = gpu.memory_bytes * (1.0 - reserve_fraction)
    return need <= budget
