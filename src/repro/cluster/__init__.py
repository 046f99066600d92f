"""``repro.cluster`` -- the HPC cluster substrate.

Stands in for the BSC MareNostrum-CTE GPU environment: hardware specs
(:mod:`~repro.cluster.resources`), alpha-beta interconnect models
(:mod:`~repro.cluster.network`), collective-communication algorithms --
both cost models and exact NumPy ring all-reduce
(:mod:`~repro.cluster.collectives`) -- the event loop that prices
experiment-parallel searches under GPU failures
(:mod:`~repro.cluster.failures`), and execution timelines
(:mod:`~repro.cluster.trace`).
"""

from .failures import (
    FailureModel,
    FailureRunResult,
    RetryRecord,
    expected_slowdown,
    run_with_failures,
)
from .collectives import (
    allreduce_time,
    hierarchical_allreduce_time,
    ring_allreduce,
    ring_allreduce_time,
)
from .network import (
    ETHERNET_10G,
    INFINIBAND_EDR,
    NVLINK2,
    PCIE3_X16,
    LinkSpec,
    transfer_time,
)
from .resources import (
    POWER9_NODE,
    V100_16GB,
    ClusterSpec,
    DeviceId,
    GPUSpec,
    NodeSpec,
    fits_in_gpu_memory,
    marenostrum_cte,
    unet3d_activation_bytes,
)
from .trace import Timeline, TraceEvent

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
    "LinkSpec",
    "transfer_time",
    "NVLINK2",
    "INFINIBAND_EDR",
    "PCIE3_X16",
    "ETHERNET_10G",
    "ring_allreduce_time",
    "hierarchical_allreduce_time",
    "allreduce_time",
    "ring_allreduce",
    "Timeline",
    "TraceEvent",
    "FailureModel",
    "FailureRunResult",
    "RetryRecord",
    "expected_slowdown",
    "run_with_failures",
]
