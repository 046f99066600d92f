"""Data-deployment cost model (the Fig 1 'data deployment' stage).

Before any training starts, the binarised dataset must reach the nodes
that will read it.  The paper lists "data transformation, data
deployment and process placement" as the pipeline stages that must be
"properly engineered" (Section I); this module prices the deployment
options so their impact on the Table I elapsed times can be bounded:

* ``shared_fs``  -- data stays on the parallel filesystem (GPFS);
  deployment is free but every epoch pays the (slower, contended)
  shared-FS read, modelled as a bandwidth haircut;
* ``stage_to_nodes`` -- copy the dataset once to node-local storage
  over the fabric, sequentially or with a broadcast tree.

Unit convention: storage sizes and read bandwidths in this module are
**binary** (GiB, GiB/s, via :data:`GIB`); network links (``LinkSpec``)
keep their documented decimal GB/s.  An earlier revision priced read
bandwidth in decimal GB/s against GiB footprints, skewing the
staged-vs-shared comparison by ~7%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cluster.network import LinkSpec

__all__ = ["GIB", "DatasetFootprint", "staging_time", "DeploymentPlan",
           "plan_deployment", "PAPER_DATASET_BYTES"]

#: One binary gibibyte -- the storage/read-bandwidth unit of this module.
GIB = 2**30

# 484 subjects x (4 x 240 x 240 x 152 image + 240 x 240 x 152 mask) float32.
PAPER_DATASET_BYTES = 484 * (4 + 1) * 240 * 240 * 152 * 4


@dataclass(frozen=True)
class DatasetFootprint:
    """Size of the binarised training set."""

    total_bytes: int = PAPER_DATASET_BYTES

    def __post_init__(self):
        if self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive")

    @property
    def gib(self) -> float:
        return self.total_bytes / GIB


def staging_time(
    footprint: DatasetFootprint,
    num_nodes: int,
    link: LinkSpec,
    tree: bool = True,
) -> float:
    """Seconds to place a full copy on every node.

    ``tree=True`` uses a binomial broadcast (each node that holds the
    data forwards it): ceil(log2(nodes)) full-dataset transfers on the
    critical path.  ``tree=False`` pushes sequentially from one source.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if num_nodes == 1:
        return 0.0
    per_copy = link.latency_s + footprint.total_bytes / link.bandwidth_bytes_per_s
    hops = math.ceil(math.log2(num_nodes)) if tree else (num_nodes - 1)
    return hops * per_copy


@dataclass(frozen=True)
class DeploymentPlan:
    strategy: str
    upfront_seconds: float
    per_epoch_read_seconds: float

    def total_seconds(self, epochs: int) -> float:
        if epochs < 0:
            raise ValueError("epochs must be >= 0")
        return self.upfront_seconds + epochs * self.per_epoch_read_seconds


def plan_deployment(
    footprint: DatasetFootprint,
    num_nodes: int,
    fabric: LinkSpec,
    local_read_gibs: float = 2.0,
    shared_read_gibs: float = 0.8,
    strategy: str = "stage_to_nodes",
) -> DeploymentPlan:
    """Price a deployment strategy for one training run.

    Read bandwidths are binary GiB/s, matching ``DatasetFootprint.gib``
    (so ``footprint.gib / local_read_gibs`` round-trips exactly).
    Per-epoch read time assumes the whole training set is read once per
    epoch (prefetching overlaps it with compute; what matters for the
    comparison is the *relative* read cost).
    """
    if local_read_gibs <= 0 or shared_read_gibs <= 0:
        raise ValueError("read bandwidths must be positive")
    if strategy == "shared_fs":
        return DeploymentPlan(
            strategy=strategy,
            upfront_seconds=0.0,
            per_epoch_read_seconds=footprint.total_bytes / (shared_read_gibs * GIB),
        )
    if strategy == "stage_to_nodes":
        return DeploymentPlan(
            strategy=strategy,
            upfront_seconds=staging_time(footprint, num_nodes, fabric),
            per_epoch_read_seconds=footprint.total_bytes / (local_read_gibs * GIB),
        )
    raise ValueError(f"unknown strategy {strategy!r}")
