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

It also hosts the *serving* capacity model (ROADMAP item 1): given a
replica's measured per-sample service time and per-invocation dispatch
overhead, size a micro-batched replica pool for a target request rate
(:func:`plan_serving_capacity`).

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
           "plan_deployment", "PAPER_DATASET_BYTES",
           "ServingWorkload", "ServingCapacityPlan", "plan_serving_capacity"]

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


# ---------------------------------------------------------------------------
# Serving capacity model (repro.serve sizing)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServingWorkload:
    """Measured per-replica cost of serving one micro-batch.

    A replica invocation of ``k`` requests costs
    ``dispatch_overhead_s + k * service_s``: the per-sample forward time
    is batch-invariant on this stack (replicas run the serial
    ``full_volume_inference`` loop to stay bit-identical), so batching
    buys amortised *dispatch* (IPC, pickle, queue hand-off), not faster
    GEMM.  Both numbers come straight out of ``BENCH_serving.json``.
    """

    service_s: float                # per-sample model time
    dispatch_overhead_s: float = 0.0  # per-invocation fixed cost
    max_batch: int = 8
    max_delay_s: float = 0.05       # batcher deadline budget

    def __post_init__(self):
        if self.service_s <= 0:
            raise ValueError("service_s must be positive")
        if self.dispatch_overhead_s < 0:
            raise ValueError("dispatch_overhead_s must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")

    def batch_seconds(self, batch: int) -> float:
        """Wall seconds one replica spends serving a batch of ``batch``."""
        if not 1 <= batch <= self.max_batch:
            raise ValueError(f"batch must be in [1, {self.max_batch}]")
        return self.dispatch_overhead_s + batch * self.service_s

    def replica_throughput_rps(self, batch: int) -> float:
        """Steady-state requests/s of one replica at a fixed batch size."""
        return batch / self.batch_seconds(batch)


@dataclass(frozen=True)
class ServingCapacityPlan:
    """Replica-pool sizing for a target arrival rate."""

    replicas: int
    batch: int                    # batch size the plan assumes
    target_rps: float
    capacity_rps: float           # pool throughput at that batch size
    latency_bound_s: float        # worst-case queue delay + one batch

    @property
    def headroom(self) -> float:
        """capacity / demand (>= 1.0 by construction)."""
        return self.capacity_rps / self.target_rps


def plan_serving_capacity(
    workload: ServingWorkload,
    target_rps: float,
    utilization: float = 0.8,
) -> ServingCapacityPlan:
    """Size the replica pool for ``target_rps`` open-loop traffic.

    Picks the batch size (<= ``max_batch``) that minimises replica count
    and, at a tie, latency; pools are sized so demand stays below
    ``utilization`` of capacity (queueing headroom).  The latency bound
    is the batcher's worst case: a request can wait ``max_delay_s`` for
    its batch to fill, then one full batch service time.
    """
    if target_rps <= 0:
        raise ValueError("target_rps must be positive")
    if not 0 < utilization <= 1:
        raise ValueError("utilization must be in (0, 1]")
    best: ServingCapacityPlan | None = None
    for batch in range(1, workload.max_batch + 1):
        per_replica = workload.replica_throughput_rps(batch)
        replicas = max(1, math.ceil(target_rps / (per_replica * utilization)))
        plan = ServingCapacityPlan(
            replicas=replicas,
            batch=batch,
            target_rps=target_rps,
            capacity_rps=replicas * per_replica,
            latency_bound_s=workload.max_delay_s + workload.batch_seconds(batch),
        )
        if (best is None
                or plan.replicas < best.replicas
                or (plan.replicas == best.replicas
                    and plan.latency_bound_s < best.latency_bound_s)):
            best = plan
    assert best is not None
    return best
