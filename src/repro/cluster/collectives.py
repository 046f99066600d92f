"""Collective-communication cost models.

Analytic time estimates for ring and hierarchical all-reduce under
the alpha-beta link model.  These drive the simulated Table I
reproduction: the paper's data-parallel method pays a NVLink ring
inside each 4-GPU node plus an InfiniBand ring across node leaders once
more than one node is used (NCCL's hierarchical strategy).

The algorithm the ring model prices is executed for real by
:func:`ring_allreduce`, defined next to its caller, the data-parallel
trainer, in :mod:`repro.raysim.sgd` and re-exported here (simulator ->
executed, never the other way).
"""

from __future__ import annotations

import math

from ..raysim.sgd import ring_allreduce
from .network import LinkSpec

__all__ = [
    "ring_allreduce_time",
    "hierarchical_allreduce_time",
    "allreduce_time",
    "ring_allreduce",
]


def ring_allreduce_time(nbytes: int, n: int, link: LinkSpec) -> float:
    """Ring all-reduce: 2(n-1) steps each moving ``nbytes/n``.

    t = 2 (n-1) (alpha + nbytes / (n * beta))
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0.0
    chunk = nbytes / n
    return 2 * (n - 1) * (link.latency_s + chunk / link.bandwidth_bytes_per_s)


def hierarchical_allreduce_time(
    nbytes: int,
    gpus_per_node: int,
    num_nodes: int,
    intra_link: LinkSpec,
    inter_link: LinkSpec,
) -> float:
    """NCCL-style hierarchical all-reduce over ``num_nodes`` nodes of
    ``gpus_per_node`` GPUs:

    1. ring reduce-scatter + all-gather inside each node (NVLink),
    2. ring all-reduce of the node-local results across node leaders
       (InfiniBand),
    3. intra-node broadcast of the final result (counted inside the
       first ring's all-gather phase re-run at half cost).
    """
    if gpus_per_node < 1 or num_nodes < 1:
        raise ValueError("counts must be >= 1")
    t = 0.0
    if gpus_per_node > 1:
        t += ring_allreduce_time(nbytes, gpus_per_node, intra_link)
    if num_nodes > 1:
        t += ring_allreduce_time(nbytes, num_nodes, inter_link)
        if gpus_per_node > 1:
            # re-broadcast the globally reduced buffer inside the node
            t += 0.5 * ring_allreduce_time(nbytes, gpus_per_node, intra_link)
    return t


def allreduce_time(
    nbytes: int,
    num_gpus: int,
    gpus_per_node: int,
    intra_link: LinkSpec,
    inter_link: LinkSpec,
) -> float:
    """Dispatch on topology: single GPU is free, a single node uses the
    NVLink ring, multiple nodes use the hierarchical algorithm over the
    densely packed layout (the paper's three cases of Section III-B2)."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if num_gpus == 1:
        return 0.0
    if num_gpus <= gpus_per_node:
        return ring_allreduce_time(nbytes, num_gpus, intra_link)
    num_nodes = math.ceil(num_gpus / gpus_per_node)
    return hierarchical_allreduce_time(
        nbytes, gpus_per_node, num_nodes, intra_link, inter_link
    )
