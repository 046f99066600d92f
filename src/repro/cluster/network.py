"""Interconnect link models.

A link is (latency, effective bandwidth), the two terms of the classic
alpha-beta cost model ``t = alpha + bytes / beta`` that
:mod:`repro.cluster.collectives` builds on.  Presets approximate the
paper's hardware: NVLink 2.0 between the V100s of one Power9 node,
EDR InfiniBand between nodes, PCIe 3.0 to the host.  Effective
bandwidths are the ~70-80% of peak that collective libraries sustain.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LinkSpec",
    "NVLINK2",
    "INFINIBAND_EDR",
    "PCIE3_X16",
    "ETHERNET_10G",
]


@dataclass(frozen=True)
class LinkSpec:
    """Point-to-point link: start-up latency and sustained bandwidth."""

    name: str
    latency_s: float
    bandwidth_gbs: float  # GB/s (bytes * 1e-9)

    def __post_init__(self):
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth_gbs <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_gbs * 1e9


# NVLink 2.0: 3 bricks/GPU on Power9 = 75 GB/s peak per direction;
# sustained collective throughput ~70%.
NVLINK2 = LinkSpec(name="NVLink 2.0", latency_s=3e-6, bandwidth_gbs=52.0)

# EDR InfiniBand: 100 Gb/s = 12.5 GB/s peak, ~10 GB/s sustained, ~1.5 us.
INFINIBAND_EDR = LinkSpec(name="InfiniBand EDR", latency_s=1.5e-6,
                          bandwidth_gbs=10.0)

# PCIe 3.0 x16: 15.75 GB/s peak, ~12 sustained.
PCIE3_X16 = LinkSpec(name="PCIe 3.0 x16", latency_s=5e-6, bandwidth_gbs=12.0)

# Commodity alternative for the ablation sweeps.
ETHERNET_10G = LinkSpec(name="10GbE", latency_s=3e-5, bandwidth_gbs=1.1)
