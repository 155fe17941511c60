"""NVMe-over-Fabrics transport: remote access to a KV-CSD.

Section II of the paper: "While our current prototype is a local PCIe
device, nothing fundamental prevents us from extending it to NVMeOF for
remote access" — envisioning flash enclosures shared by compute nodes.

:func:`NvmeOfLink` builds the same :class:`~repro.nvme.transport.Link` as
:func:`~repro.nvme.transport.PcieLink`, so the client library works over
either unchanged; the difference is fabric physics: RDMA round-trip latency
in the microseconds and NIC line rate instead of PCIe lane bandwidth, plus a
per-message capsule-processing cost on the target.
"""

from __future__ import annotations

from repro.nvme.transport import Link
from repro.sim.core import Environment
from repro.units import GB, usec

__all__ = ["NvmeOfLink", "FABRIC_100GBE", "FABRIC_25GBE"]


def NvmeOfLink(
    env: Environment,
    bandwidth: float = 12.5 * GB,  # 100 GbE line rate
    latency: float = usec(6),  # one-way RDMA + switch hop
    capsule_overhead: float = usec(2),  # NVMe-oF capsule processing
    name: str = "nvmeof",
) -> Link:
    """A full-duplex RDMA fabric path between a host and a remote KV-CSD."""
    return Link(env, bandwidth, latency, capsule_overhead, name=name)


def FABRIC_100GBE(env: Environment) -> Link:
    """A 100 GbE RDMA fabric (data-centre flash enclosure)."""
    return NvmeOfLink(env, bandwidth=12.5 * GB, latency=usec(6))


def FABRIC_25GBE(env: Environment) -> Link:
    """A 25 GbE RDMA fabric (older cluster interconnect)."""
    return NvmeOfLink(env, bandwidth=3.1 * GB, latency=usec(10))
