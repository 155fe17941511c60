"""NVMe-over-Fabrics transport: remote access to a KV-CSD.

Section II of the paper: "While our current prototype is a local PCIe
device, nothing fundamental prevents us from extending it to NVMeOF for
remote access" — envisioning flash enclosures shared by compute nodes.

:class:`NvmeOfLink` exposes the same ``send``/``receive`` interface as
:class:`~repro.nvme.transport.PcieLink`, so the client library works over
either unchanged; the difference is fabric physics: RDMA round-trip latency
in the microseconds and NIC line rate instead of PCIe lane bandwidth, plus a
per-message capsule-processing cost on the target.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.units import GB, usec

__all__ = ["NvmeOfLink", "FABRIC_100GBE", "FABRIC_25GBE"]


class NvmeOfLink:
    """A full-duplex RDMA fabric path between a host and a remote KV-CSD."""

    def __init__(
        self,
        env: Environment,
        bandwidth: float = 12.5 * GB,  # 100 GbE line rate
        latency: float = usec(6),  # one-way RDMA + switch hop
        capsule_overhead: float = usec(2),  # NVMe-oF capsule processing
        name: str = "nvmeof",
    ):
        if bandwidth <= 0 or latency < 0 or capsule_overhead < 0:
            raise SimulationError("invalid fabric parameters")
        self.env = env
        self.bandwidth = bandwidth
        self.latency = latency
        self.capsule_overhead = capsule_overhead
        self.name = name
        self._tx = Resource(env, capacity=1)
        self._rx = Resource(env, capacity=1)
        #: per direction: (span name, trace lane)
        self._spans = {op: (f"{name}.{op}", f"{name}/{op}") for op in ("tx", "rx")}
        self.bytes_tx = 0
        self.bytes_rx = 0

    def _move(self, direction: Resource, nbytes: int, op: str) -> Generator:
        seconds = (
            self.latency + self.capsule_overhead + nbytes / self.bandwidth
        )
        probe = self.env.probe
        if probe is None:
            with direction.request() as req:
                yield req
                yield self.env.timeout(seconds)
            return
        name, lane = self._spans[op]
        with probe.span(
            name, "transport", lane, {"bytes": nbytes, "busy": seconds},
            nests=False,
        ) as span:
            with direction.request() as req:
                t0 = self.env.now
                yield req
                if span is not None:
                    span.args["wait"] = self.env.now - t0
                yield self.env.timeout(seconds)

    def send(self, nbytes: int) -> Generator:
        """Host-to-target transfer."""
        if nbytes < 0:
            raise SimulationError("cannot transfer negative bytes")
        yield from self._move(self._tx, nbytes, "tx")
        self.bytes_tx += nbytes

    def receive(self, nbytes: int) -> Generator:
        """Target-to-host transfer."""
        if nbytes < 0:
            raise SimulationError("cannot transfer negative bytes")
        yield from self._move(self._rx, nbytes, "rx")
        self.bytes_rx += nbytes

    @property
    def total_bytes(self) -> int:
        return self.bytes_tx + self.bytes_rx


def FABRIC_100GBE(env: Environment) -> NvmeOfLink:
    """A 100 GbE RDMA fabric (data-centre flash enclosure)."""
    return NvmeOfLink(env, bandwidth=12.5 * GB, latency=usec(6))


def FABRIC_25GBE(env: Environment) -> NvmeOfLink:
    """A 25 GbE RDMA fabric (older cluster interconnect)."""
    return NvmeOfLink(env, bandwidth=3.1 * GB, latency=usec(10))
