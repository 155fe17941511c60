"""The host<->device link: PCIe lanes or an NVMe-over-Fabrics path.

The client library talks to the KV-CSD device over PCIe (16 lanes of Gen3 in
the paper's testbed, Table I); :mod:`repro.nvme.fabric` builds the same
:class:`Link` over an RDMA fabric, so the client works over either
unchanged.  A link is full-duplex: independent TX and RX directions, each a
capacity-1 resource occupied ``latency + overhead + bytes/bandwidth`` per
transfer.  ``overhead`` is the per-message capsule processing an NVMe-oF
target adds; it is 0.0 on PCIe, where DMA setup is part of the latency term.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.units import GB, usec

__all__ = ["Link", "PcieLink"]

#: Usable bandwidth of one PCIe Gen3 lane after encoding/protocol overhead.
GEN3_LANE_BW = 0.985 * GB


class Link:
    """A full-duplex connection between a host and one device."""

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        latency: float,
        overhead: float = 0.0,
        name: str = "link",
    ):
        if bandwidth <= 0 or latency < 0 or overhead < 0:
            raise SimulationError("invalid link parameters")
        self.env = env
        self.bandwidth = bandwidth
        self.latency = latency
        self.overhead = overhead
        self.name = name
        self._tx = Resource(env, capacity=1)
        self._rx = Resource(env, capacity=1)
        #: per direction: (span name, trace lane)
        self._spans = {op: (f"{name}.{op}", f"{name}/{op}") for op in ("tx", "rx")}
        #: cumulative bytes moved each way, for data-movement reporting
        self.bytes_tx = 0
        self.bytes_rx = 0
        #: transfer counts each way (command capsules down, results up) —
        #: with async queue pairs, ops_tx - ops_rx approximates commands
        #: posted but not yet answered
        self.ops_tx = 0
        self.ops_rx = 0

    def _move(self, direction: Resource, nbytes: int, op: str) -> Generator:
        seconds = self.latency + self.overhead + nbytes / self.bandwidth
        probe = self.env.probe
        if probe is None:
            # Untraced fast path: no span objects, but acquisition still
            # passes through the queue so the occupancy timeout keeps the
            # seed's event-counter position.
            with direction.request() as queued:
                yield queued
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
        """Host-to-device transfer of ``nbytes`` (e.g. a PUT payload)."""
        if nbytes < 0:
            raise SimulationError("cannot transfer negative bytes")
        yield from self._move(self._tx, nbytes, "tx")
        self.bytes_tx += nbytes
        self.ops_tx += 1

    def receive(self, nbytes: int) -> Generator:
        """Device-to-host transfer of ``nbytes`` (e.g. query results)."""
        if nbytes < 0:
            raise SimulationError("cannot transfer negative bytes")
        yield from self._move(self._rx, nbytes, "rx")
        self.bytes_rx += nbytes
        self.ops_rx += 1

    @property
    def total_bytes(self) -> int:
        """All bytes that crossed the link in either direction."""
        return self.bytes_tx + self.bytes_rx


def PcieLink(
    env: Environment,
    lanes: int = 16,
    lane_bandwidth: float = GEN3_LANE_BW,
    latency: float = usec(0.9),
    name: str = "pcie",
) -> Link:
    """A local PCIe connection of ``lanes`` lanes."""
    if lanes < 1:
        raise SimulationError("a PCIe link needs at least one lane")
    return Link(env, lanes * lane_bandwidth, latency, name=name)
