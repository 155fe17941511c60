"""Functional model of an NVMe Zoned-Namespace SSD.

The device exposes zone append/read/reset/finish operations; every operation
is a simulation generator that occupies the zone's NAND channel for the time
given by the latency model, so concurrent I/O across *different* channels
proceeds in parallel while I/O to the same channel queues — exactly the
contention KV-CSD's zone-cluster striping is designed around (Section IV of
the paper).

Data is stored for real; reads return the bytes that were appended.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.errors import StorageError
from repro.obs.journal import journal_event
from repro.ssd.faults import PowerCut
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.ssd.geometry import SsdGeometry
from repro.ssd.latency import NandLatencyModel
from repro.ssd.metrics import IoStats
from repro.ssd.zone import Zone, ZoneState

__all__ = ["ZnsSsd"]


class ZnsSsd:
    """A ZNS SSD: an array of zones striped across NAND channels."""

    def __init__(
        self,
        env: Environment,
        geometry: SsdGeometry | None = None,
        latency: NandLatencyModel | None = None,
        name: str = "zns0",
    ):
        self.env = env
        self.geometry = geometry or SsdGeometry()
        self.latency = latency or NandLatencyModel()
        self.name = name
        self.zones: list[Zone] = [
            Zone(zid, self.geometry.zone_size, self.geometry.channel_of_zone(zid))
            for zid in range(self.geometry.n_zones)
        ]
        self._channels = [
            Resource(env, capacity=1) for _ in range(self.geometry.n_channels)
        ]
        self._lanes = [f"{name}/ch{c}" for c in range(self.geometry.n_channels)]
        self.stats = IoStats()
        #: optional fault-injection plan (see :mod:`repro.ssd.faults`)
        self.faults = None

    # -- helpers --------------------------------------------------------------
    def zone(self, zone_id: int) -> Zone:
        """The zone object for ``zone_id`` (bounds-checked)."""
        if not 0 <= zone_id < len(self.zones):
            raise StorageError(f"zone id {zone_id} out of range for {self.name}")
        return self.zones[zone_id]

    def _occupy_channel(
        self, channel: int, seconds: float, span_name: str, nbytes: int = 0
    ) -> Generator:
        res = self._channels[channel]
        probe = self.env.probe
        if probe is None:
            # Unobserved fast path: no span objects, but the channel is still
            # acquired through the queue — a synchronous take would reorder
            # same-instant completions under channel contention.
            with res.request() as queued:
                yield queued
                yield self.env.timeout(seconds)
            self.stats.record_channel_busy(channel, seconds)
            return
        with probe.span(
            span_name, "flash", self._lanes[channel],
            {"busy": seconds, "bytes": nbytes}, nests=False,
        ) as span:
            with res.request() as req:
                t0 = self.env.now
                yield req
                if span is not None:
                    span.args["wait"] = self.env.now - t0
                yield self.env.timeout(seconds)
        self.stats.record_channel_busy(channel, seconds)

    # -- operations (simulation generators) -----------------------------------
    def append(self, zone_id: int, data: bytes) -> Generator:
        """Append ``data`` to a zone; returns the intra-zone byte offset.

        The zone's space is claimed *before* the channel time elapses so that
        two concurrent appends to one zone cannot both observe the same write
        pointer (the device serialises appends per zone in hardware).
        """
        zone = self.zone(zone_id)
        if self.faults is not None:
            try:
                self.faults.check_write()
            except StorageError:
                journal_event(
                    self.env, "fault.trip", dev=self.name, op="write",
                    zone=zone_id,
                )
                raise
            keep = self.faults.check_torn_write(len(data))
            if keep is not None:
                # Mid-write power loss: only a prefix reaches flash.  The
                # journal line is best-effort (the environment dies with the
                # PowerCut); the surviving evidence is the torn zone tail.
                if keep:
                    zone.append(memoryview(data)[:keep])
                journal_event(
                    self.env, "power.cut", dev=self.name, op="torn_append",
                    zone=zone_id, kept=keep, intended=len(data),
                )
                raise PowerCut(
                    f"torn append to zone {zone_id}: "
                    f"{keep}/{len(data)} bytes persisted"
                )
        offset = zone.append(data)  # validates state/space, claims range
        yield from self._occupy_channel(
            zone.channel, self.latency.write_time(len(data)), "nand.append",
            len(data),
        )
        self.stats.record_write(len(data))
        return offset

    def read(self, zone_id: int, offset: int, length: int) -> Generator:
        """Read ``length`` bytes at ``offset`` within a zone; returns bytes."""
        zone = self.zone(zone_id)
        if self.faults is not None:
            try:
                self.faults.check_read()
            except StorageError:
                journal_event(
                    self.env, "fault.trip", dev=self.name, op="read",
                    zone=zone_id,
                )
                raise
        data = zone.read(offset, length)  # validates the range
        yield from self._occupy_channel(
            zone.channel, self.latency.read_time(length), "nand.read", length
        )
        self.stats.record_read(length)
        return data

    def reset_zone(self, zone_id: int) -> Generator:
        """Reset a zone: discard its data and rewind the write pointer."""
        self._check_powered()
        zone = self.zone(zone_id)
        yield from self._occupy_channel(
            zone.channel, self.latency.erase_time(), "nand.erase"
        )
        zone.reset()
        self.stats.record_erase()

    def finish_zone(self, zone_id: int) -> Generator:
        """Transition a zone to FULL; costs one command overhead."""
        self._check_powered()
        zone = self.zone(zone_id)
        yield from self._occupy_channel(
            zone.channel, self.latency.command_overhead, "nand.finish"
        )
        zone.finish()

    def _check_powered(self) -> None:
        """Zone-management ops mutate flash state too: a power-cut device
        must not erase or seal anything (cleanup paths unwinding through a
        :class:`PowerCut` would otherwise destroy evidence the remount
        needs)."""
        if self.faults is not None and self.faults.power_cut:
            raise PowerCut("device is powered off")

    # -- power-cycle support ---------------------------------------------------
    def flash_state(self) -> list[tuple[str, bytes]]:
        """The power-safe state of every zone: ``(state, data)`` pairs.

        Exactly what survives a power cut — zone contents and state machine
        positions; everything else (channel queues, stats, fault plans) is
        volatile.  Pure state read, no simulation events.
        """
        return [(zone.state.value, bytes(zone._data)) for zone in self.zones]

    def load_flash_state(self, snapshot: list[tuple[str, bytes]]) -> None:
        """Install a flash snapshot taken from an identical-geometry device.

        Used by crash harnesses to model a power cycle: snapshot the dying
        device's flash, construct a fresh SSD in a fresh environment, load
        the snapshot, and mount.
        """
        if len(snapshot) != len(self.zones):
            raise StorageError(
                f"flash snapshot has {len(snapshot)} zones, "
                f"device has {len(self.zones)}"
            )
        for zone, (state, data) in zip(self.zones, snapshot):
            if len(data) > zone.capacity:
                raise StorageError(
                    f"snapshot zone {zone.zone_id} holds {len(data)} bytes, "
                    f"capacity is {zone.capacity}"
                )
            zone._data = bytearray(data)
            zone.state = ZoneState(state)

    # -- inspection ------------------------------------------------------------
    def zones_in_state(self, state: ZoneState) -> list[int]:
        """Zone ids currently in ``state``."""
        return [z.zone_id for z in self.zones if z.state == state]

    @property
    def free_zones(self) -> int:
        """Number of EMPTY zones."""
        return sum(1 for z in self.zones if z.state == ZoneState.EMPTY)

    def bytes_stored(self) -> int:
        """Total bytes currently held across all zones."""
        return sum(z.write_pointer for z in self.zones)

    def introspect(self) -> dict:
        """Zone table + I/O counters for device snapshots.

        Pure state read (no channel time, no simulation events).  The
        per-zone table lists only non-EMPTY zones — on a mostly-idle device
        the interesting rows — while ``zones_by_state`` carries the full
        population counts.
        """
        by_state = {state.value: 0 for state in ZoneState}
        table = []
        for zone in self.zones:
            by_state[zone.state.value] += 1
            if zone.state is not ZoneState.EMPTY:
                table.append(
                    {
                        "zone_id": zone.zone_id,
                        "state": zone.state.value,
                        "write_pointer": zone.write_pointer,
                        "capacity": zone.capacity,
                        "channel": zone.channel,
                    }
                )
        return {
            "name": self.name,
            "geometry": {
                "n_channels": self.geometry.n_channels,
                "n_zones": self.geometry.n_zones,
                "zone_size": self.geometry.zone_size,
            },
            "zones_by_state": by_state,
            "bytes_stored": self.bytes_stored(),
            "open_or_full_zones": table,
            "io": {
                "bytes_read": self.stats.bytes_read,
                "bytes_written": self.stats.bytes_written,
                "read_ops": self.stats.read_ops,
                "write_ops": self.stats.write_ops,
                "erase_ops": self.stats.erase_ops,
            },
            "faults": (
                self.faults.introspect() if self.faults is not None else None
            ),
        }
