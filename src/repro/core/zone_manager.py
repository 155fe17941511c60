"""Zone manager: allocates ZNS zones in striped *zone clusters*.

Section IV of the paper: the zone manager "allocat[es] and deallocat[es]
zones as requested by the keyspace manager, and group[s] zones into clusters
to enable parallel I/O across zones".  Each cluster carries a random
rotation ("KV-CSD associates a random number with each zone cluster to
determine which zone to perform the next write") so concurrent writers do
not all hammer the same SSD channels.

A cluster stripes *groups* of data round-robin over its zones; each group is
one zone-append, so groups on different zones (hence channels) proceed in
parallel while records stay contiguous for pointer-based reads.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator

import numpy as np

from repro.errors import OutOfSpaceError, StorageError, ZoneFullError
from repro.obs.journal import journal_event
from repro.sim.sync import AllOf
from repro.ssd.zns import ZnsSsd
from repro.ssd.zone import ZoneState

__all__ = ["ZoneManager", "ZoneCluster", "ZonePointer"]

#: (zone_id, offset, length) triple locating one record/extent on the SSD.
ZonePointer = tuple[int, int, int]


class ZoneCluster:
    """A group of zones striped for parallel I/O."""

    def __init__(self, ssd: ZnsSsd, zone_ids: list[int], rotation: int):
        if not zone_ids:
            raise StorageError("a zone cluster needs at least one zone")
        self.ssd = ssd
        self.zone_ids = list(zone_ids)
        #: random starting stripe, decorrelating channel use across clusters
        self.rotation = rotation % len(zone_ids)
        self._next = self.rotation

    # -- capacity ---------------------------------------------------------------
    def _appendable(self, zone_id: int) -> int:
        """Bytes appendable to one zone: 0 once it is sealed.

        A FULL zone normally has no space left anyway, but mount seals
        torn-tail zones at a partial write pointer — routing an append there
        by raw ``remaining`` would hit the zone state machine.
        """
        zone = self.ssd.zone(zone_id)
        return 0 if zone.state == ZoneState.FULL else zone.remaining

    def remaining(self) -> int:
        """Total bytes still appendable across the cluster."""
        return sum(self._appendable(z) for z in self.zone_ids)

    def max_group(self) -> int:
        """Largest single group that currently fits in some zone."""
        return max(self._appendable(z) for z in self.zone_ids)

    def bytes_stored(self) -> int:
        return sum(self.ssd.zone(z).write_pointer for z in self.zone_ids)

    # -- writes ------------------------------------------------------------------
    def append_group(self, data: bytes) -> Generator:
        """Append ``data`` contiguously to the next zone in rotation.

        Returns a :data:`ZonePointer`.  Skips full zones; raises
        :class:`ZoneFullError` when no zone can hold the group.
        """
        for _ in range(len(self.zone_ids)):
            zone_id = self.zone_ids[self._next % len(self.zone_ids)]
            self._next += 1
            if self._appendable(zone_id) >= len(data):
                offset = yield from self.ssd.append(zone_id, data)
                return (zone_id, offset, len(data))
        raise ZoneFullError(
            f"no zone in cluster {self.zone_ids} can hold {len(data)} bytes"
        )

    def append_groups(self, groups: list[bytes]) -> Generator:
        """Append several groups concurrently (one zone each, striped).

        Returns pointers in input order.  All groups must fit; the caller
        checks :meth:`remaining` / :meth:`max_group` first.
        """
        env = self.ssd.env
        # Reserve zones synchronously first — accounting for bytes already
        # promised to earlier groups in this batch — so the batch either
        # fully fits or fails before any I/O is issued.
        planned: dict[int, int] = {}
        assignments: list[int] = []
        for group in groups:
            chosen = None
            for _ in range(len(self.zone_ids)):
                zone_id = self.zone_ids[self._next % len(self.zone_ids)]
                self._next += 1
                free = self._appendable(zone_id) - planned.get(zone_id, 0)
                if free >= len(group):
                    chosen = zone_id
                    break
            if chosen is None:
                raise ZoneFullError("cluster cannot hold the group batch")
            planned[chosen] = planned.get(chosen, 0) + len(group)
            assignments.append(chosen)
        procs = []
        for group, zone_id in zip(groups, assignments):

            def one(zone_id=zone_id, data=group):
                offset = yield from self.ssd.append(zone_id, data)
                return (zone_id, offset, len(data))

            procs.append(env.process(one()))
        result = yield AllOf(env, procs)
        return [result[p] for p in procs]

    def introspect(self) -> dict:
        """Cluster layout for device snapshots (no simulation events)."""
        return {
            "zone_ids": list(self.zone_ids),
            "rotation": self.rotation,
            "next_stripe": self._next % len(self.zone_ids),
            "bytes_stored": self.bytes_stored(),
            "remaining_bytes": self.remaining(),
        }

    # -- reads --------------------------------------------------------------------
    def read(self, pointer: ZonePointer) -> Generator:
        """Read the extent a pointer names."""
        zone_id, offset, length = pointer
        data = yield from self.ssd.read(zone_id, offset, length)
        return data

    def read_all(self) -> Generator:
        """Read every zone's contents concurrently; returns zone_id -> bytes."""
        env = self.ssd.env
        procs = []
        for zone_id in self.zone_ids:
            length = self.ssd.zone(zone_id).write_pointer

            def one(zone_id=zone_id, length=length):
                if length == 0:
                    if False:  # pragma: no cover - keep generator shape
                        yield None
                    return (zone_id, b"")
                data = yield from self.ssd.read(zone_id, 0, length)
                return (zone_id, data)

            procs.append(env.process(one()))
        result = yield AllOf(env, procs)
        return dict(result[p] for p in procs)


class ZoneManager:
    """Tracks free zones of one ZNS SSD and hands out clusters."""

    def __init__(self, ssd: ZnsSsd, rng: np.random.Generator, cluster_zones: int = 4):
        if cluster_zones < 1:
            raise StorageError("cluster size must be >= 1")
        self.ssd = ssd
        self.rng = rng
        self.cluster_zones = cluster_zones
        self._free = [
            z.zone_id for z in ssd.zones if z.state == ZoneState.EMPTY
        ]
        #: the channel of every zone, by zone id
        self._channel = [zone.channel for zone in ssd.zones]
        self._index_channels()
        self.allocated_clusters = 0

    def _index_channels(self) -> None:
        """Rebuild the per-channel queues from the free pool."""
        #: per channel, that channel's free zones in pool order (kept in step
        #: with ``_free``, so an allocation never scans the whole pool)
        self._by_channel: list[deque[int]] = [
            deque() for _ in range(self.ssd.geometry.n_channels)
        ]
        channel = self._channel
        for zone_id in self._free:
            self._by_channel[channel[zone_id]].append(zone_id)

    @property
    def free_zone_count(self) -> int:
        return len(self._free)

    def reserve_zone(self, zone_id: int) -> ZoneCluster:
        """Claim a specific zone (e.g. the fixed metadata zone) regardless of
        its current state; removes it from the free pool if present."""
        if zone_id in self._free:
            self._free.remove(zone_id)
            self._by_channel[self._channel[zone_id]].remove(zone_id)
        self.allocated_clusters += 1
        journal_event(
            self.ssd.env, "cluster.reserve", dev=self.ssd.name, zones=[zone_id]
        )
        self._record_grant(1)
        return ZoneCluster(self.ssd, [zone_id], rotation=0)

    def _record_grant(self, n_zones: int) -> None:
        """Register the granting op as a zone-pool holder (critical path).

        Zone allocation never blocks (it raises when the pool is short), so
        there are no wait edges — but the holder registry still matters:
        an op that *holds* zones shows up in other ops' DRAM/flash blocked-by
        snapshots via the shared free-pool pressure it creates.
        """
        probe = self.ssd.env.probe
        if probe is not None:
            token = probe.token()
            for _ in range(n_zones):
                probe.acquire("zones.pool", token)

    def mark_used(self, zone_ids: list[int], n_clusters: int = 0) -> None:
        """Remove recovered zones from the free pool and count the
        ``n_clusters`` recovered clusters they form (device mount)."""
        used = set(zone_ids)
        self._free = [z for z in self._free if z not in used]
        self._index_channels()
        self.allocated_clusters += n_clusters

    def rebuild_free_list(self) -> None:
        """Recompute the free pool from the SSD's zone states, keeping only
        EMPTY zones (used after orphan cleanup during recovery)."""
        currently_free = set(self._free)
        self._free = [
            z.zone_id
            for z in self.ssd.zones
            if z.state == ZoneState.EMPTY and z.zone_id in currently_free
        ]
        self._index_channels()

    def reconcile_free_list(self, used_zones: set[int] | list[int]) -> list[int]:
        """Rebuild the free pool against the set of zones in use.

        The public recovery API: after mount has determined which zones the
        metadata and every recovered keyspace own (``used_zones``) and has
        reset any orphans, this recomputes the free pool as

        * every currently-free zone that is still EMPTY and unused, in
          existing pool order, followed by
        * every other EMPTY, unused zone (reclaimed orphans and any zone
          the pool lost track of), in zone-id order.

        Returns the newly adopted zone ids — the reclaimed orphans — so the
        caller can journal/count them.  Replaces the historical pattern of
        ``rebuild_free_list()`` plus direct ``_free.append`` reach-ins.
        """
        used = set(used_zones)
        kept = [
            z
            for z in self._free
            if self.ssd.zone(z).state == ZoneState.EMPTY and z not in used
        ]
        have = set(kept)
        reclaimed = [
            z.zone_id
            for z in self.ssd.zones
            if z.state == ZoneState.EMPTY
            and z.zone_id not in used
            and z.zone_id not in have
        ]
        self._free = kept + reclaimed
        self._index_channels()
        return reclaimed

    def allocate_cluster(self, n_zones: int | None = None) -> ZoneCluster:
        """Take ``n_zones`` free zones (spread across channels) as a cluster."""
        want = n_zones or self.cluster_zones
        if len(self._free) < want:
            raise OutOfSpaceError(
                f"need {want} free zones, only {len(self._free)} available"
            )
        # Prefer zones on distinct channels so the stripe actually parallelises:
        # round-robin over the channels in ascending order, each giving up
        # its free zones in pool order.
        chosen: list[int] = []
        queues = [queue for queue in self._by_channel if queue]
        while len(chosen) < want and queues:
            for queue in queues:
                chosen.append(queue.popleft())
                if len(chosen) == want:
                    break
            queues = [queue for queue in queues if queue]
        for zone_id in chosen:
            self._free.remove(zone_id)
        rotation = int(self.rng.integers(0, want))
        self.allocated_clusters += 1
        journal_event(
            self.ssd.env, "cluster.allocate", dev=self.ssd.name,
            zones=sorted(chosen),
        )
        self._record_grant(len(chosen))
        return ZoneCluster(self.ssd, chosen, rotation)

    def append_stream(self, clusters: list[ZoneCluster], groups: list[bytes]) -> Generator:
        """Append groups across a cluster chain, growing it on demand.

        Returns one :data:`ZonePointer` per group, in order.  A group larger
        than a zone raises before anything is allocated.
        """
        if max(map(len, groups), default=0) > self.ssd.geometry.zone_size:
            raise ZoneFullError("a group larger than a zone fits no cluster")
        pointers: list[ZonePointer] = []
        if not clusters:
            clusters.append(self.allocate_cluster())
        remaining = list(groups)
        while remaining:
            try:
                pointers.extend((yield from clusters[-1].append_groups(remaining)))
                break
            except ZoneFullError:
                # Fill what still fits, one group at a time, then grow the chain.
                while remaining:
                    try:
                        ptr = yield from clusters[-1].append_group(remaining[0])
                    except ZoneFullError:
                        break
                    pointers.append(ptr)
                    remaining.pop(0)
                if remaining:
                    clusters.append(self.allocate_cluster())
        return pointers

    def release_cluster(self, cluster: ZoneCluster) -> Generator:
        """Reset a cluster's zones and return them to the free pool."""
        for zone_id in cluster.zone_ids:
            yield from self.ssd.reset_zone(zone_id)
        self._free.extend(cluster.zone_ids)
        for zone_id in cluster.zone_ids:
            self._by_channel[self._channel[zone_id]].append(zone_id)
        self.allocated_clusters -= 1
        journal_event(
            self.ssd.env, "cluster.release", dev=self.ssd.name,
            zones=sorted(cluster.zone_ids),
        )
        probe = self.ssd.env.probe
        if probe is not None:
            token = probe.token()
            for _ in cluster.zone_ids:
                probe.release("zones.pool", token)

    def introspect(self) -> dict:
        """Free-pool and allocation accounting (no simulation events)."""
        return {
            "cluster_zones": self.cluster_zones,
            "free_zone_count": len(self._free),
            "free_zones": sorted(self._free),
            "allocated_clusters": self.allocated_clusters,
        }

    def metric_gauges(self) -> dict:
        """Instantaneous gauges for MetricsHub/timeline sampling."""
        return {
            "zones.free": lambda: float(len(self._free)),
            "zones.allocated_clusters": lambda: float(self.allocated_clusters),
        }
