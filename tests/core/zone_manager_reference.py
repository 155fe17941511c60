"""The zone allocator that rebuilt a per-channel map of the whole free pool
on every call, kept as the reference for the queue-based one."""

from __future__ import annotations

from repro.core.zone_manager import ZoneCluster, ZoneManager
from repro.errors import OutOfSpaceError
from repro.obs.journal import journal_event


class ReferenceZoneManager(ZoneManager):
    def allocate_cluster(self, n_zones: int | None = None) -> ZoneCluster:
        want = n_zones or self.cluster_zones
        if len(self._free) < want:
            raise OutOfSpaceError(
                f"need {want} free zones, only {len(self._free)} available"
            )
        by_channel: dict[int, list[int]] = {}
        for zone_id in self._free:
            by_channel.setdefault(self.ssd.geometry.channel_of_zone(zone_id), []).append(
                zone_id
            )
        chosen: list[int] = []
        channels = sorted(by_channel)
        idx = 0
        while len(chosen) < want:
            ch = channels[idx % len(channels)]
            if by_channel[ch]:
                chosen.append(by_channel[ch].pop(0))
            idx += 1
            if idx > want * len(channels) + len(channels):
                break
        if len(chosen) < want:  # not enough channel spread; take anything left
            leftovers = [z for zs in by_channel.values() for z in zs]
            chosen.extend(leftovers[: want - len(chosen)])
        chosen_set = set(chosen)
        self._free = [z for z in self._free if z not in chosen_set]
        rotation = int(self.rng.integers(0, want))
        self.allocated_clusters += 1
        journal_event(
            self.ssd.env, "cluster.allocate", dev=self.ssd.name,
            zones=sorted(chosen),
        )
        self._record_grant(len(chosen))
        return ZoneCluster(self.ssd, chosen, rotation)
