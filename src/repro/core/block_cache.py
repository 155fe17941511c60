"""SoC DRAM block cache for device-resident index and value blocks.

The paper's device "does not cache data in host or device memory" — every
GET re-pays one PIDX block read plus one value-extent read on the SSD.  A
few MiB of the SoC's 8 GB DDR4 spent on an LRU block cache removes that
cost for repeated and skewed (Zipfian) query workloads, which is the
standard production deployment shape.  Capacity is carved from
:class:`repro.soc.board.SocSpec` (``block_cache_bytes``); entries are keyed
by the exact extent read (zone id, offset, length), so the cache sits
directly under :class:`repro.core.query.QueryEngine`'s block-read path and
serves PIDX blocks, SIDX blocks and page-coalesced value extents alike.

Correctness: zones are recycled (compaction drops old logs; deleted
keyspaces free their clusters), so the device invalidates every cached
extent of a zone whenever that zone is released or reset — a stale hit can
never survive zone reuse.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.zone_manager import ZonePointer
from repro.errors import SimulationError
from repro.sim.stats import StatsRegistry

__all__ = ["BlockCache"]


class BlockCache:
    """A byte-capacity-bounded LRU cache of SSD extents in SoC DRAM."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise SimulationError("block cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[ZonePointer, bytes] = OrderedDict()
        #: extents indexed by zone so invalidation is O(zone's entries)
        self._by_zone: dict[int, set[ZonePointer]] = {}
        self.used_bytes = 0
        self.stats = StatsRegistry("block_cache")
        # Pre-create every counter so a metrics scrape sees explicit zeros
        # (Prometheus consumers need the series to exist before the first
        # lookup/eviction/invalidation to rate() over it).
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._insertions = self.stats.counter("insertions")
        self._evictions = self.stats.counter("evictions")
        self._invalidations = self.stats.counter("invalidations")

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookups ------------------------------------------------------------
    def get(self, pointer: ZonePointer) -> bytes | None:
        """The cached blob for ``pointer``, refreshed to most-recently-used."""
        blob = self._entries.get(pointer)
        if blob is None:
            self._misses.add()
            return None
        self._entries.move_to_end(pointer)
        self._hits.add()
        return blob

    def put(self, pointer: ZonePointer, blob: bytes) -> None:
        """Insert (or refresh) one extent, evicting LRU entries to fit."""
        if len(blob) > self.capacity_bytes:
            return  # larger than the whole cache: not cacheable
        old = self._entries.pop(pointer, None)
        if old is not None:
            self.used_bytes -= len(old)
        self._entries[pointer] = blob
        self._by_zone.setdefault(pointer[0], set()).add(pointer)
        self.used_bytes += len(blob)
        while self.used_bytes > self.capacity_bytes:
            victim, victim_blob = self._entries.popitem(last=False)
            self._forget(victim, victim_blob)
            self._evictions.add()
        self._insertions.add()

    # -- invalidation -------------------------------------------------------
    def invalidate_zone(self, zone_id: int) -> None:
        """Drop every cached extent of ``zone_id`` (zone released/reset)."""
        pointers = self._by_zone.pop(zone_id, None)
        if not pointers:
            return
        for pointer in pointers:
            blob = self._entries.pop(pointer, None)
            if blob is not None:
                self.used_bytes -= len(blob)
                self._invalidations.add()

    def clear(self) -> None:
        """Drop everything (device reset/recovery)."""
        self._entries.clear()
        self._by_zone.clear()
        self.used_bytes = 0

    def _forget(self, pointer: ZonePointer, blob: bytes) -> None:
        self.used_bytes -= len(blob)
        members = self._by_zone.get(pointer[0])
        if members is not None:
            members.discard(pointer)
            if not members:
                del self._by_zone[pointer[0]]

    # -- reporting ----------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Hit fraction of all lookups; 0.0 before the first one."""
        lookups = self._hits.value + self._misses.value
        return self._hits.value / lookups if lookups else 0.0

    def report(self) -> dict:
        """Observability snapshot for the device report / benchmarks."""
        return {
            "capacity_bytes": self.capacity_bytes,
            "used_bytes": self.used_bytes,
            "entries": len(self._entries),
            "hits": self._hits.value,
            "misses": self._misses.value,
            "hit_rate": self.hit_rate,
            "evictions": self._evictions.value,
            "invalidations": self._invalidations.value,
        }

    def introspect(self) -> dict:
        """Device-snapshot state: the report plus zone residency."""
        out = self.report()
        out["zones_cached"] = sorted(self._by_zone)
        return out

    def iter_entries(self):
        """(pointer, blob) view for the invariant auditor (no mutation)."""
        return self._entries.items()
