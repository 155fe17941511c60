"""Keyspaces: named containers of key-value pairs with a 4-state lifecycle.

Section IV of the paper: *"Each keyspace in KV-CSD can exist in one of the
following four states: EMPTY, WRITABLE, COMPACTING, and COMPACTED"* — with
writes only in WRITABLE, queries only in COMPACTED, and secondary indexes
addable only in COMPACTED.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.membuf import MemBuffer
from repro.errors import KeyspaceNotFoundError, KeyspaceStateError
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.sidx import SidxConfig, SidxSketch
    from repro.core.pidx import PidxSketch
    from repro.core.zone_manager import ZoneCluster
    from repro.sim.core import Environment, Event

__all__ = ["Keyspace", "KeyspaceState", "lookup"]


class KeyspaceState(enum.Enum):
    """Lifecycle states (Section IV of the paper)."""

    EMPTY = "empty"
    WRITABLE = "writable"
    COMPACTING = "compacting"
    COMPACTED = "compacted"


@dataclass
class Keyspace:
    """One keyspace's metadata as tracked by the keyspace manager.

    The in-memory keyspace table entry: state, pair count, key bounds, zone
    mappings, and the index sketches used as query starting points — what
    the metadata log persists — plus the keyspace's volatile firmware state
    (membuf, write lock, sequence number, jobs, bloom DRAM), which lives
    and dies with the entry.
    """

    name: str
    state: KeyspaceState = KeyspaceState.EMPTY
    n_pairs: int = 0
    min_key: Optional[bytes] = None
    max_key: Optional[bytes] = None
    #: unsorted log clusters (WRITABLE phase)
    klog_clusters: list["ZoneCluster"] = field(default_factory=list)
    vlog_clusters: list["ZoneCluster"] = field(default_factory=list)
    #: sorted clusters (COMPACTED phase)
    pidx_clusters: list["ZoneCluster"] = field(default_factory=list)
    sorted_value_clusters: list["ZoneCluster"] = field(default_factory=list)
    sidx_clusters: dict[str, list["ZoneCluster"]] = field(default_factory=dict)
    #: query starting points, kept in the keyspace manager's table
    pidx_sketch: Optional["PidxSketch"] = None
    sidx: dict[str, tuple["SidxConfig", "SidxSketch"]] = field(default_factory=dict)
    #: a delete of this keyspace is in flight
    deletion_pending: bool = False

    # -- volatile firmware state: SoC DRAM only, set by create and mount --------
    #: the device write buffer (the 192 KB membuf is per keyspace)
    membuf: Optional[MemBuffer] = field(default=None, compare=False, repr=False)
    #: ingestion mutex: the firmware serialises writes into one keyspace's
    #: membuf/logs (concurrent host threads sharing a keyspace queue here —
    #: why Figure 7a's KV-CSD saturates at ~2 host cores while Figure 9's
    #: multi-keyspace runs scale further)
    write_lock: Optional[Resource] = field(default=None, compare=False, repr=False)
    #: last sequence number handed to a write
    seq: int = field(default=0, compare=False)
    #: completion events of the running offloaded jobs (compaction, index
    #: builds), and the errors failed ones parked for the next wait
    jobs: list["Event"] = field(default_factory=list, compare=False, repr=False)
    job_errors: list[Exception] = field(default_factory=list, compare=False, repr=False)
    #: SoC DRAM reserved for the keyspace's index-block blooms
    bloom_dram: int = field(default=0, compare=False)

    def attach_runtime(self, env: "Environment", membuf_bytes: int, seq: int) -> None:
        """Give the entry its membuf and write lock (keyspace create, mount)."""
        self.membuf = MemBuffer(membuf_bytes)
        self.write_lock = Resource(env, capacity=1)
        self.seq = seq

    # -- state machine ---------------------------------------------------------
    def require(self, *states: KeyspaceState) -> None:
        """Raise unless the keyspace is in one of ``states``."""
        if self.state not in states:
            allowed = "/".join(s.value for s in states)
            raise KeyspaceStateError(
                f"keyspace {self.name!r} is {self.state.value}, "
                f"operation requires {allowed}"
            )

    def open_for_write(self) -> None:
        """EMPTY -> WRITABLE (idempotent while WRITABLE)."""
        self.require(KeyspaceState.EMPTY, KeyspaceState.WRITABLE)
        self.state = KeyspaceState.WRITABLE

    def begin_compaction(self) -> None:
        """WRITABLE -> COMPACTING; the keyspace becomes read-only."""
        self.require(KeyspaceState.WRITABLE)
        self.state = KeyspaceState.COMPACTING

    def finish_compaction(self) -> None:
        """COMPACTING -> COMPACTED; the keyspace becomes queryable."""
        self.require(KeyspaceState.COMPACTING)
        self.state = KeyspaceState.COMPACTED

    def observe_key(self, key: bytes) -> None:
        """Track min/max keys as data is inserted."""
        if self.min_key is None or key < self.min_key:
            self.min_key = key
        if self.max_key is None or key > self.max_key:
            self.max_key = key

    def introspect(self) -> dict:
        """Versioned state dump for the device snapshot (see obs/inspect.py).

        Pure table read: no device time, no simulation events.  Byte keys
        are hex-encoded so the snapshot is JSON-safe.
        """
        return {
            "name": self.name,
            "state": self.state.value,
            "n_pairs": self.n_pairs,
            "min_key": self.min_key.hex() if self.min_key is not None else None,
            "max_key": self.max_key.hex() if self.max_key is not None else None,
            "deletion_pending": self.deletion_pending,
            "clusters": {
                "klog": [c.introspect() for c in self.klog_clusters],
                "vlog": [c.introspect() for c in self.vlog_clusters],
                "pidx": [c.introspect() for c in self.pidx_clusters],
                "sorted_values": [
                    c.introspect() for c in self.sorted_value_clusters
                ],
                "sidx": {
                    name: [c.introspect() for c in clusters]
                    for name, clusters in sorted(self.sidx_clusters.items())
                },
            },
            "pidx_sketch": (
                self.pidx_sketch.introspect()
                if self.pidx_sketch is not None
                else None
            ),
            "sidx": {
                name: {
                    "config": {
                        "value_offset": config.value_offset,
                        "width": config.width,
                        "dtype": config.dtype,
                    },
                    "sketch": sketch.introspect(),
                }
                for name, (config, sketch) in sorted(self.sidx.items())
            },
        }

    def all_clusters(self) -> list["ZoneCluster"]:
        """Every zone cluster currently mapped to this keyspace."""
        out = (
            list(self.klog_clusters)
            + list(self.vlog_clusters)
            + list(self.pidx_clusters)
            + list(self.sorted_value_clusters)
        )
        for clusters in self.sidx_clusters.values():
            out.extend(clusters)
        return out


def lookup(table: dict[str, Keyspace], name: str) -> Keyspace:
    """``table[name]``, or :class:`KeyspaceNotFoundError`."""
    ks = table.get(name)
    if ks is None:
        raise KeyspaceNotFoundError(name)
    return ks
