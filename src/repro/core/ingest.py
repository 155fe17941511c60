"""The insertion path: bulk PUT/DELETE, fsync, and the membuf flush.

Section V of the paper: a bulk-PUT message is unpacked into the keyspace's
192 KB membuf on the SoC; a full membuf flushes, values to the keyspace's
VLOG stripe groups and keys + value pointers to its KLOG.  Tombstones go to
the KLOG directly.  Writes into one keyspace serialise on its write lock.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Sequence

import numpy as np

from repro.core.costs import CsdCostModel
from repro.core.keyspace import Keyspace, KeyspaceState, lookup
from repro.core.klog import MAX_KEY_BYTES, TOMBSTONE_LEN, pack_klog_columns
from repro.core.metalog import MetadataLog
from repro.core.vlog import pointer_columns, stripe_groups
from repro.core.zone_manager import ZoneManager
from repro.errors import DbError, KeyTooLargeError, ValueTooLargeError
from repro.host.threads import ThreadCtx
from repro.obs.trace import trace_span, trace_wait
from repro.sim.resources import Resource
from repro.sim.stats import StatsRegistry
from repro.soc.board import SocBoard

__all__ = ["Ingest"]


def admit_keys(keys: Sequence[bytes]) -> None:
    """Refuse a write command that carries a key no format can hold.

    Checked before the command buffers a pair or takes a sequence number:
    the KLOG flush and the metadata record would otherwise fail on it
    later, on somebody else's command, with the keyspace stuck.
    """
    longest = max(map(len, keys), default=0)
    if longest > MAX_KEY_BYTES:
        raise KeyTooLargeError(longest, MAX_KEY_BYTES)


class Ingest:
    """Write commands of one device, and the flush compaction starts with.

    ``inflight`` is the device's command-slot pool, shared with queries;
    ``audit`` runs the invariant auditor at a boundary.
    """

    def __init__(
        self, board: SocBoard, zone_manager: ZoneManager, costs: CsdCostModel,
        stats: StatsRegistry, metalog: MetadataLog, keyspaces: dict[str, Keyspace],
        inflight: Resource, journal: Callable[..., None], audit: Callable[[str], None],
    ):
        self.env = board.env
        self.board = board
        self.zone_manager = zone_manager
        self.costs = costs
        self.stats = stats
        self.metalog = metalog
        self.keyspaces = keyspaces
        self._inflight = inflight
        self._journal = journal
        self._audit = audit

    def bulk_put(
        self, name: str, keys: Sequence[bytes], values: Sequence[bytes],
        message_bytes: int, ctx: ThreadCtx,
    ) -> Generator:
        """Ingest one bulk-PUT message, given as key and value columns, into
        the keyspace's membuf."""
        with self._inflight.request() as slot:
            yield from trace_wait(self.env, slot, "dev.inflight_wait")
            ks = lookup(self.keyspaces, name)
            ks.require(KeyspaceState.WRITABLE)
            n = len(keys)
            if len(values) != n:
                raise DbError(f"bulk PUT carries {n} keys but {len(values)} values")
            admit_keys(keys)
            # a value is one VLOG group and a group lives in one zone: a
            # longer value would have the flush drain the zone pool
            longest = max(map(len, values), default=0)
            if longest > self.board.ssd.geometry.zone_size:
                raise ValueTooLargeError(longest, self.board.ssd.geometry.zone_size)
            with ks.write_lock.request() as lock:
                yield from trace_wait(self.env, lock, "dev.write_lock_wait")
                yield from self.board.charge(
                    ctx,
                    self.costs.request_overhead
                    + self.costs.unpack_per_byte * message_bytes
                    + self.costs.membuf_insert_per_pair * n,
                )
                if n:
                    ks.membuf.extend(keys, values, ks.seq + 1)
                    ks.seq += n
                    ks.observe_key(min(keys))
                    ks.observe_key(max(keys))
                ks.n_pairs += n
                self.stats.counter("pairs_inserted").add(n)
                if ks.membuf.should_flush:
                    yield from self.flush(ks, ctx)

    def bulk_delete(self, name: str, keys: list[bytes], ctx: ThreadCtx) -> Generator:
        """Record tombstones; masked pairs disappear during compaction."""
        with self._inflight.request() as slot:
            yield from trace_wait(self.env, slot, "dev.inflight_wait")
            ks = lookup(self.keyspaces, name)
            ks.require(KeyspaceState.WRITABLE)
            admit_keys(keys)
            with ks.write_lock.request() as lock:
                yield from trace_wait(self.env, lock, "dev.write_lock_wait")
                yield from self.board.charge(
                    ctx,
                    self.costs.request_overhead
                    + self.costs.membuf_insert_per_pair * len(keys),
                )
                if not keys:
                    return  # charged like any request; nothing to record
                first_seq = ks.seq + 1
                ks.seq += len(keys)
                no_pointer = np.zeros(len(keys), dtype=np.int64)
                blob = pack_klog_columns(
                    keys,
                    np.arange(first_seq, first_seq + len(keys)),
                    no_pointer,
                    no_pointer,
                    np.full(len(keys), TOMBSTONE_LEN),
                )
                clusters_before = len(ks.klog_clusters)
                yield from self.zone_manager.append_stream(ks.klog_clusters, [blob])
                if len(ks.klog_clusters) != clusters_before:
                    yield from self.metalog.upsert(ctx, ks)
                self.stats.counter("tombstones").add(len(keys))

    def fsync(self, name: str, ctx: ThreadCtx) -> Generator:
        """Make all acknowledged writes durable (Section VI: "Like RocksDB
        and others, KV-CSD ... supports explicit 'fsync'").

        Flushes the keyspace's membuf to its KLOG/VLOG zones, closing the
        volatility window a power loss would otherwise claim.
        """
        ks = lookup(self.keyspaces, name)
        ks.require(KeyspaceState.WRITABLE, KeyspaceState.EMPTY)
        if ks.state is KeyspaceState.EMPTY:
            return
        with ks.write_lock.request() as lock:
            yield from trace_wait(self.env, lock, "dev.write_lock_wait")
            yield from self.board.charge(ctx, self.costs.request_overhead)
            yield from self.flush(ks, ctx)
        self.stats.counter("fsyncs").add()

    def flush(self, ks: Keyspace, ctx: ThreadCtx) -> Generator:
        """Write buffered pairs: values to VLOG, keys+pointers to KLOG.

        The caller holds the keyspace's write lock.
        """
        keys, values, seqs = ks.membuf.drain()
        if not keys:
            return
        charge, append = self.board.charge, self.zone_manager.append_stream
        with trace_span(self.env, "dev.flush", "stage", pairs=len(keys)):
            clusters_before = len(ks.klog_clusters) + len(ks.vlog_clusters)
            # Values go to VLOG stripe groups; each value's place in its
            # group plus the group's pointer is the KLOG record's pointer.
            lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
            groups, group_index, group_off = stripe_groups(b"".join(values), lengths)
            yield from charge(
                ctx, self.costs.block_build_per_byte * sum(map(len, groups))
            )
            group_zone, group_start = pointer_columns(
                (yield from append(ks.vlog_clusters, groups))
            )
            blob = pack_klog_columns(
                keys,
                seqs,
                group_zone[group_index],
                group_start[group_index] + group_off,
                lengths,
            )
            yield from charge(ctx, self.costs.block_build_per_byte * len(blob))
            yield from append(ks.klog_clusters, [blob])
            if len(ks.klog_clusters) + len(ks.vlog_clusters) != clusters_before:
                # New zone clusters joined the keyspace: persist the mapping
                # so a power cycle can find the data (the keyspace table is
                # the only pointer to these zones).
                yield from self.metalog.upsert(ctx, ks)
            self.stats.counter("membuf_flushes").add()
        self._journal("membuf.flush", keyspace=ks.name, pairs=len(keys))
        self._audit("flush")
