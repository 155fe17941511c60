"""The KV-CSD device: keyspace manager, write path, and offloaded jobs.

This is the firmware that runs on the SoC (Figure 4 of the paper): a
keyspace manager maintaining the in-memory keyspace table (backed by a
metadata zone), a zone manager handing out striped zone clusters, the
membuf -> KLOG/VLOG insertion path, asynchronous device-side compaction
(external merge sort under the DRAM budget), secondary-index construction,
and query execution.

Every operation executes as simulation processes on the SoC's CPU pool and
its SSD's channels — the host is *not* involved beyond sending commands and
receiving results, which is the paper's entire point.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from contextlib import contextmanager

import numpy as np

from repro.core.block_cache import BlockCache
from repro.core.costs import CsdCostModel
from repro.core.keyspace import Keyspace, KeyspaceState
from repro.core.klog import (
    MAX_KEY_BYTES,
    TOMBSTONE_LEN,
    KlogColumns,
    column_key_bytes,
    pack_klog_columns,
    unpack_klog_records_prefix,
)
from repro.core.membuf import MEMBUF_BYTES, MemBuffer
from repro.core.metalog import MetadataLog
from repro.core.pidx import PidxColumns, PidxPacker, PidxSketch, block_entry_counts
from repro.core.query import QueryEngine
from repro.core.scheduler import QueryScheduler
from repro.core.sidx import SidxColumns, SidxConfig, SidxSketch
from repro.core.sort import ExternalSorter, ParallelSortCoordinator
from repro.core.vlog import gather_values, pointer_columns, stripe_groups
from repro.core.zone_manager import ZoneCluster, ZoneManager, ZonePointer
from repro.errors import (
    DbError,
    KeyTooLargeError,
    KeyspaceExistsError,
    KeyspaceNotFoundError,
    KeyspaceStateError,
    ReproError,
    SecondaryIndexError,
    ZoneFullError,
)
from repro.host.threads import ThreadCtx
from repro.lsm.bloom import BloomFilter
from repro.obs.journal import journal_event
from repro.obs.trace import trace_span, trace_wait
from repro.sim.core import Environment, Event
from repro.sim.resources import Resource
from repro.sim.stats import StatsRegistry
from repro.sim.sync import AllOf, BoundedQueue
from repro.soc.board import SocBoard
from repro.units import KiB

__all__ = ["KvCsdDevice"]

#: Mount pipeline stage names, in execution order.
MOUNT_STAGES = ("scan", "replay", "indexes", "rescan", "reclaim")


class KvCsdDevice:
    """Firmware state of one KV-CSD device."""

    def __init__(
        self,
        board: SocBoard,
        rng: np.random.Generator,
        costs: CsdCostModel | None = None,
        cluster_zones: int = 4,
        membuf_bytes: int = MEMBUF_BYTES,
        block_bytes: int = 4 * KiB,
        max_inflight: int = 64,
        name: str = "kvcsd",
    ):
        self.board = board
        self.env: Environment = board.env
        self.ssd = board.ssd
        #: device identity; cluster testbeds name each device (``dev0``,
        #: ``dev1``, ...) so shared-journal events stay attributable
        self.name = name
        self.costs = costs or CsdCostModel()
        self.cluster_zones = cluster_zones
        self.membuf_bytes = membuf_bytes
        self.block_bytes = block_bytes
        self.zone_manager = ZoneManager(self.ssd, rng, cluster_zones)
        self.keyspaces: dict[str, Keyspace] = {}
        self._membufs: dict[str, MemBuffer] = {}
        #: per-keyspace ingestion mutex: the firmware serialises writes into
        #: one keyspace's membuf/logs (concurrent host threads sharing a
        #: keyspace queue here — why Figure 7a's KV-CSD saturates at ~2 host
        #: cores while Figure 9's multi-keyspace runs scale further)
        self._write_locks: dict[str, Resource] = {}
        self._seqs: dict[str, int] = {}
        #: async job completion events per keyspace (compaction + sidx builds)
        self._jobs: dict[str, list[Event]] = {}
        self._inflight = Resource(self.env, capacity=max_inflight)
        #: key-range shards for the compaction sort, bounded by the cores
        #: that could actually run them concurrently
        self.compaction_shards = max(
            1, min(board.spec.compaction_shards, board.spec.n_cores)
        )
        #: SoC DRAM block cache (None when the spec carves out no capacity)
        self.block_cache = (
            BlockCache(board.spec.block_cache_bytes)
            if board.spec.block_cache_bytes
            else None
        )
        self.stats = StatsRegistry("kvcsd")
        #: query-scheduler worker pool size, bounded by the SoC's cores
        #: (0 = queries execute inline on the caller's context, the serial
        #: reference path)
        self.query_workers = max(0, min(board.spec.query_workers, board.spec.n_cores))
        #: bits per key for per-index-block bloom filters (0 = no blooms)
        self.bloom_bits_per_key = board.spec.bloom_bits_per_key
        self.query_engine = QueryEngine(
            self.ssd,
            self.costs,
            board.scale_cpu,
            block_cache=self.block_cache,
            stats=self.stats,
            fanout=self.query_workers if self.query_workers > 1 else 1,
            make_ctx=(
                (lambda: board.firmware_ctx()) if self.query_workers > 1 else None
            ),
        )
        self.query_scheduler = (
            QueryScheduler(
                self.env,
                board,
                self.query_workers,
                queue_depth=board.spec.query_queue_depth,
                stats=self.stats,
                owner=name,
            )
            if self.query_workers > 0
            else None
        )
        #: per-keyspace DRAM bytes reserved for index-block bloom filters,
        #: released when the keyspace is deleted
        self._bloom_dram: dict[str, int] = {}
        #: durations of the latest offloaded jobs, for Figure 11's breakdown
        self.job_durations: dict[tuple[str, str], float] = {}
        #: optional :class:`repro.obs.audit.InvariantAuditor`; ``None`` (the
        #: default) means the boundary hooks cost one attribute check, same
        #: contract as tracing/journaling.
        self.auditor = None
        #: host-side KV queue pairs registered by clients, so the auditor's
        #: queue-accounting invariant covers the host in-flight set too
        self.host_qps: list = []
        #: per-stage virtual-time latency of the most recent mount
        self._mount_stages: dict[str, float] = {}
        #: errors raised by offloaded jobs, surfaced by :meth:`wait_for_jobs`
        self._job_errors: dict[str, list[Exception]] = {}
        #: the keyspace table's backing store: two fixed, well-known zones,
        #: so a remounted device finds it after a power cycle
        self.metalog = MetadataLog(
            board,
            self.zone_manager,
            self.costs,
            self.stats,
            self._journal,
            self.keyspaces,
            self._seqs,
        )

    # ------------------------------------------------------------------ plumbing
    def register_host_qp(self, qp) -> None:
        """Attach a client's KV queue pair for auditing/introspection."""
        self.host_qps.append(qp)

    @property
    def inflight_commands(self) -> int:
        """Device operations currently holding an inflight slot."""
        return self._inflight.count

    def _ctx(self, priority: int = 0) -> ThreadCtx:
        return self.board.firmware_ctx(priority=priority)

    def _journal(self, type: str, **fields) -> None:
        """Journal one event stamped with this device's identity.

        N-device clusters share one environment and therefore one journal;
        the ``dev`` field is what keeps their interleaved lifecycle events
        attributable to a device.
        """
        journal_event(self.env, type, dev=self.name, **fields)

    def _audit_boundary(self, boundary: str) -> None:
        """Run the invariant auditor at a flush/phase boundary, if attached.

        Synchronous and side-effect-free with respect to the simulation:
        auditors read device state directly (never through timed SSD
        operations), so an audited run's virtual timeline is byte-identical
        to an unaudited one.
        """
        if self.auditor is not None:
            self.auditor.on_boundary(boundary)

    @contextmanager
    def _compact_phase(self, ks: Keyspace, phase: str):
        """Bracket one compaction phase with journal events + an audit.

        The end event and the audit run only on success — a phase that
        raised never ended, and auditing its half-mutated state would
        report violations the device itself is about to unwind.
        """
        self._journal("compact.phase_begin", keyspace=ks.name, phase=phase)
        yield
        self._journal("compact.phase_end", keyspace=ks.name, phase=phase)
        self._audit_boundary(f"compact.{phase}")

    def _exec(self, ctx: ThreadCtx, host_seconds: float) -> Generator:
        # Plain function returning the execute generator: `yield from` on the
        # result behaves identically, minus one delegation frame per charge.
        return ctx.execute(self.board.scale_cpu(host_seconds))

    def _keyspace(self, name: str) -> Keyspace:
        ks = self.keyspaces.get(name)
        if ks is None:
            raise KeyspaceNotFoundError(name)
        return ks

    def _release_cluster(self, cluster: ZoneCluster) -> Generator:
        """Release a cluster, dropping cached blocks of its zones first.

        Zone ids are recycled, so any extent cached from a released zone
        must die with it — otherwise a later keyspace re-using the zone
        could be served another keyspace's (or an older compaction's) data.
        """
        if self.block_cache is not None:
            before = len(self.block_cache)
            for zone_id in cluster.zone_ids:
                self.block_cache.invalidate_zone(zone_id)
            dropped = before - len(self.block_cache)
            if dropped:
                self._journal("cache.invalidate",
                    zones=sorted(cluster.zone_ids),
                    entries_dropped=dropped,
                )
        yield from self.zone_manager.release_cluster(cluster)

    def _append_stream(
        self,
        clusters: list[ZoneCluster],
        groups: list[bytes],
        ctx: ThreadCtx,
    ) -> Generator:
        """Append groups across a cluster chain, growing it on demand.

        Returns one :data:`ZonePointer` per group, in order.
        """
        pointers: list[ZonePointer] = []
        if not clusters:
            clusters.append(self.zone_manager.allocate_cluster(self.cluster_zones))
        remaining = list(groups)
        while remaining:
            try:
                ptrs = yield from clusters[-1].append_groups(remaining)
                pointers.extend(ptrs)
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
                    clusters.append(
                        self.zone_manager.allocate_cluster(self.cluster_zones)
                    )
        return pointers

    # ------------------------------------------------------------------ keyspace lifecycle
    def create_keyspace(self, name: str, ctx: ThreadCtx) -> Generator:
        """Create an EMPTY keyspace (unique name)."""
        yield from self._exec(ctx, self.costs.request_overhead)
        if name in self.keyspaces:
            raise KeyspaceExistsError(name)
        ks = Keyspace(name=name)
        self.keyspaces[name] = ks
        self._membufs[name] = MemBuffer(self.membuf_bytes)
        self._write_locks[name] = Resource(self.env, capacity=1)
        self._seqs[name] = 0
        self._jobs[name] = []
        yield from self.metalog.upsert(ctx, ks)
        self.stats.counter("keyspaces_created").add()
        self._journal("keyspace.create", keyspace=name)

    def open_keyspace(self, name: str, ctx: ThreadCtx) -> Generator:
        """Open for insertion: EMPTY -> WRITABLE."""
        yield from self._exec(ctx, self.costs.request_overhead)
        ks = self._keyspace(name)
        ks.open_for_write()
        yield from self.metalog.upsert(ctx, ks)
        self._journal("keyspace.open", keyspace=name)

    def delete_keyspace(self, name: str, ctx: ThreadCtx) -> Generator:
        """Delete at any state; deferred until running jobs complete."""
        yield from self._exec(ctx, self.costs.request_overhead)
        ks = self._keyspace(name)
        ks.deletion_pending = True
        for job in list(self._jobs.get(name, [])):
            yield job
        # Crash-safe ordering: persist the delete record *before* touching
        # the data zones.  A cut before the record leaves the keyspace fully
        # intact; a cut after it leaves orphan zones the next mount reclaims.
        yield from self.metalog.delete(ctx, name)
        for cluster in ks.all_clusters():
            yield from self._release_cluster(cluster)
        bloom_bytes = self._bloom_dram.pop(name, 0)
        if bloom_bytes:
            yield from self.board.dram.release(bloom_bytes)
        del self.keyspaces[name]
        self._membufs.pop(name, None)
        self._write_locks.pop(name, None)
        self._seqs.pop(name, None)
        self._jobs.pop(name, None)
        self.stats.counter("keyspaces_deleted").add()
        self._journal("keyspace.delete", keyspace=name)

    def list_keyspaces(self) -> list[str]:
        """Names of all live keyspaces (table lookup, no device time)."""
        return sorted(self.keyspaces)

    # ------------------------------------------------------------------ mount/recovery
    @contextmanager
    def _mount_stage(self, stage: str, fields: dict | None = None):
        """Bracket one mount stage with journal events + latency accounting.

        ``fields`` is a caller-owned dict the stage body may fill in; its
        contents ride on the ``mount.stage_end`` event.  Stage events record
        no simulation events, so an instrumented mount's virtual timeline is
        identical to an uninstrumented one.
        """
        t0 = self.env.now
        self._journal("mount.stage_begin", stage=stage)
        yield
        seconds = self.env.now - t0
        self._mount_stages[stage] = seconds
        self._journal(
            "mount.stage_end", stage=stage, seconds=seconds, **(fields or {})
        )

    def recover(self, ctx: ThreadCtx) -> Generator:
        """Rebuild the keyspace table after a device power cycle.

        A staged, auditable mount pipeline; each stage emits
        ``mount.stage_begin``/``mount.stage_end`` journal events, records
        its virtual-time latency in :attr:`_mount_stages`, and leaves the
        device snapshot-able via ``repro.obs.inspect.device_snapshot``:

        1. **scan** — :meth:`MetadataLog.scan` parses both A/B metadata
           streams and mounts the sealed stream with the highest epoch, so
           a crash inside a checkpoint falls back to the previous sealed
           snapshot; a torn record tail is detected (v2 CRC frames) and the
           intact prefix applied.
        2. **replay** — rebuild the keyspace table: states, zone-cluster
           maps, sketches, sequence numbers.  Keyspaces caught COMPACTING
           revert to WRITABLE (their logs are intact, the job re-runs).
        3. **indexes** — re-attach persisted PIDX/SIDX block blooms (v2
           annexes), charging DRAM for them; COMPACTED keyspaces whose
           record carried no blooms (v1 records) fall back to a bounded
           reconstruction from the PIDX blocks themselves.
        4. **rescan** — re-derive seq/pair-count/key-bounds of WRITABLE
           keyspaces from their KLOG tails (the log may postdate the last
           table write).
        5. **reclaim** — reset orphan zones (partial job outputs nobody
           references) and reconcile the zone manager's free list through
           the public :meth:`ZoneManager.reconcile_free_list` API.

        Data buffered in the 192 KB membuf at power loss is gone — the same
        volatility window a real device has unless it flushes on plug-pull.
        """
        if self.keyspaces:
            raise DbError("recover() requires a freshly constructed device")
        from repro.ssd.zone import ZoneState

        self._mount_stages = {}

        # ---- stage 1: metadata-zone scan
        scan_fields: dict = {}
        with self._mount_stage("scan", scan_fields):
            chosen = yield from self.metalog.scan(ctx, scan_fields)

        # ---- stage 2: keyspace-table replay
        replay_fields: dict = {}
        with self._mount_stage("replay", replay_fields):
            used_zones: set[int] = set(self.metalog.zone_ids)
            for name, (ks, last_seq) in chosen.table.items():
                if ks.state is KeyspaceState.COMPACTING:
                    # The job died with the power; its inputs (KLOG/VLOG) are
                    # referenced by the recovered record, its partial outputs
                    # are orphans reclaimed in stage 5.
                    ks.state = KeyspaceState.WRITABLE
                self.keyspaces[name] = ks
                self._membufs[name] = MemBuffer(self.membuf_bytes)
                self._write_locks[name] = Resource(self.env, capacity=1)
                self._jobs[name] = []
                self._seqs[name] = last_seq
                for cluster in ks.all_clusters():
                    used_zones.update(cluster.zone_ids)
                self._journal(
                    "keyspace.recover", keyspace=name, state=ks.state.value
                )
            replay_fields["keyspaces"] = len(self.keyspaces)

        # ---- stage 3: sketch/bloom reload (v2 annexes), with bounded
        # reconstruction fallback for COMPACTED keyspaces that lack blooms
        indexes_fields: dict = {}
        with self._mount_stage("indexes", indexes_fields):
            reloaded = 0
            reloaded_bytes = 0
            rebuilt = 0
            for name in sorted(self.keyspaces):
                ks = self.keyspaces[name]
                annex_bytes = chosen.bloom_bytes.get(name, 0)
                if annex_bytes:
                    n_blooms = (
                        len(ks.pidx_sketch.blooms)
                        if ks.pidx_sketch is not None
                        else 0
                    ) + sum(len(sk.blooms) for _cfg, sk in ks.sidx.values())
                    yield from self._exec(
                        ctx, self.costs.bloom_reload_per_byte * annex_bytes
                    )
                    yield from self.board.dram.reserve(annex_bytes)
                    self._bloom_dram[name] = (
                        self._bloom_dram.get(name, 0) + annex_bytes
                    )
                    reloaded += n_blooms
                    reloaded_bytes += annex_bytes
                    self._journal("sketch.reload",
                        keyspace=name,
                        blooms=n_blooms,
                        bytes=annex_bytes,
                    )
                elif (
                    self.bloom_bits_per_key
                    and ks.state is KeyspaceState.COMPACTED
                    and ks.pidx_sketch is not None
                    and len(ks.pidx_sketch)
                    and not ks.pidx_sketch.blooms
                ):
                    ok = yield from self._rebuild_blooms_bounded(ks, ctx)
                    if ok:
                        rebuilt += len(ks.pidx_sketch.blooms)
            if reloaded:
                self.stats.counter("blooms_reloaded").add(reloaded)
                self.stats.counter("bloom_reload_bytes").add(reloaded_bytes)
            indexes_fields.update(
                blooms_reloaded=reloaded,
                bloom_bytes=reloaded_bytes,
                blooms_reconstructed=rebuilt,
            )

        # ---- stage 4: KLOG tail rescan
        rescan_fields: dict = {}
        with self._mount_stage("rescan", rescan_fields):
            rescanned = 0
            for name, (ks, _last_seq) in chosen.table.items():
                ks = self.keyspaces[name]
                if ks.state is KeyspaceState.WRITABLE and ks.klog_clusters:
                    yield from self._rescan_klog(ks, ctx)
                    rescanned += 1
            rescan_fields["keyspaces"] = rescanned

        # ---- stage 5: orphan-zone reclamation + free-list reconciliation
        reclaim_fields: dict = {}
        with self._mount_stage("reclaim", reclaim_fields):
            self.zone_manager.mark_used(sorted(used_zones))
            # Orphans: written zones nobody references (failed jobs, torn
            # flushes, released-after-persist compaction inputs).
            orphans = 0
            for zone in self.ssd.zones:
                if (
                    zone.state is not ZoneState.EMPTY
                    and zone.zone_id not in used_zones
                ):
                    yield from self.ssd.reset_zone(zone.zone_id)
                    self.stats.counter("orphan_zones_reclaimed").add()
                    self._journal("zone.orphan_reclaim", zone=zone.zone_id)
                    orphans += 1
            self.zone_manager.reconcile_free_list(used_zones)
            reclaim_fields["orphan_zones"] = orphans

        self.stats.counter("recoveries").add()
        # Invariants only fully hold once every stage has run (the free list
        # is reconciled last), so the audit boundary sits at mount exit.
        self._audit_boundary("mount")

    def _rebuild_blooms_bounded(self, ks: Keyspace, ctx: ThreadCtx) -> Generator:
        """Reconstruct per-block PIDX blooms by re-reading the index blocks.

        The fallback of mount stage 3 for a keyspace whose metadata record
        carried no bloom annex (a v1 record written by older firmware).  Bounded: reads at most ``sort_budget_bytes`` of PIDX
        blocks; returns False (leaving the keyspace bloom-less, which is
        correct, just slower) if the index exceeds the budget.  Bloom
        hashing is deterministic, so reconstructed filters are byte-identical
        to the lost originals.
        """
        sketch = ks.pidx_sketch
        budget = self.board.spec.sort_budget_bytes
        spent = 0
        for pointer in sketch.block_pointers:
            spent += pointer[2]
            if spent > budget:
                return False
        blobs = []
        for zone_id, offset, length in sketch.block_pointers:
            blobs.append((yield from self.ssd.read(zone_id, offset, length)))
        yield from self._attach_blooms(
            ks,
            sketch,
            PidxColumns.from_blocks(blobs).key_bytes(),
            np.cumsum([0] + block_entry_counts(blobs)).tolist(),
            ctx,
        )
        self.stats.counter("blooms_reconstructed").add(len(sketch))
        return True

    def _rescan_klog(self, ks: Keyspace, ctx: ThreadCtx) -> Generator:
        """Re-derive seq/pair-count/key-bounds from a WRITABLE keyspace's log."""
        max_seq = self._seqs[ks.name]
        n_pairs = 0
        torn_zones: list[int] = []
        for cluster in ks.klog_clusters:
            contents = yield from cluster.read_all()
            for zone_id, blob in contents.items():
                records, torn_bytes = unpack_klog_records_prefix(blob)
                if torn_bytes:
                    torn_zones.append(zone_id)
                for key, seq, pointer in records:
                    max_seq = max(max_seq, seq)
                    if pointer is not None:
                        n_pairs += 1
                        ks.observe_key(key)
        for zone_id in torn_zones:
            # A power cut tore the final append mid-record.  Seal the zone:
            # appending after the garbage suffix would make every future
            # rescan of this zone unparseable.
            yield from self.ssd.finish_zone(zone_id)
            self.stats.counter("klog_torn_tails").add()
        yield from self._exec(ctx, self.costs.record_parse * max(1, n_pairs))
        self._seqs[ks.name] = max_seq
        ks.n_pairs = n_pairs

    def keyspace_stat(self, name: str) -> dict:
        """State and metadata of one keyspace (no device time: table lookup)."""
        ks = self._keyspace(name)
        return {
            "name": ks.name,
            "state": ks.state.value,
            "n_pairs": ks.n_pairs,
            "min_key": ks.min_key,
            "max_key": ks.max_key,
            "secondary_indexes": sorted(ks.sidx),
        }

    def report(self) -> dict:
        """Device-wide observability snapshot: counters, zones, DRAM, jobs.

        The analogue of an NVMe log page / SMART report for the KV-CSD
        firmware; the benchmark harness and operators read this, never the
        private fields.
        """
        counters = self.stats.counter_values()
        return {
            "keyspaces": {
                name: self.keyspace_stat(name) for name in self.keyspaces
            },
            "counters": counters,
            "free_zones": self.zone_manager.free_zone_count,
            "allocated_clusters": self.zone_manager.allocated_clusters,
            "dram_available": self.board.dram.available,
            "soc_busy_seconds": self.board.cpu.total_busy_time(),
            "soc_core_busy_seconds": list(self.board.cpu.busy_time),
            "compaction_shards": self.compaction_shards,
            "query_workers": self.query_workers,
            "bloom_bits_per_key": self.bloom_bits_per_key,
            "bloom_dram_bytes": sum(self._bloom_dram.values()),
            "block_cache": (
                self.block_cache.report() if self.block_cache is not None else None
            ),
            "ssd": {
                "bytes_read": self.ssd.stats.bytes_read,
                "bytes_written": self.ssd.stats.bytes_written,
                "erase_ops": self.ssd.stats.erase_ops,
            },
            "pending_jobs": {
                name: len(jobs) for name, jobs in self._jobs.items() if jobs
            },
            "job_durations": dict(self.job_durations),
        }

    def metric_gauges(self) -> dict:
        """Instantaneous recovery/durability gauges for MetricsHub sampling.

        Covers mount outcomes — recovery count, orphan zones reclaimed,
        persisted-bloom reload counters, and per-stage mount latency — so
        the timeline sampler and ``repro metrics`` see recovery health
        without reaching into private fields.
        """
        counters = self.stats.counters

        def counter_gauge(name: str):
            def read() -> float:
                counter = counters.get(name)  # created on first increment
                return counter.value if counter is not None else 0.0

            return read

        gauges = {
            "recovery.count": counter_gauge("recoveries"),
            "recovery.orphan_zones_reclaimed": counter_gauge(
                "orphan_zones_reclaimed"
            ),
            "recovery.blooms_reloaded": counter_gauge("blooms_reloaded"),
            "recovery.bloom_reload_bytes": counter_gauge("bloom_reload_bytes"),
            "recovery.blooms_reconstructed": counter_gauge(
                "blooms_reconstructed"
            ),
            "recovery.mount_seconds": lambda: float(
                sum(self._mount_stages.values())
            ),
            **self.metalog.metric_gauges(),
        }
        for stage in MOUNT_STAGES:
            gauges[f"recovery.stage_seconds.{stage}"] = (
                lambda s=stage: float(self._mount_stages.get(s, 0.0))
            )
        return gauges

    def introspect(self) -> dict:
        """Deep structural snapshot of every stateful firmware component.

        Where :meth:`report` is the flat counter/SMART view, this walks the
        object graph — keyspaces with their cluster chains and index
        sketches, membufs, the zone manager's free list, the ZNS zone
        table, the SoC board, the block cache, and the job table — into
        plain JSON-ready dicts.  Pure state read: no simulation events, no
        device time (see :mod:`repro.obs.inspect` for the versioned
        full-snapshot wrapper).
        """
        return {
            "keyspaces": {
                name: self.keyspaces[name].introspect()
                for name in sorted(self.keyspaces)
            },
            "membufs": {
                name: self._membufs[name].introspect()
                for name in sorted(self._membufs)
            },
            "sequence_numbers": {
                name: self._seqs[name] for name in sorted(self._seqs)
            },
            "zone_manager": self.zone_manager.introspect(),
            "metadata_zone": self.metalog.introspect(),
            "mount_stages": dict(self._mount_stages),
            "ssd": self.ssd.introspect(),
            "soc": self.board.introspect(),
            "block_cache": (
                self.block_cache.introspect()
                if self.block_cache is not None
                else None
            ),
            "jobs": {
                "pending": {
                    name: len(jobs) for name, jobs in self._jobs.items() if jobs
                },
                "durations": {
                    f"{ks}/{kind}": duration
                    for (ks, kind), duration in sorted(self.job_durations.items())
                },
            },
            "counters": self.stats.counter_values(),
            "compaction_shards": self.compaction_shards,
            "query_workers": self.query_workers,
            "query_scheduler": (
                self.query_scheduler.introspect()
                if self.query_scheduler is not None
                else None
            ),
            "bloom_dram_bytes": {
                name: self._bloom_dram[name] for name in sorted(self._bloom_dram)
            },
        }

    # ------------------------------------------------------------------ insertion
    @staticmethod
    def _admit_keys(keys: list[bytes]) -> None:
        """Refuse a write command that carries a key no format can hold.

        Checked before the command buffers a pair or takes a sequence
        number: the KLOG flush and the metadata record would otherwise fail
        on it later, on somebody else's command, with the keyspace stuck.
        """
        longest = max(map(len, keys), default=0)
        if longest > MAX_KEY_BYTES:
            raise KeyTooLargeError(longest, MAX_KEY_BYTES)

    def bulk_put(
        self,
        name: str,
        pairs: list[tuple[bytes, bytes]],
        message_bytes: int,
        ctx: ThreadCtx,
    ) -> Generator:
        """Ingest one bulk-PUT message into the keyspace's membuf."""
        with self._inflight.request() as slot:
            yield from trace_wait(self.env, slot, "dev.inflight_wait")
            ks = self._keyspace(name)
            ks.require(KeyspaceState.WRITABLE)
            keys = [key for key, _value in pairs]
            self._admit_keys(keys)
            with self._write_locks[name].request() as lock:
                yield from trace_wait(self.env, lock, "dev.write_lock_wait")
                yield from self._exec(
                    ctx,
                    self.costs.request_overhead
                    + self.costs.unpack_per_byte * message_bytes
                    + self.costs.membuf_insert_per_pair * len(pairs),
                )
                membuf = self._membufs[name]
                if pairs:
                    membuf.add_many(pairs, self._seqs[name] + 1)
                    self._seqs[name] += len(pairs)
                    ks.observe_key(min(keys))
                    ks.observe_key(max(keys))
                ks.n_pairs += len(pairs)
                self.stats.counter("pairs_inserted").add(len(pairs))
                if membuf.should_flush:
                    yield from self._flush_membuf(ks, ctx)

    def bulk_delete(self, name: str, keys: list[bytes], ctx: ThreadCtx) -> Generator:
        """Record tombstones; masked pairs disappear during compaction."""
        with self._inflight.request() as slot:
            yield from trace_wait(self.env, slot, "dev.inflight_wait")
            ks = self._keyspace(name)
            ks.require(KeyspaceState.WRITABLE)
            self._admit_keys(keys)
            with self._write_locks[name].request() as lock:
                yield from trace_wait(self.env, lock, "dev.write_lock_wait")
                yield from self._exec(
                    ctx,
                    self.costs.request_overhead
                    + self.costs.membuf_insert_per_pair * len(keys),
                )
                first_seq = self._seqs[name] + 1
                self._seqs[name] += len(keys)
                no_pointer = np.zeros(len(keys), dtype=np.int64)
                blob = pack_klog_columns(
                    keys,
                    np.arange(first_seq, first_seq + len(keys)),
                    no_pointer,
                    no_pointer,
                    np.full(len(keys), TOMBSTONE_LEN),
                )
                clusters_before = len(ks.klog_clusters)
                yield from self._append_stream(ks.klog_clusters, [blob], ctx)
                if len(ks.klog_clusters) != clusters_before:
                    yield from self.metalog.upsert(ctx, ks)
                self.stats.counter("tombstones").add(len(keys))

    def fsync(self, name: str, ctx: ThreadCtx) -> Generator:
        """Make all acknowledged writes durable (Section VI: "Like RocksDB
        and others, KV-CSD ... supports explicit 'fsync'").

        Flushes the keyspace's membuf to its KLOG/VLOG zones, closing the
        volatility window a power loss would otherwise claim.
        """
        ks = self._keyspace(name)
        ks.require(KeyspaceState.WRITABLE, KeyspaceState.EMPTY)
        if ks.state is KeyspaceState.EMPTY:
            if False:  # pragma: no cover - keep generator shape
                yield None
            return
        with self._write_locks[name].request() as lock:
            yield from trace_wait(self.env, lock, "dev.write_lock_wait")
            yield from self._exec(ctx, self.costs.request_overhead)
            yield from self._flush_membuf(ks, ctx)
        self.stats.counter("fsyncs").add()

    def _flush_membuf(self, ks: Keyspace, ctx: ThreadCtx) -> Generator:
        """Write buffered pairs: values to VLOG, keys+pointers to KLOG."""
        pairs = self._membufs[ks.name].drain()
        if not pairs:
            return
        with trace_span(self.env, "dev.flush", "stage", pairs=len(pairs)):
            yield from self._flush_pairs(ks, pairs, ctx)
        self._journal("membuf.flush", keyspace=ks.name, pairs=len(pairs))
        self._audit_boundary("flush")

    def _flush_pairs(
        self,
        ks: Keyspace,
        pairs: list[tuple[bytes, bytes, int]],
        ctx: ThreadCtx,
    ) -> Generator:
        clusters_before = len(ks.klog_clusters) + len(ks.vlog_clusters)
        # Values go to VLOG stripe groups; each value's place in its group
        # plus the group's pointer is the KLOG record's pointer.
        values = [value for _key, value, _seq in pairs]
        lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
        groups, group_index, group_off = stripe_groups(b"".join(values), lengths)
        yield from self._exec(
            ctx,
            self.costs.block_build_per_byte * sum(len(g) for g in groups),
        )
        group_ptrs = yield from self._append_stream(ks.vlog_clusters, groups, ctx)
        group_zone, group_start = pointer_columns(group_ptrs)
        blob = pack_klog_columns(
            [key for key, _value, _seq in pairs],
            [seq for _key, _value, seq in pairs],
            group_zone[group_index],
            group_start[group_index] + group_off,
            lengths,
        )
        yield from self._exec(ctx, self.costs.block_build_per_byte * len(blob))
        yield from self._append_stream(ks.klog_clusters, [blob], ctx)
        if len(ks.klog_clusters) + len(ks.vlog_clusters) != clusters_before:
            # New zone clusters joined the keyspace: persist the mapping so a
            # power cycle can find the data (the keyspace table is the only
            # pointer to these zones).
            yield from self.metalog.upsert(ctx, ks)
        self.stats.counter("membuf_flushes").add()

    # ------------------------------------------------------------------ compaction
    def compact(
        self,
        name: str,
        ctx: ThreadCtx,
        sidx_configs: tuple[SidxConfig, ...] = (),
    ) -> Generator:
        """Kick off asynchronous compaction; returns immediately.

        WRITABLE -> COMPACTING now; COMPACTING -> COMPACTED when the
        background job completes.  The application does not wait (that is
        the deferred-compaction design of Section V).

        ``sidx_configs`` enables the paper's future-work optimisation:
        building secondary indexes *in the same pass* as the compaction,
        while the values are still in SoC DRAM, instead of re-reading the
        keyspace per index.  If the values exceed the sort budget the
        device falls back to separate per-index scans, exactly as the paper
        anticipates ("resort back to separated index construction when DRAM
        resources become a bottleneck").
        """
        yield from self._exec(ctx, self.costs.request_overhead)
        ks = self._keyspace(name)
        ks.require(KeyspaceState.WRITABLE)
        names = [config.name for config in sidx_configs]
        if len(set(names)) != len(names):
            raise SecondaryIndexError(f"duplicate index names in request: {names}")
        for config in sidx_configs:
            if config.name in ks.sidx:
                raise SecondaryIndexError(
                    f"keyspace {name!r} already has index {config.name!r}"
                )
        with self._write_locks[name].request() as lock:
            yield from trace_wait(self.env, lock, "dev.write_lock_wait")
            yield from self._flush_membuf(ks, ctx)
        ks.begin_compaction()
        yield from self.metalog.upsert(ctx, ks)
        self._journal("keyspace.compaction_begin",
            keyspace=name,
            n_pairs=ks.n_pairs,
            inline_sidx=[config.name for config in sidx_configs],
        )
        done = Event(self.env)
        self._jobs[name].append(done)
        self.env.process(
            self._compact_job(ks, done, sidx_configs), name=f"compact-{name}"
        )

    def wait_for_jobs(self, name: str) -> Generator:
        """Wait until every outstanding offloaded job of ``name`` completes.

        Loops until the job list drains, so jobs that *other jobs* spawn
        (e.g. per-index fallback scans launched by a combined compaction)
        are waited on too.

        A job that failed (media error mid-compaction/index-build) parks
        its exception in ``_job_errors``; the first parked error re-raises
        here, so the host's wait ticket — and only that ticket — completes
        with the error status.
        """
        while True:
            jobs = list(self._jobs.get(name, []))
            if not jobs:
                break
            for job in jobs:
                yield from trace_wait(self.env, job, "dev.wait_jobs")
        errors = self._job_errors.pop(name, None)
        if errors:
            raise errors[0]

    def _compact_job(
        self,
        ks: Keyspace,
        done: Event,
        sidx_configs: tuple[SidxConfig, ...] = (),
    ) -> Generator:
        ctx = self._ctx(priority=5)
        t0 = self.env.now
        probe = self.env.probe
        job_span = probe and probe.span_begin(
            "job.compaction", "job", "jobs/compaction", {"keyspace": ks.name}
        )
        # Pre-job snapshot for fault containment: a ReproError mid-job (e.g.
        # an injected media error) unwinds the partial outputs back to this.
        n_pairs0 = ks.n_pairs
        sketch0 = ks.pidx_sketch
        n_sorted0 = len(ks.sorted_value_clusters)
        n_pidx0 = len(ks.pidx_clusters)
        sidx0 = set(ks.sidx)
        bloom_dram0 = self._bloom_dram.get(ks.name, 0)
        try:
            # ---- step 1: read back the unordered KLOG records, as one
            # column batch that stays columnar up to the published index
            with self._compact_phase(ks, "read_klog"), trace_span(
                self.env, "compact.read_klog", "stage"
            ):
                blobs: list[bytes] = []
                for cluster in ks.klog_clusters:
                    contents = yield from cluster.read_all()
                    blobs.extend(contents.values())
                klog_bytes = sum(map(len, blobs))
                # Prefix-tolerant: a zone sealed by mount after a torn
                # power-cut append legally carries a garbage suffix behind
                # its intact records.
                records = KlogColumns.from_blobs(blobs, torn_ok=True)
                yield from self._exec(ctx, self.costs.record_parse * len(records))

            # ---- step 2: sort the keys (external merge sort under the budget,
            # range-partitioned across the SoC cores when shards > 1)
            shards = self.compaction_shards
            coordinator = ParallelSortCoordinator(
                self.zone_manager,
                budget_bytes=self.board.spec.sort_budget_bytes,
                shards=shards,
                compare_cost=self.board.scale_cpu(self.costs.key_compare),
                pack=KlogColumns.pack,
                unpack=lambda blob: KlogColumns.from_blobs([blob]),
                make_ctx=lambda: self._ctx(priority=5),
            )
            vlog_bytes = sum(c.bytes_stored() for c in ks.vlog_clusters)
            value_passes = max(
                1, -(-vlog_bytes // self.board.spec.sort_budget_bytes)
            )
            zone_blobs: dict[int, bytes] = {}

            def read_vlog() -> Generator:
                for _pass in range(value_passes):
                    for cluster in ks.vlog_clusters:
                        contents = yield from cluster.read_all()
                        zone_blobs.update(contents)

            with self._compact_phase(ks, "sort"), trace_span(
                self.env, "compact.sort", "stage", shards=shards
            ):
                if shards == 1:
                    # Serial reference path: sort, then read the values.
                    sorted_records = yield from coordinator.sort(
                        records, klog_bytes, ctx
                    )
                    yield from read_vlog()
                else:
                    # Pipelined path: prefetch VLOG clusters on the device
                    # channels *while* the shard sorts burn CPU, so the value
                    # transfer hides behind the sort instead of following it.
                    sort_out: list[list] = []

                    def run_sort() -> Generator:
                        out = yield from coordinator.sort(records, klog_bytes, ctx)
                        sort_out.append(out)

                    yield AllOf(
                        self.env,
                        [
                            self.env.process(
                                run_sort(), name=f"compact-sort-{ks.name}"
                            ),
                            self.env.process(
                                read_vlog(), name=f"vlog-prefetch-{ks.name}"
                            ),
                        ],
                    )
                    sorted_records = sort_out[0]
            # Newest-wins dedup; tombstones drop their key entirely.
            live = sorted_records[sorted_records.newest_live()]

            # ---- step 3: gather values in key order into stripe groups
            # (the per-record placement is independent across key ranges, so
            # the pipelined path spreads the gather over the SoC cores too)
            with self._compact_phase(ks, "gather"), trace_span(
                self.env, "compact.gather", "stage", records=len(live)
            ):
                if shards == 1 or len(live) < shards:
                    yield from self._exec(
                        ctx, self.costs.gather_per_record * len(live)
                    )
                else:
                    per_shard = -(-len(live) // shards)

                    def gather_slice(count: int) -> Generator:
                        slice_ctx = self._ctx(priority=5)
                        yield from self._exec(
                            slice_ctx, self.costs.gather_per_record * count
                        )

                    yield AllOf(
                        self.env,
                        [
                            self.env.process(
                                gather_slice(min(per_shard, len(live) - start)),
                                name=f"gather-{ks.name}-{start}",
                            )
                            for start in range(0, len(live), per_shard)
                        ],
                    )
            groups, group_index, group_off = stripe_groups(
                gather_values(zone_blobs, live.zone, live.off, live.vlen), live.vlen
            )
            zone_blobs.clear()  # the unsorted copy; ``groups`` holds the values now

            # ---- step 4: write SORTED_VALUES and build PIDX blocks
            packer = PidxPacker(live.keys, self.block_bytes)
            with self._compact_phase(ks, "materialize"), trace_span(
                self.env, "compact.materialize", "stage"
            ):
                if shards == 1:
                    yield from self._exec(
                        ctx, self.costs.block_build_per_byte * sum(map(len, groups))
                    )
                    group_ptrs = yield from self._append_stream(
                        ks.sorted_value_clusters, groups, ctx
                    )
                    group_zone, group_start = pointer_columns(group_ptrs)
                    blocks = packer.feed(
                        group_zone[group_index],
                        group_start[group_index] + group_off,
                        live.vlen,
                    )
                    blocks += packer.finish()
                    yield from self._exec(
                        ctx,
                        self.costs.block_build_per_byte
                        * sum(len(blob) for _p, blob in blocks),
                    )
                    block_ptrs = yield from self._append_stream(
                        ks.pidx_clusters, [blob for _p, blob in blocks], ctx
                    )
                    sketch = PidxSketch()
                    for (pivot, _blob), pointer in zip(blocks, block_ptrs):
                        sketch.add_block(pivot, pointer)
                else:
                    sketch = yield from self._materialize_pipelined(
                        ks, packer, groups, group_index, group_off, live.vlen
                    )
            ks.pidx_sketch = sketch
            ks.n_pairs = len(live)
            if self.bloom_bits_per_key and len(sketch):
                yield from self._attach_blooms(
                    ks, sketch, column_key_bytes(live.keys), packer.bounds, ctx
                )
            self._journal("sketch.build",
                keyspace=ks.name,
                kind="pidx",
                n_blocks=len(sketch),
            )

            # ---- step 5: drop the unsorted logs, flip the state
            with self._compact_phase(ks, "cleanup"), trace_span(
                self.env, "compact.cleanup", "stage"
            ):
                # Persist the compacted table entry *before* releasing the
                # log zones: a crash between the two leaves orphan zones
                # (reclaimed at mount) instead of a table entry pointing at
                # erased logs.
                stale = ks.klog_clusters + ks.vlog_clusters
                ks.klog_clusters = []
                ks.vlog_clusters = []
                ks.finish_compaction()
                try:
                    yield from self.metalog.upsert(ctx, ks)
                finally:
                    for cluster in stale:
                        yield from self._release_cluster(cluster)
            self.stats.counter("compactions").add()
            self.job_durations[(ks.name, "compaction")] = self.env.now - t0
            self._journal("keyspace.compaction_end",
                keyspace=ks.name,
                n_pairs=ks.n_pairs,
            )

            # ---- step 6 (optional): single-pass secondary indexes.
            # The values are still in DRAM (zone_blobs + placements); build
            # every requested index without re-reading the keyspace — unless
            # that working set would not have fit the sort budget.
            if sidx_configs:
                with self._compact_phase(ks, "sidx"), trace_span(
                    self.env, "compact.sidx", "stage", indexes=len(sidx_configs)
                ):
                    values_resident = sum(len(g) for g in groups)
                    if values_resident <= self.board.spec.sort_budget_bytes:
                        # the sorted values as one buffer ("zone" 0), each
                        # record pointing at its own
                        ends = np.cumsum(live.vlen, dtype=np.int64)
                        resident = PidxColumns(
                            live.keys,
                            np.zeros(len(live), dtype=np.int64),
                            ends - live.vlen,
                            live.vlen,
                        )
                        sorted_values = {0: b"".join(groups)}
                        # Each index sorts an independent pair set: build them
                        # concurrently across the SoC cores.
                        procs = [
                            self.env.process(
                                self._build_sidx_inline(
                                    ks, config, resident, sorted_values, ctx
                                ),
                                name=f"sidx-inline-{ks.name}-{config.name}",
                            )
                            for config in sidx_configs
                        ]
                        if procs:
                            yield AllOf(self.env, procs)
                    else:
                        for config in sidx_configs:
                            fallback = Event(self.env)
                            self._jobs[ks.name].append(fallback)
                            self.env.process(
                                self._sidx_job(ks, config, fallback),
                                name=f"sidx-{ks.name}-{config.name}",
                            )
        except ReproError as exc:
            # Fault containment: unwind the partial outputs so the keyspace
            # returns to a legal state, then park the error for
            # wait_for_jobs() to surface on the host's wait ticket.  A
            # PowerCut is not a ReproError and propagates — a dead device
            # does not unwind.
            if ks.state is KeyspaceState.COMPACTING:
                for cluster in ks.sorted_value_clusters[n_sorted0:]:
                    yield from self._release_cluster(cluster)
                del ks.sorted_value_clusters[n_sorted0:]
                for cluster in ks.pidx_clusters[n_pidx0:]:
                    yield from self._release_cluster(cluster)
                del ks.pidx_clusters[n_pidx0:]
                new_sidx = set(ks.sidx) | set(ks.sidx_clusters)
                for name in sorted(new_sidx - sidx0):
                    ks.sidx.pop(name, None)
                    for cluster in ks.sidx_clusters.pop(name, []):
                        yield from self._release_cluster(cluster)
                ks.pidx_sketch = sketch0
                ks.n_pairs = n_pairs0
                added = self._bloom_dram.get(ks.name, 0) - bloom_dram0
                if added > 0:
                    yield from self.board.dram.release(added)
                    self._bloom_dram[ks.name] = bloom_dram0
                ks.state = KeyspaceState.WRITABLE
            else:
                # The compaction itself completed (the failure hit the
                # inline-sidx step or the final metadata write): unwind only
                # the partial secondary indexes.
                new_sidx = set(ks.sidx) | set(ks.sidx_clusters)
                for name in sorted(new_sidx - sidx0):
                    entry = ks.sidx.pop(name, None)
                    for cluster in ks.sidx_clusters.pop(name, []):
                        yield from self._release_cluster(cluster)
                    if entry is not None and entry[1].bloom_bytes:
                        yield from self.board.dram.release(
                            entry[1].bloom_bytes
                        )
                        self._bloom_dram[ks.name] = max(
                            0,
                            self._bloom_dram.get(ks.name, 0)
                            - entry[1].bloom_bytes,
                        )
            self.stats.counter("compaction_failures").add()
            self._job_errors.setdefault(ks.name, []).append(exc)
        finally:
            if job_span is not None:
                probe.span_end(job_span)
            self._jobs[ks.name].remove(done)
            done.succeed()

    def _attach_blooms(
        self,
        ks: Keyspace,
        sketch,
        keys: list[bytes],
        bounds: list[int],
        ctx: ThreadCtx,
    ) -> Generator:
        """Build one bloom filter per index block and charge DRAM for them.

        Block ``i`` holds ``keys[bounds[i]:bounds[i + 1]]``; ``bounds[0]`` is 0.

        Works for PIDX sketches (member = primary key) and SIDX sketches
        (member = encoded secondary key) alike.  The filter bytes are
        reserved against the SoC DRAM budget and tracked per keyspace so
        deletion returns them.  The blooms ride the keyspace's next metadata
        record (the v2 bloom annex) and survive a power cycle.
        """
        bits = self.bloom_bits_per_key
        n_blocks = len(bounds) - 1
        if not bits or n_blocks < 1:
            return
        total_bytes = 0
        with trace_span(self.env, "compact.build_blooms", "stage", blocks=n_blocks):
            for idx in range(n_blocks):
                members = keys[bounds[idx] : bounds[idx + 1]]
                bloom = BloomFilter(len(members), bits_per_key=bits)
                bloom.add_many(members)
                sketch.attach_bloom(idx, bloom)
                total_bytes += bloom.size_bytes
            yield from self._exec(ctx, self.costs.bloom_build_per_key * bounds[-1])
            yield from self.board.dram.reserve(total_bytes)
        self._bloom_dram[ks.name] = self._bloom_dram.get(ks.name, 0) + total_bytes
        self.stats.counter("bloom_filters_built").add(n_blocks)
        self.stats.counter("bloom_filter_bytes").add(total_bytes)

    def _materialize_pipelined(
        self,
        ks: Keyspace,
        packer: PidxPacker,
        groups: list[bytes],
        group_index: np.ndarray,
        group_off: np.ndarray,
        lengths: np.ndarray,
    ) -> Generator:
        """Stream SORTED_VALUES appends concurrently with PIDX construction.

        A value-writer process appends stripe groups (in cluster-width
        batches, keeping the zone-append channel parallelism of the serial
        path) and hands each batch's pointers through a bounded queue to a
        PIDX-builder process, which cuts and appends index blocks as soon
        as their entries' value pointers are known.  Device channel time
        for the value stream thus hides behind the index builder's CPU
        time instead of preceding it.  Block boundaries and contents are
        identical to the serial path's: both feed the same ``packer``.

        Returns the sketch.
        """
        queue = BoundedQueue(self.env, capacity=4)
        writer_ctx = self._ctx(priority=5)
        builder_ctx = self._ctx(priority=5)
        batch = max(1, self.cluster_zones)

        def value_writer() -> Generator:
            with trace_span(self.env, "materialize.value_writer", "stage"):
                for start in range(0, len(groups), batch):
                    chunk = groups[start : start + batch]
                    yield from self._exec(
                        writer_ctx,
                        self.costs.block_build_per_byte * sum(map(len, chunk)),
                    )
                    ptrs = yield from self._append_stream(
                        ks.sorted_value_clusters, chunk, writer_ctx
                    )
                    yield from queue.put((start, ptrs))
                yield from queue.put(None)

        sketch = PidxSketch()

        def flush_blocks(blocks: list[tuple[bytes, bytes]]) -> Generator:
            for pivot, blob in blocks:
                yield from self._exec(
                    builder_ctx, self.costs.block_build_per_byte * len(blob)
                )
                ptrs = yield from self._append_stream(
                    ks.pidx_clusters, [blob], builder_ctx
                )
                sketch.add_block(pivot, ptrs[0])

        def pidx_builder() -> Generator:
            with trace_span(self.env, "materialize.pidx_builder", "stage"):
                done = 0
                while True:
                    item = yield from queue.get()
                    if item is None:
                        break
                    start, ptrs = item
                    # Groups land in order and entries are in group order, so
                    # the entries this batch completes are the next run.
                    stop = int(np.searchsorted(group_index, start + len(ptrs)))
                    zone, base = pointer_columns(ptrs)
                    local = group_index[done:stop] - start
                    yield from flush_blocks(
                        packer.feed(
                            zone[local],
                            base[local] + group_off[done:stop],
                            lengths[done:stop],
                        )
                    )
                    done = stop
                yield from flush_blocks(packer.finish())

        yield AllOf(
            self.env,
            [
                self.env.process(
                    value_writer(), name=f"compact-values-{ks.name}"
                ),
                self.env.process(
                    pidx_builder(), name=f"compact-pidx-{ks.name}"
                ),
            ],
        )
        return sketch

    def _build_sidx_inline(
        self,
        ks: Keyspace,
        config: SidxConfig,
        records: PidxColumns,
        zone_blobs: dict[int, bytes],
        ctx: ThreadCtx,
    ) -> Generator:
        """Build one secondary index from values already resident in DRAM."""
        t0 = self.env.now
        self._journal("sidx.build_begin",
            keyspace=ks.name,
            index=config.name,
            mode="inline",
        )
        with trace_span(self.env, "sidx.build_inline", "stage", index=config.name):
            sketch = yield from self._sidx_pipeline(ks, config, records, zone_blobs, ctx)
        self._sidx_built(ks, config, "inline", sketch, t0)

    def _sidx_pipeline(
        self,
        ks: Keyspace,
        config: SidxConfig,
        records: PidxColumns,
        zone_blobs: dict[int, bytes],
        ctx: ThreadCtx,
    ) -> Generator:
        """Build and publish one secondary index over ``records`` — primary
        keys with value pointers into ``zone_blobs`` — as columns end to
        end: extract and encode the secondary keys, sort the pairs under the
        DRAM budget, cut blocks, append them, attach blooms, persist.
        Returns the sketch."""
        yield from self._exec(ctx, self.costs.extract_per_record * len(records))
        pairs = SidxColumns.extract(config, records, zone_blobs)
        sorter = ExternalSorter(
            self.zone_manager,
            budget_bytes=self.board.spec.sort_budget_bytes,
            compare_cost=self.board.scale_cpu(self.costs.key_compare),
            pack=SidxColumns.pack,
            unpack=SidxColumns.unpack,
        )
        pairs = yield from sorter.sort(pairs, pairs.packed_bytes, ctx)
        blocks, bounds = pairs.blocks(self.block_bytes)
        yield from self._exec(
            ctx,
            self.costs.block_build_per_byte * sum(len(blob) for _p, blob in blocks),
        )
        # Registered before the appends so fault unwinding can find (and
        # release) a partially written index.
        clusters = ks.sidx_clusters.setdefault(config.name, [])
        block_ptrs = yield from self._append_stream(
            clusters, [blob for _p, blob in blocks], ctx
        )
        sketch = SidxSketch(skey_width=config.width)
        for (pivot, _blob), pointer in zip(blocks, block_ptrs):
            sketch.add_block(pivot, pointer)
        if self.bloom_bits_per_key:
            # per-block blooms over each block's *encoded secondary keys*
            yield from self._attach_blooms(
                ks, sketch, column_key_bytes(pairs.skeys), bounds, ctx
            )
        ks.sidx[config.name] = (config, sketch)
        yield from self.metalog.upsert(ctx, ks)
        return sketch

    def _sidx_built(
        self, ks: Keyspace, config: SidxConfig, mode: str, sketch: SidxSketch, t0: float
    ) -> None:
        """Account one finished index build (``mode``: inline or scan)."""
        self.stats.counter(
            "sidx_builds_inline" if mode == "inline" else "sidx_builds"
        ).add()
        self.job_durations[(ks.name, f"sidx:{config.name}")] = self.env.now - t0
        self._journal("sidx.build_end",
            keyspace=ks.name,
            index=config.name,
            mode=mode,
            n_blocks=len(sketch),
        )
        self._audit_boundary("sidx")

    # ------------------------------------------------------------------ secondary indexes
    def build_sidx(
        self,
        name: str,
        config: SidxConfig,
        ctx: ThreadCtx,
    ) -> Generator:
        """Kick off asynchronous secondary-index construction."""
        yield from self._exec(ctx, self.costs.request_overhead)
        ks = self._keyspace(name)
        ks.require(KeyspaceState.COMPACTED)
        if config.name in ks.sidx:
            raise SecondaryIndexError(
                f"keyspace {name!r} already has index {config.name!r}"
            )
        done = Event(self.env)
        self._jobs[name].append(done)
        self.env.process(
            self._sidx_job(ks, config, done), name=f"sidx-{name}-{config.name}"
        )

    def _sidx_job(self, ks: Keyspace, config: SidxConfig, done: Event) -> Generator:
        ctx = self._ctx(priority=5)
        t0 = self.env.now
        probe = self.env.probe
        job_span = probe and probe.span_begin(
            "job.sidx", "job", "jobs/sidx",
            {"keyspace": ks.name, "index": config.name},
        )
        bloom_dram0 = self._bloom_dram.get(ks.name, 0)
        try:
            self._journal("sidx.build_begin",
                keyspace=ks.name,
                index=config.name,
                mode="scan",
            )
            # ---- full scan: PIDX for keys+pointers, SORTED_VALUES for values
            assert ks.pidx_sketch is not None
            blobs = yield from self.query_engine._read_blocks(
                list(ks.pidx_sketch.block_pointers), ctx
            )
            records = PidxColumns.from_blocks(blobs)
            zone_blobs: dict[int, bytes] = {}
            for cluster in ks.sorted_value_clusters:
                contents = yield from cluster.read_all()
                zone_blobs.update(contents)
            sketch = yield from self._sidx_pipeline(
                ks, config, records, zone_blobs, ctx
            )
            self._sidx_built(ks, config, "scan", sketch, t0)
        except ReproError as exc:
            # Fault containment (see _compact_job): drop the partial index,
            # return its zones and bloom DRAM, park the error for the wait
            # ticket.  The keyspace stays COMPACTED and queryable.
            ks.sidx.pop(config.name, None)
            for cluster in ks.sidx_clusters.pop(config.name, []):
                yield from self._release_cluster(cluster)
            added = self._bloom_dram.get(ks.name, 0) - bloom_dram0
            if added > 0:
                yield from self.board.dram.release(added)
                self._bloom_dram[ks.name] = bloom_dram0
            self.stats.counter("sidx_build_failures").add()
            self._job_errors.setdefault(ks.name, []).append(exc)
        finally:
            if job_span is not None:
                probe.span_end(job_span)
            self._jobs[ks.name].remove(done)
            done.succeed()

    # ------------------------------------------------------------------ queries
    def _run_query(
        self,
        op: str,
        fn: Callable[[ThreadCtx], Generator],
        ctx: ThreadCtx,
    ) -> Generator:
        """Execute one query thunk inline or via the scheduler.

        With ``query_workers=0`` the thunk runs on the caller's context —
        the serial reference path, byte-identical to pre-scheduler builds.
        Otherwise the command is admitted into the scheduler's bounded
        queue and a worker runs it on its own SoC firmware context, so
        concurrent host queries overlap instead of serializing.
        """
        if self.query_scheduler is None:
            result = yield from fn(ctx)
        else:
            result = yield from self.query_scheduler.submit(op, fn)
        return result

    def point_query(self, name: str, key: bytes, ctx: ThreadCtx) -> Generator:
        """GET over the primary index; returns the value or raises."""
        with self._inflight.request() as slot:
            yield from trace_wait(self.env, slot, "dev.inflight_wait")
            yield from self._exec(ctx, self.costs.request_overhead)
            ks = self._keyspace(name)
            value = yield from self._run_query(
                "point_query",
                lambda qctx: self.query_engine.point_query(ks, key, qctx),
                ctx,
            )
            self.stats.counter("point_queries").add()
            return value

    def multi_point_query(
        self, name: str, keys: list[bytes], ctx: ThreadCtx
    ) -> Generator:
        """Batched GETs with shared block reads; returns {key: value}."""
        with self._inflight.request() as slot:
            yield from trace_wait(self.env, slot, "dev.inflight_wait")
            yield from self._exec(ctx, self.costs.request_overhead)
            ks = self._keyspace(name)
            result = yield from self._run_query(
                "multi_point_query",
                lambda qctx: self.query_engine.multi_point_query(ks, keys, qctx),
                ctx,
            )
            self.stats.counter("multi_point_queries").add()
            return result

    def range_query(
        self, name: str, lo: bytes, hi: bytes, ctx: ThreadCtx
    ) -> Generator:
        """Primary-index range query over [lo, hi)."""
        with self._inflight.request() as slot:
            yield from trace_wait(self.env, slot, "dev.inflight_wait")
            yield from self._exec(ctx, self.costs.request_overhead)
            ks = self._keyspace(name)
            result = yield from self._run_query(
                "range_query",
                lambda qctx: self.query_engine.range_query(ks, lo, hi, qctx),
                ctx,
            )
            self.stats.counter("range_queries").add()
            return result

    def sidx_range_query(
        self, name: str, index_name: str, lo_raw: bytes, hi_raw: bytes, ctx: ThreadCtx
    ) -> Generator:
        """Secondary-index range query; returns full matching records."""
        with self._inflight.request() as slot:
            yield from trace_wait(self.env, slot, "dev.inflight_wait")
            yield from self._exec(ctx, self.costs.request_overhead)
            ks = self._keyspace(name)
            result = yield from self._run_query(
                "sidx_range_query",
                lambda qctx: self.query_engine.sidx_range_query(
                    ks, index_name, lo_raw, hi_raw, qctx
                ),
                ctx,
            )
            self.stats.counter("sidx_queries").add()
            return result

    def sidx_point_query(
        self, name: str, index_name: str, skey_raw: bytes, ctx: ThreadCtx
    ) -> Generator:
        """All records whose secondary key equals ``skey_raw``."""
        with self._inflight.request() as slot:
            yield from trace_wait(self.env, slot, "dev.inflight_wait")
            yield from self._exec(ctx, self.costs.request_overhead)
            ks = self._keyspace(name)
            result = yield from self._run_query(
                "sidx_point_query",
                lambda qctx: self.query_engine.sidx_point_query(
                    ks, index_name, skey_raw, qctx
                ),
                ctx,
            )
            self.stats.counter("sidx_queries").add()
            return result
