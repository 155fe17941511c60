"""The KV-CSD device: the firmware that runs on the SoC (Figure 4 of the paper).

A keyspace manager keeps the in-memory keyspace table (backed by the
metadata log) and a zone manager hands out striped zone clusters.  The
services around them are modules built from the collaborators they use —
:mod:`~repro.core.ingest`, :mod:`~repro.core.compaction` (with the job
harness), :mod:`~repro.core.index_build`, :mod:`~repro.core.query` and
:mod:`~repro.core.mount`; this class builds them, owns the keyspace
lifecycle and the one query entry, and serves the command set.

Every operation executes as simulation processes on the SoC's CPU pool and
its SSD's channels — the host is *not* involved beyond sending commands and
receiving results, which is the paper's entire point.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

import numpy as np

from repro.core.block_cache import BlockCache
from repro.core.compaction import Compactor
from repro.core.costs import CsdCostModel
from repro.core.index_build import IndexBuilder
from repro.core.ingest import Ingest
from repro.core.keyspace import Keyspace, lookup
from repro.core.klog import MAX_KEY_BYTES
from repro.core.membuf import MEMBUF_BYTES, MIN_MEMBUF_BYTES
from repro.core.metalog import MetadataLog
from repro.core.mount import MOUNT_STAGES, Mount
from repro.core.query import QueryEngine
from repro.core.scheduler import QueryScheduler
from repro.core.zone_manager import ZoneCluster, ZoneManager
from repro.errors import DbError, KeyspaceError, KeyspaceExistsError, KeyspaceStateError
from repro.host.threads import ThreadCtx
from repro.lsm.block import MIN_BLOCK_BYTES
from repro.obs.journal import journal_event
from repro.obs.trace import trace_wait
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.sim.stats import StatsRegistry
from repro.soc.board import SocBoard
from repro.units import KiB

__all__ = ["KvCsdDevice"]


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
        # refused here, not by the first flush or compaction that uses them
        if membuf_bytes < MIN_MEMBUF_BYTES:
            raise DbError("membuf too small")
        if block_bytes < MIN_BLOCK_BYTES:
            raise DbError("block target too small")
        self.board = board
        self.env: Environment = board.env
        self.ssd = board.ssd
        #: device identity; cluster testbeds name each device (``dev0``,
        #: ``dev1``, ...) so shared-journal events stay attributable
        self.name = name
        self.costs = costs = costs or CsdCostModel()
        self.cluster_zones = cluster_zones
        self.membuf_bytes = membuf_bytes
        self.block_bytes = block_bytes
        self.zone_manager = ZoneManager(self.ssd, rng, cluster_zones)
        #: the keyspace table: each entry carries its keyspace's volatile
        #: state too (membuf, write lock, seq, jobs, bloom DRAM)
        self.keyspaces: dict[str, Keyspace] = {}
        self._inflight = Resource(self.env, capacity=max_inflight)
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
        self.query_engine = QueryEngine(
            self.ssd,
            costs,
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
        #: durations of the latest offloaded jobs, for Figure 11's breakdown
        self.job_durations: dict[tuple[str, str], float] = {}
        #: per-stage virtual-time latency of the most recent mount
        self.mount_stages: dict[str, float] = {}
        #: optional :class:`repro.obs.audit.InvariantAuditor`; ``None`` (the
        #: default) means the boundary hooks cost one attribute check, same
        #: contract as tracing/journaling.
        self.auditor = None
        #: host-side KV queue pairs registered by clients, so the auditor's
        #: queue-accounting invariant covers the host in-flight set too
        self.host_qps: list = []
        #: the keyspace table's backing store: two fixed, well-known zones,
        #: so a remounted device finds it after a power cycle
        zones, journal, audit = self.zone_manager, self._journal, self._audit_boundary
        self.metalog = MetadataLog(
            board, zones, costs, self.stats, journal, self.keyspaces
        )
        self.ingest = Ingest(
            board, zones, costs, self.stats, self.metalog, self.keyspaces,
            self._inflight, journal, audit,
        )
        self.indexes = IndexBuilder(
            board, zones, costs, self.stats, self.metalog, self.query_engine,
            block_bytes, self.job_durations, journal, audit,
        )
        self.compactor = Compactor(
            board, zones, costs, self.stats, self.metalog, self.keyspaces,
            self.ingest, self.indexes, self._release_cluster, block_bytes,
            self.job_durations, journal, audit,
        )
        self.mount = Mount(
            board, zones, costs, self.stats, self.metalog, self.keyspaces,
            membuf_bytes, self.mount_stages, journal, audit,
        )
        self.compaction_shards = self.compactor.shards
        # The commands the modules serve, as their bound methods.
        self.bulk_put = self.ingest.bulk_put
        self.bulk_delete = self.ingest.bulk_delete
        self.fsync = self.ingest.fsync
        self.compact = self.compactor.compact
        self.build_sidx = self.compactor.build_sidx
        self.recover = self.mount.recover

    # ------------------------------------------------------------------ plumbing
    def register_host_qp(self, qp) -> None:
        """Attach a client's KV queue pair for auditing/introspection."""
        self.host_qps.append(qp)

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
                self._journal(
                    "cache.invalidate", zones=sorted(cluster.zone_ids),
                    entries_dropped=dropped,
                )
        yield from self.zone_manager.release_cluster(cluster)

    # ------------------------------------------------------------------ keyspace lifecycle
    def create_keyspace(self, name: str, ctx: ThreadCtx) -> Generator:
        """Create an EMPTY keyspace (unique name)."""
        yield from self.board.charge(ctx, self.costs.request_overhead)
        if len(name.encode()) > MAX_KEY_BYTES:
            raise KeyspaceError(
                f"keyspace name of {len(name.encode())} bytes exceeds the "
                f"{MAX_KEY_BYTES}-byte limit"
            )
        if name in self.keyspaces:
            raise KeyspaceExistsError(name)
        ks = Keyspace(name=name)
        ks.attach_runtime(self.env, self.membuf_bytes, 0)
        self.keyspaces[name] = ks
        yield from self.metalog.upsert(ctx, ks)
        self.stats.counter("keyspaces_created").add()
        self._journal("keyspace.create", keyspace=name)

    def open_keyspace(self, name: str, ctx: ThreadCtx) -> Generator:
        """Open for insertion: EMPTY -> WRITABLE."""
        yield from self.board.charge(ctx, self.costs.request_overhead)
        ks = lookup(self.keyspaces, name)
        ks.open_for_write()
        yield from self.metalog.upsert(ctx, ks)
        self._journal("keyspace.open", keyspace=name)

    def delete_keyspace(self, name: str, ctx: ThreadCtx) -> Generator:
        """Delete at any state; deferred until the keyspace's jobs — and the
        jobs they spawn — complete.  A second delete while one is in flight
        fails and releases nothing."""
        yield from self.board.charge(ctx, self.costs.request_overhead)
        ks = lookup(self.keyspaces, name)
        if ks.deletion_pending:
            raise KeyspaceStateError(f"keyspace {name!r} is already being deleted")
        ks.deletion_pending = True
        yield from self._join_jobs(ks, surface=False)
        # Crash-safe ordering: persist the delete record *before* touching
        # the data zones.  A cut before the record leaves the keyspace fully
        # intact; a cut after it leaves orphan zones the next mount reclaims.
        yield from self.metalog.delete(ctx, name)
        # Gone for every command from here on, as for a remount: the entry
        # takes its volatile state (and any unwaited job error) with it.
        del self.keyspaces[name]
        for cluster in ks.all_clusters():
            yield from self._release_cluster(cluster)
        if ks.bloom_dram:
            yield from self.board.dram.release(ks.bloom_dram)
        self.stats.counter("keyspaces_deleted").add()
        self._journal("keyspace.delete", keyspace=name)

    def wait_for_jobs(self, name: str) -> Generator:
        """Wait until every outstanding offloaded job of ``name`` completes.

        Jobs that *other jobs* spawn (e.g. per-index fallback scans launched
        by a combined compaction) are waited on too.  A job that failed
        (media error mid-compaction/index-build) parks its exception on the
        keyspace; the first parked error re-raises here, so the host's wait
        ticket — and only that ticket — completes with the error status.
        A missing keyspace raises :class:`KeyspaceNotFoundError`, as for
        every other keyspace command.
        """
        return self._join_jobs(lookup(self.keyspaces, name), surface=True)

    def _join_jobs(self, ks: Keyspace, surface: bool) -> Generator:
        """Wait until ``ks``'s job list drains.  ``surface``: book the waits
        as ``dev.wait_jobs`` spans and raise the first parked job error."""
        while ks.jobs:
            for job in list(ks.jobs):
                if surface:
                    yield from trace_wait(self.env, job, "dev.wait_jobs")
                else:
                    yield job
        if surface and ks.job_errors:
            error = ks.job_errors[0]
            ks.job_errors.clear()
            raise error

    def list_keyspaces(self) -> list[str]:
        """Names of all live keyspaces (table lookup, no device time)."""
        return sorted(self.keyspaces)

    def keyspace_stat(self, name: str) -> dict:
        """State and metadata of one keyspace (no device time: table lookup)."""
        ks = lookup(self.keyspaces, name)
        return {
            "name": ks.name,
            "state": ks.state.value,
            "n_pairs": ks.n_pairs,
            "min_key": ks.min_key,
            "max_key": ks.max_key,
            "secondary_indexes": sorted(ks.sidx),
        }

    # ------------------------------------------------------------------ queries
    def _query(
        self, counter: str, run: Callable[..., Generator], name: str, args: tuple,
        ctx: ThreadCtx,
    ) -> Generator:
        """The one query entry: take an inflight slot, charge the request,
        find the keyspace and run the engine's ``run(ks, *args, ctx)`` —
        inline on the caller's context with ``query_workers=0`` (the serial
        reference path), else admitted into the scheduler's bounded queue
        and run by a worker on its own SoC firmware context, so concurrent
        host queries overlap instead of serializing."""
        with self._inflight.request() as slot:
            yield from trace_wait(self.env, slot, "dev.inflight_wait")
            yield from self.board.charge(ctx, self.costs.request_overhead)
            ks = lookup(self.keyspaces, name)
            if self.query_scheduler is None:
                result = yield from run(ks, *args, ctx)
            else:
                result = yield from self.query_scheduler.submit(
                    run.__name__, lambda qctx: run(ks, *args, qctx)
                )
            self.stats.counter(counter).add()
            return result

    def point_query(self, name: str, key: bytes, ctx: ThreadCtx) -> Generator:
        """GET over the primary index; returns the value or raises."""
        return self._query("point_queries", self.query_engine.point_query, name, (key,), ctx)

    def multi_point_query(self, name: str, keys: list[bytes], ctx: ThreadCtx) -> Generator:
        """Batched GETs with shared block reads; returns {key: value}."""
        engine = self.query_engine
        return self._query("multi_point_queries", engine.multi_point_query, name, (keys,), ctx)

    def range_query(self, name: str, lo: bytes, hi: bytes, ctx: ThreadCtx) -> Generator:
        """Primary-index range query over [lo, hi)."""
        return self._query("range_queries", self.query_engine.range_query, name, (lo, hi), ctx)

    def sidx_range_query(
        self, name: str, index_name: str, lo_raw: bytes, hi_raw: bytes, ctx: ThreadCtx
    ) -> Generator:
        """Secondary-index range query; returns full matching records."""
        args = (index_name, lo_raw, hi_raw)
        return self._query("sidx_queries", self.query_engine.sidx_range_query, name, args, ctx)

    def sidx_point_query(
        self, name: str, index_name: str, skey_raw: bytes, ctx: ThreadCtx
    ) -> Generator:
        """All records whose secondary key equals ``skey_raw``."""
        args = (index_name, skey_raw)
        return self._query("sidx_queries", self.query_engine.sidx_point_query, name, args, ctx)

    # ------------------------------------------------------------------ observability
    def metric_gauges(self) -> dict:
        """Every instantaneous gauge of the firmware, for MetricsHub sampling.

        DRAM pressure, zone-pool occupancy, the metadata epoch, the query
        scheduler's queue (when there is one) and per-stage mount latency.
        Recovery outcomes (``recoveries``, ``orphan_zones_reclaimed``,
        ``blooms_reloaded``, ...) are counters on :attr:`stats`, not gauges.
        """
        stages = self.mount_stages
        gauges = {
            **self.board.dram.metric_gauges(),
            **self.zone_manager.metric_gauges(),
            **self.metalog.metric_gauges(),
            "recovery.mount_seconds": lambda: float(sum(stages.values())),
        }
        if self.query_scheduler is not None:
            gauges.update(self.query_scheduler.metric_gauges())
        for stage in MOUNT_STAGES:
            gauges[f"recovery.stage_seconds.{stage}"] = (
                lambda s=stage: float(stages.get(s, 0.0))
            )
        return gauges

    def introspect(self) -> dict:
        """Deep structural snapshot of every stateful firmware component.

        Walks the object graph — keyspaces with their cluster chains and
        index sketches, membufs, the zone manager's free list, the ZNS zone
        table, the SoC board, the block cache, and the job table — into
        plain JSON-ready dicts, with the device's counters alongside.  Pure
        state read: no simulation events, no device time (see
        :mod:`repro.obs.inspect` for the versioned full-snapshot wrapper).
        """
        table = sorted(self.keyspaces.items())
        return {
            "keyspaces": {name: ks.introspect() for name, ks in table},
            "membufs": {name: ks.membuf.introspect() for name, ks in table},
            "sequence_numbers": {name: ks.seq for name, ks in table},
            "zone_manager": self.zone_manager.introspect(),
            "metadata_zone": self.metalog.introspect(),
            "mount_stages": dict(self.mount_stages),
            "ssd": self.ssd.introspect(),
            "soc": self.board.introspect(),
            "block_cache": (
                self.block_cache.introspect()
                if self.block_cache is not None
                else None
            ),
            "jobs": {
                "pending": {name: len(ks.jobs) for name, ks in table if ks.jobs},
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
                name: ks.bloom_dram for name, ks in table if ks.bloom_dram
            },
        }
