"""Deferred compaction and the offloaded-job harness.

Section V of the paper: ``compact`` flips a WRITABLE keyspace to
COMPACTING and returns; a background job on the SoC reads the unordered
KLOG back, sorts it under the DRAM budget (range-partitioned across the SoC
cores when ``compaction_shards > 1``), gathers the values in key order,
writes SORTED_VALUES and the PIDX, drops the logs and flips the keyspace to
COMPACTED.  Secondary indexes requested with the compaction are built in
the same pass while the values are still in DRAM, or by separate scan jobs
when they would not fit the sort budget.

Every job — a compaction or a secondary-index build — runs in one harness:
a job span, fault containment that unwinds the job's partial outputs on a
:class:`~repro.errors.ReproError` and parks the error for the keyspace's
next wait, and the completion event ``delete_keyspace`` and
``wait_for_jobs`` wait on.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from contextlib import contextmanager

import numpy as np

from repro.core.costs import CsdCostModel
from repro.core.index_build import IndexBuilder
from repro.core.ingest import Ingest
from repro.core.keyspace import Keyspace, KeyspaceState, lookup
from repro.core.klog import KlogColumns
from repro.core.metalog import MetadataLog
from repro.core.pidx import PidxColumns, PidxPacker, PidxSketch
from repro.core.sidx import SidxConfig
from repro.core.sort import ParallelSortCoordinator
from repro.core.vlog import gather_values, pointer_columns, stripe_groups
from repro.core.zone_manager import ZoneCluster, ZoneManager
from repro.errors import ReproError, SecondaryIndexError
from repro.host.threads import ThreadCtx
from repro.obs.trace import trace_span, trace_wait
from repro.sim.core import Event
from repro.sim.stats import StatsRegistry
from repro.sim.sync import AllOf, BoundedQueue
from repro.soc.board import SocBoard

__all__ = ["Compactor"]

#: failure counter of each job kind
_FAILURES = {"compaction": "compaction_failures", "sidx": "sidx_build_failures"}


class Compactor:
    """Kicks off and runs one device's compactions and index-build jobs.

    ``release`` returns a zone cluster to the pool (dropping its cached
    blocks); ``job_durations`` is the device's ``(keyspace, kind) ->
    seconds`` table.
    """

    def __init__(
        self, board: SocBoard, zone_manager: ZoneManager, costs: CsdCostModel,
        stats: StatsRegistry, metalog: MetadataLog, keyspaces: dict[str, Keyspace],
        ingest: Ingest, indexes: IndexBuilder,
        release: Callable[[ZoneCluster], Generator], block_bytes: int,
        job_durations: dict[tuple[str, str], float],
        journal: Callable[..., None], audit: Callable[[str], None],
    ):
        self.env = board.env
        self.board = board
        self.zone_manager = zone_manager
        self.costs = costs
        self.stats = stats
        self.metalog = metalog
        self.keyspaces = keyspaces
        self.ingest = ingest
        self.indexes = indexes
        self._release = release
        self.block_bytes = block_bytes
        #: key-range shards for the compaction sort, bounded by the cores
        #: that could actually run them concurrently
        self.shards = max(1, min(board.spec.compaction_shards, board.spec.n_cores))
        self.job_durations = job_durations
        self._journal = journal
        self._audit = audit
        #: running job (its completion event) -> the indexes it builds
        self._job_indexes: dict[Event, list[str]] = {}

    def _require_new_indexes(self, ks: Keyspace, names: list[str]) -> None:
        """Refuse an index the keyspace has, or a running job builds."""
        building = {n for job in ks.jobs for n in self._job_indexes[job]}
        for name in names:
            if name in ks.sidx or name in building:
                raise SecondaryIndexError(f"keyspace {ks.name!r} already has index {name!r}")

    # ------------------------------------------------------------------ commands
    def compact(
        self, name: str, ctx: ThreadCtx, sidx_configs: tuple[SidxConfig, ...] = ()
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
        yield from self.board.charge(ctx, self.costs.request_overhead)
        ks = lookup(self.keyspaces, name)
        ks.require(KeyspaceState.WRITABLE)
        names = [config.name for config in sidx_configs]
        if len(set(names)) != len(names):
            raise SecondaryIndexError(f"duplicate index names in request: {names}")
        self._require_new_indexes(ks, names)
        with ks.write_lock.request() as lock:
            yield from trace_wait(self.env, lock, "dev.write_lock_wait")
            yield from self.ingest.flush(ks, ctx)
        ks.begin_compaction()
        yield from self.metalog.upsert(ctx, ks)
        self._journal(
            "keyspace.compaction_begin", keyspace=name, n_pairs=ks.n_pairs,
            inline_sidx=names,
        )
        self._spawn(
            ks, "compaction", f"compact-{name}", names,
            lambda jctx: self._compact(ks, sidx_configs, jctx),
            {"keyspace": name},
        )

    def build_sidx(self, name: str, config: SidxConfig, ctx: ThreadCtx) -> Generator:
        """Kick off asynchronous secondary-index construction."""
        yield from self.board.charge(ctx, self.costs.request_overhead)
        ks = lookup(self.keyspaces, name)
        ks.require(KeyspaceState.COMPACTED)
        self._require_new_indexes(ks, [config.name])
        self._spawn_scan(ks, config)

    # ------------------------------------------------------------------ job harness
    def _spawn_scan(self, ks: Keyspace, config: SidxConfig) -> None:
        self._spawn(
            ks, "sidx", f"sidx-{ks.name}-{config.name}", [config.name],
            lambda jctx: self.indexes.build(ks, config, jctx),
            {"keyspace": ks.name, "index": config.name},
        )

    def _spawn(
        self, ks: Keyspace, kind: str, process_name: str, indexes: list[str],
        body: Callable[[ThreadCtx], Generator], span_args: dict,
    ) -> None:
        """Run ``body(ctx)`` as an offloaded job of ``ks`` (``kind``:
        compaction or sidx) that owns the secondary indexes ``indexes``."""
        done = Event(self.env)
        ks.jobs.append(done)
        self._job_indexes[done] = indexes
        self.env.process(
            self._job(ks, kind, indexes, body, span_args, done), name=process_name
        )

    def _job(
        self, ks: Keyspace, kind: str, indexes: list[str],
        body: Callable[[ThreadCtx], Generator], span_args: dict, done: Event,
    ) -> Generator:
        ctx = self.board.firmware_ctx(priority=5)
        probe = self.env.probe
        job_span = probe and probe.span_begin(
            f"job.{kind}", "job", f"jobs/{kind}", span_args
        )
        # Pre-job snapshot for fault containment: a ReproError mid-job (e.g.
        # an injected media error) unwinds the partial outputs back to this.
        before = (ks.n_pairs, ks.pidx_sketch, len(ks.sorted_value_clusters),
                  len(ks.pidx_clusters))
        try:
            yield from body(ctx)
        except ReproError as exc:
            # Unwind so the keyspace returns to a legal state, then park the
            # error for wait_for_jobs() to surface on the host's wait ticket.
            # A PowerCut is not a ReproError and propagates — a dead device
            # does not unwind.
            yield from self._unwind(ks, before, indexes)
            self.stats.counter(_FAILURES[kind]).add()
            ks.job_errors.append(exc)
        finally:
            if job_span is not None:
                probe.span_end(job_span)
            ks.jobs.remove(done)
            del self._job_indexes[done]
            done.succeed()

    def _unwind(self, ks: Keyspace, before: tuple, indexes: list[str]) -> Generator:
        """Drop a failed job's partial outputs.

        A compaction that had not finished also drops its SORTED_VALUES and
        PIDX clusters and returns the keyspace to WRITABLE with its logs
        intact.  Then every secondary index the job owned goes.
        """
        if ks.state is KeyspaceState.COMPACTING:
            n_pairs, sketch, n_sorted, n_pidx = before
            for cluster in ks.sorted_value_clusters[n_sorted:]:
                yield from self._release(cluster)
            del ks.sorted_value_clusters[n_sorted:]
            for cluster in ks.pidx_clusters[n_pidx:]:
                yield from self._release(cluster)
            del ks.pidx_clusters[n_pidx:]
            ks.pidx_sketch = sketch
            ks.n_pairs = n_pairs
            ks.state = KeyspaceState.WRITABLE
        yield from self._drop_indexes(ks, indexes)

    def _drop_indexes(self, ks: Keyspace, names: list[str]) -> Generator:
        """Drop each index's entry, clusters and bloom DRAM (an index whose
        blooms were reserved is always registered)."""
        for name in sorted(names):
            entry = ks.sidx.pop(name, None)
            for cluster in ks.sidx_clusters.pop(name, []):
                yield from self._release(cluster)
            if entry is not None and entry[1].bloom_bytes:
                yield from self.board.dram.release(entry[1].bloom_bytes)
                ks.bloom_dram -= entry[1].bloom_bytes

    # ------------------------------------------------------------------ the compaction job
    @contextmanager
    def _phase(self, ks: Keyspace, phase: str, **span_args):
        """Bracket one compaction phase with journal events, a
        ``compact.<phase>`` span and an audit.

        The end event and the audit run only on success — a phase that
        raised never ended, and auditing its half-mutated state would
        report violations the device itself is about to unwind.
        """
        self._journal("compact.phase_begin", keyspace=ks.name, phase=phase)
        with trace_span(self.env, f"compact.{phase}", "stage", **span_args):
            yield
        self._journal("compact.phase_end", keyspace=ks.name, phase=phase)
        self._audit(f"compact.{phase}")

    def _compact(
        self, ks: Keyspace, sidx_configs: tuple[SidxConfig, ...], ctx: ThreadCtx
    ) -> Generator:
        t0 = self.env.now
        # ---- step 1: read back the unordered KLOG records, as one column
        # batch that stays columnar up to the published index
        with self._phase(ks, "read_klog"):
            blobs: list[bytes] = []
            for cluster in ks.klog_clusters:
                contents = yield from cluster.read_all()
                blobs.extend(contents.values())
            klog_bytes = sum(map(len, blobs))
            # Prefix-tolerant: a zone sealed by mount after a torn power-cut
            # append legally carries a garbage suffix behind its records.
            records = KlogColumns.from_blobs(blobs, torn_ok=True)
            yield from self.board.charge(ctx, self.costs.record_parse * len(records))

        # ---- step 2: sort the keys (external merge sort under the budget,
        # range-partitioned across the SoC cores when shards > 1)
        shards = self.shards
        coordinator = ParallelSortCoordinator(
            self.zone_manager,
            budget_bytes=self.board.spec.sort_budget_bytes,
            shards=shards,
            compare_cost=self.board.scale_cpu(self.costs.key_compare),
            pack=KlogColumns.pack,
            unpack=lambda blob: KlogColumns.from_blobs([blob]),
            make_ctx=lambda: self.board.firmware_ctx(priority=5),
        )
        vlog_bytes = sum(c.bytes_stored() for c in ks.vlog_clusters)
        value_passes = max(1, -(-vlog_bytes // self.board.spec.sort_budget_bytes))
        zone_blobs: dict[int, bytes] = {}

        def read_vlog() -> Generator:
            for _pass in range(value_passes):
                for cluster in ks.vlog_clusters:
                    contents = yield from cluster.read_all()
                    zone_blobs.update(contents)

        with self._phase(ks, "sort", shards=shards):
            if shards == 1:
                # Serial reference path: sort, then read the values.
                sorted_records = yield from coordinator.sort(records, klog_bytes, ctx)
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
                        self.env.process(run_sort(), name=f"compact-sort-{ks.name}"),
                        self.env.process(read_vlog(), name=f"vlog-prefetch-{ks.name}"),
                    ],
                )
                sorted_records = sort_out[0]
        # Newest-wins dedup; tombstones drop their key entirely.
        live = sorted_records[sorted_records.newest_live()]

        # ---- step 3: gather values in key order into stripe groups (the
        # per-record placement is independent across key ranges, so the
        # pipelined path spreads the gather over the SoC cores too)
        with self._phase(ks, "gather", records=len(live)):
            if shards == 1 or len(live) < shards:
                yield from self.board.charge(
                    ctx, self.costs.gather_per_record * len(live)
                )
            else:
                per_shard = -(-len(live) // shards)

                def gather_slice(count: int) -> Generator:
                    slice_ctx = self.board.firmware_ctx(priority=5)
                    yield from self.board.charge(
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
        with self._phase(ks, "materialize"):
            if shards == 1:
                yield from self.board.charge(
                    ctx, self.costs.block_build_per_byte * sum(map(len, groups))
                )
                group_ptrs = yield from self.zone_manager.append_stream(
                    ks.sorted_value_clusters, groups
                )
                group_zone, group_start = pointer_columns(group_ptrs)
                blocks = packer.feed(
                    group_zone[group_index],
                    group_start[group_index] + group_off,
                    live.vlen,
                )
                blocks += packer.finish()
                yield from self.board.charge(
                    ctx,
                    self.costs.block_build_per_byte
                    * sum(len(blob) for _p, blob in blocks),
                )
                block_ptrs = yield from self.zone_manager.append_stream(
                    ks.pidx_clusters, [blob for _p, blob in blocks]
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
        if self.indexes.bloom_bits_per_key and len(sketch):
            yield from self.indexes.attach_blooms(
                ks, sketch, live.keys, packer.bounds, ctx
            )
        self._journal("sketch.build", keyspace=ks.name, kind="pidx", n_blocks=len(sketch))

        # ---- step 5: drop the unsorted logs, flip the state
        with self._phase(ks, "cleanup"):
            # Persist the compacted table entry *before* releasing the log
            # zones: a crash between the two leaves orphan zones (reclaimed
            # at mount) instead of a table entry pointing at erased logs.
            stale = ks.klog_clusters + ks.vlog_clusters
            ks.klog_clusters = []
            ks.vlog_clusters = []
            ks.finish_compaction()
            try:
                yield from self.metalog.upsert(ctx, ks)
            finally:
                for cluster in stale:
                    yield from self._release(cluster)
        self.stats.counter("compactions").add()
        self.job_durations[(ks.name, "compaction")] = self.env.now - t0
        self._journal("keyspace.compaction_end", keyspace=ks.name, n_pairs=ks.n_pairs)

        # ---- step 6 (optional): single-pass secondary indexes.  The values
        # are still in DRAM (``groups`` + placements); build every requested
        # index without re-reading the keyspace — unless that working set
        # would not have fit the sort budget.
        if not sidx_configs:
            return
        with self._phase(ks, "sidx", indexes=len(sidx_configs)):
            values_resident = sum(len(g) for g in groups)
            if values_resident <= self.board.spec.sort_budget_bytes:
                # the sorted values as one buffer ("zone" 0), each record
                # pointing at its own
                ends = np.cumsum(live.vlen, dtype=np.int64)
                resident = (
                    PidxColumns(
                        live.keys,
                        np.zeros(len(live), dtype=np.int64),
                        ends - live.vlen,
                        live.vlen,
                    ),
                    {0: b"".join(groups)},
                )
                # Each index sorts an independent pair set: build them
                # concurrently across the SoC cores.  One that fails goes
                # alone and parks its error, as its own build job would.
                def build(config: SidxConfig) -> Generator:
                    try:
                        yield from self.indexes.build(ks, config, ctx, resident)
                    except ReproError as exc:
                        yield from self._drop_indexes(ks, [config.name])
                        self.stats.counter(_FAILURES["sidx"]).add()
                        ks.job_errors.append(exc)

                yield AllOf(
                    self.env,
                    [
                        self.env.process(
                            build(config), name=f"sidx-inline-{ks.name}-{config.name}"
                        )
                        for config in sidx_configs
                    ],
                )
            else:
                for config in sidx_configs:
                    self._spawn_scan(ks, config)

    def _materialize_pipelined(
        self, ks: Keyspace, packer: PidxPacker, groups: list[bytes],
        group_index: np.ndarray, group_off: np.ndarray, lengths: np.ndarray,
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
        writer_ctx = self.board.firmware_ctx(priority=5)
        builder_ctx = self.board.firmware_ctx(priority=5)
        batch = max(1, self.zone_manager.cluster_zones)

        def value_writer() -> Generator:
            with trace_span(self.env, "materialize.value_writer", "stage"):
                for start in range(0, len(groups), batch):
                    chunk = groups[start : start + batch]
                    yield from self.board.charge(
                        writer_ctx,
                        self.costs.block_build_per_byte * sum(map(len, chunk)),
                    )
                    ptrs = yield from self.zone_manager.append_stream(
                        ks.sorted_value_clusters, chunk
                    )
                    yield from queue.put((start, ptrs))
                yield from queue.put(None)

        sketch = PidxSketch()

        def flush_blocks(blocks: list[tuple[bytes, bytes]]) -> Generator:
            for pivot, blob in blocks:
                yield from self.board.charge(
                    builder_ctx, self.costs.block_build_per_byte * len(blob)
                )
                ptrs = yield from self.zone_manager.append_stream(
                    ks.pidx_clusters, [blob]
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
                self.env.process(value_writer(), name=f"compact-values-{ks.name}"),
                self.env.process(pidx_builder(), name=f"compact-pidx-{ks.name}"),
            ],
        )
        return sketch
