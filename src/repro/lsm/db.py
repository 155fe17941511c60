"""The RocksDB-like embedded key-value store (the paper's baseline).

A functional LSM tree running entirely on host resources:

* writes land in a WAL (optional) and a memtable; full memtables seal and
  queue for background flush into L0 tables;
* background worker threads (default 2, like RocksDB per the paper) flush
  memtables and run leveled compactions on the host CPU cores they are
  allowed to use — contending with foreground threads;
* write stalls: writers block when immutable memtables pile up or L0 grows
  past its stop trigger, and are throttled past the slowdown trigger — the
  exact failure mode (Luo & Carey's "write stalls") KV-CSD's deferred,
  offloaded compaction avoids;
* reads check memtables, then tables newest-to-oldest, with bloom filters
  and a block cache, over the filesystem's page cache.

Three compaction modes mirror the paper's Figure 9 RocksDB configurations:
``AUTO`` (default), ``DEFERRED`` (one single-pass merge when the caller
invokes :meth:`Db.compact_all`), and ``NONE``.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from dataclasses import replace
from typing import Optional

from repro.errors import DbClosedError, DbError
from repro.host.filesystem import Filesystem
from repro.host.threads import ThreadCtx
from repro.lsm.cache import BlockCache
from repro.lsm.compaction import CompactionExecutor
from repro.lsm.iterator import merge_entries
from repro.lsm.manifest import VersionEdit, decode_edits, encode_edit
from repro.lsm.memtable import LookupState, Memtable
from repro.lsm.options import CompactionMode, DbOptions
from repro.lsm.sstable import TableBuilder, TableMeta, TableReader, encode_value
from repro.lsm.version import CompactionTask, VersionSet
from repro.lsm.wal import WriteAheadLog
from repro.sim.core import Environment, Event
from repro.sim.stats import StatsRegistry

__all__ = ["Db"]


class _JobQueue:
    """Priority job queue for the background workers (flush < compaction)."""

    def __init__(self, env: Environment):
        self.env = env
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        self._waiters: list[Event] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, priority: int, job: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (priority, self._seq, job))
        if self._waiters:
            self._waiters.pop(0).succeed()

    def get(self) -> Generator:
        while not self._heap:
            ev = Event(self.env)
            self._waiters.append(ev)
            yield ev
        return heapq.heappop(self._heap)[2]


class Db:
    """One embedded LSM key-value store instance."""

    def __init__(
        self,
        env: Environment,
        fs: Filesystem,
        bg_ctx: ThreadCtx,
        options: DbOptions | None = None,
        name: str = "db",
    ):
        self.env = env
        self.fs = fs
        self.options = options or DbOptions()
        self.name = name
        self.bg_ctx = bg_ctx
        self.versions = VersionSet(self.options)
        self.block_cache = BlockCache(self.options.block_cache_bytes)
        self.stats = StatsRegistry(name)
        self._memtable = Memtable()
        self._immutables: list[tuple[Memtable, Optional[WriteAheadLog]]] = []
        self._wal: Optional[WriteAheadLog] = None
        self._wal_seq = 0
        self._next_table = 0
        self._readers: dict[int, TableReader] = {}
        # Flush jobs run on a dedicated worker, strictly in seal order, so L0
        # installs in memtable order and pending flushes are always *newer*
        # than every installed L0 table (RocksDB's single high-priority flush
        # thread gives the same invariant).  Compactions run on the rest.
        self._flush_jobs = _JobQueue(env)
        self._compact_jobs = _JobQueue(env)
        self._pending_jobs = 0
        self._compaction_inflight = False
        self._flush_seq = 0
        self._progress = env.event()
        self._workers: list = []
        self._open = False
        self._closing = False
        self._manifest_offset = 0
        self._executor = CompactionExecutor(
            fs,
            self.options,
            reader_for=self._reader,
            next_table_id=self._take_table_id,
            table_path=self._table_path,
        )

    # ------------------------------------------------------------------ lifecycle
    def open(self, ctx: ThreadCtx) -> Generator:
        """Open the DB, recovering any prior state on this filesystem.

        A pre-existing MANIFEST is replayed to rebuild the level layout and
        live WAL segments are replayed into the memtable (then flushed), so
        a DB instance abandoned mid-run — the crash model — reopens with all
        acknowledged writes intact.
        """
        if self._open:
            raise DbError(f"{self.name} is already open")
        recovering = self.fs.exists(self._manifest_path())
        yield from self.fs.create(self._manifest_path(), ctx, exclusive=False)
        if recovering:
            yield from self._recover_manifest(ctx)
        if self.options.enable_wal:
            self._wal = self._new_wal()
            yield from self._wal.open(ctx)
        self._workers.append(
            self.env.process(
                self._worker_loop(self._flush_jobs), name=f"{self.name}-flush"
            )
        )
        n_compactors = max(1, self.options.n_compaction_threads - 1)
        for i in range(n_compactors):
            self._workers.append(
                self.env.process(
                    self._worker_loop(self._compact_jobs), name=f"{self.name}-bg{i}"
                )
            )
        self._open = True
        if recovering:
            yield from self._recover_wal(ctx)

    def close(self, ctx: ThreadCtx) -> Generator:
        """Flush nothing, stop workers, mark closed (fast close, like the paper
        exiting after handing compaction to the store)."""
        self._check_open()
        self._closing = True
        self._flush_jobs.push(100, None)
        for _ in range(len(self._workers) - 1):
            self._compact_jobs.push(100, None)
        for worker in self._workers:
            yield worker
        self._open = False

    def _check_open(self) -> None:
        if not self._open:
            raise DbClosedError(f"{self.name} is not open")

    # ------------------------------------------------------------------ naming
    def _manifest_path(self) -> str:
        return f"{self.name}/MANIFEST"

    def _table_path(self, table_id: int) -> str:
        return f"{self.name}/{table_id:06d}.sst"

    def _take_table_id(self) -> int:
        self._next_table += 1
        return self._next_table

    def _new_wal(self) -> WriteAheadLog:
        self._wal_seq += 1
        return WriteAheadLog(
            self.fs,
            f"{self.name}/wal-{self._wal_seq:06d}.log",
            self.options.costs,
            sync=self.options.wal_sync,
        )

    def _reader(self, meta: TableMeta) -> TableReader:
        reader = self._readers.get(meta.table_id)
        if reader is None:
            reader = TableReader(self.fs, meta, self.options, cache=self.block_cache)
            self._readers[meta.table_id] = reader
        return reader

    # ------------------------------------------------------------------ progress
    def _signal_progress(self) -> None:
        ev, self._progress = self._progress, self.env.event()
        ev.succeed()

    def _stall_wait(self) -> Generator:
        t0 = self.env.now
        yield self._progress
        self.stats.counter("stall_seconds").add(self.env.now - t0)

    # ------------------------------------------------------------------ writes
    def put(self, key: bytes, value: bytes, ctx: ThreadCtx) -> Generator:
        """Store one key-value pair."""
        yield from self.write_batch([(key, value)], ctx)

    def delete(self, key: bytes, ctx: ThreadCtx) -> Generator:
        """Delete a key (writes a tombstone)."""
        yield from self.write_batch([(key, None)], ctx)

    def write_batch(
        self, pairs: list[tuple[bytes, Optional[bytes]]], ctx: ThreadCtx
    ) -> Generator:
        """Apply a batch atomically; blocks under write stalls."""
        self._check_open()
        if not pairs:
            return
        yield from self._throttle(ctx)
        if self._wal is not None:
            yield from self._wal.append(pairs, ctx)
        # Fill the memtable pair by pair, rotating whenever it reaches its
        # threshold — a large application batch must not inflate the
        # memtable (RocksDB checks per key).
        i = 0
        n = len(pairs)
        while i < n:
            chunk_start = i
            while (
                i < n
                and self._memtable.approximate_bytes < self.options.memtable_bytes
            ):
                key, value = pairs[i]
                if value is None:
                    self._memtable.delete(key)
                else:
                    self._memtable.put(key, value)
                i += 1
            yield from ctx.execute(
                self.options.costs.memtable_insert * (i - chunk_start)
            )
            if self._memtable.approximate_bytes >= self.options.memtable_bytes:
                yield from self._rotate_memtable(ctx)
                yield from self._throttle(ctx)
        self.stats.counter("puts").add(n)

    def _throttle(self, ctx: ThreadCtx) -> Generator:
        """L0 stop/slowdown backpressure (auto-compaction mode only)."""
        if self.options.compaction_mode is not CompactionMode.AUTO:
            return
        while self.versions.l0_count() >= self.options.l0_stop_trigger:
            yield from self._stall_wait()
        if self.versions.l0_count() >= self.options.l0_slowdown_trigger:
            yield self.env.timeout(self.options.stall_delay_per_batch)
            self.stats.counter("slowdown_seconds").add(
                self.options.stall_delay_per_batch
            )

    def _rotate_memtable(self, ctx: ThreadCtx) -> Generator:
        """Seal the active memtable and hand it to the flush pipeline."""
        target = self._memtable
        while len(self._immutables) >= self.options.max_immutable_memtables:
            yield from self._stall_wait()
            if self._memtable is not target:
                return  # another writer rotated while we waited
        if self._memtable is not target or not len(target):
            return
        sealed = self._memtable
        sealed.seal()
        sealed_wal = self._wal
        self._immutables.append((sealed, sealed_wal))
        self._memtable = Memtable()
        if self.options.enable_wal:
            self._wal = self._new_wal()
            yield from self._wal.open(ctx)
        self._flush_seq += 1
        self._flush_jobs.push(0, ("flush", (sealed, sealed_wal, self._flush_seq)))
        self._pending_jobs += 1

    def flush(self, ctx: ThreadCtx) -> Generator:
        """Seal the active memtable (if non-empty) and wait for all flushes."""
        self._check_open()
        if len(self._memtable):
            yield from self._rotate_memtable(ctx)
        while self._immutables:
            yield from self._stall_wait()

    # ------------------------------------------------------------------ reads
    def get(self, key: bytes, ctx: ThreadCtx) -> Generator:
        """Point lookup; returns the value or ``None``."""
        self._check_open()
        yield from ctx.execute(self.options.costs.memtable_lookup)
        state, value = self._memtable.get(key)
        if state is not LookupState.MISSING:
            self.stats.counter("gets").add()
            return value
        for memtable, _ in reversed(self._immutables):
            yield from ctx.execute(self.options.costs.memtable_lookup)
            state, value = memtable.get(key)
            if state is not LookupState.MISSING:
                self.stats.counter("gets").add()
                return value
        for meta in self.versions.tables_for_key(key):
            state, value = yield from self._reader(meta).get(key, ctx)
            if state is not LookupState.MISSING:
                self.stats.counter("gets").add()
                return value
        self.stats.counter("gets").add()
        return None

    def scan(self, lo: bytes, hi: bytes, ctx: ThreadCtx) -> Generator:
        """Range query over [lo, hi); returns sorted (key, value) pairs."""
        self._check_open()
        streams: list[list] = [self._memtable.range_entries(lo, hi)]
        for memtable, _ in reversed(self._immutables):
            streams.append(memtable.range_entries(lo, hi))
        for meta in self.versions.tables_overlapping(lo, hi):
            entries = yield from self._reader(meta).scan(lo, hi, ctx)
            streams.append(entries)
        merged = merge_entries(streams, drop_tombstones=True)
        yield from ctx.execute(
            self.options.costs.iterator_next * max(1, len(merged))
        )
        self.stats.counter("scans").add()
        return merged

    # ------------------------------------------------------------------ background
    def _worker_loop(self, queue: _JobQueue) -> Generator:
        while True:
            job = yield from queue.get()
            if job is None:
                return
            kind, payload = job
            if kind == "flush":
                yield from self._do_flush(payload)
            elif kind == "compact":
                yield from self._do_compaction(payload)
            self._pending_jobs -= 1
            self._signal_progress()

    def _do_flush(self, payload) -> Generator:
        memtable, wal, flush_seq = payload
        entries = [
            (key, encode_value(value)) for key, value in memtable.sorted_entries()
        ]
        table_id = self._take_table_id()
        builder = TableBuilder(
            self.fs,
            self._table_path(table_id),
            table_id,
            self.options,
            expected_keys=len(entries),
        )
        meta = yield from builder.build(entries, self.bg_ctx)
        meta = replace(meta, l0_seq=flush_seq)
        self.versions.add_l0(meta)
        yield from self._log_version_edit(VersionEdit(added=((0, meta),)))
        self._immutables = [
            pair for pair in self._immutables if pair[0] is not memtable
        ]
        if wal is not None:
            yield from wal.delete(self.bg_ctx)
        self.stats.counter("flushes").add()
        self.stats.counter("flushed_bytes").add(meta.file_bytes)
        self._maybe_schedule_compaction()

    def _maybe_schedule_compaction(self) -> None:
        if self.options.compaction_mode is not CompactionMode.AUTO or self._closing:
            return
        if self._compaction_inflight:
            # One compaction at a time: overlapping concurrent compactions
            # could reorder newest-wins resolution (and real RocksDB also
            # serialises L0->base compactions).
            return
        task = self.versions.pick_compaction()
        if task is not None:
            self._compaction_inflight = True
            self._compact_jobs.push(1, ("compact", task))
            self._pending_jobs += 1

    def _do_compaction(self, task: CompactionTask) -> Generator:
        result = yield from self._executor.run(task, self.bg_ctx)
        self.versions.install_compaction(task, result.outputs, task.output_level)
        yield from self._log_version_edit(
            VersionEdit(
                added=tuple((task.output_level, m) for m in result.outputs),
                removed=tuple(t.table_id for t in task.all_inputs),
            )
        )
        for meta in task.all_inputs:
            self._readers.pop(meta.table_id, None)
            self.block_cache.evict_table(meta.table_id)
            yield from self.fs.delete(meta.path, self.bg_ctx)
        self.stats.counter("compactions").add()
        self.stats.counter("compaction_entries_in").add(result.entries_in)
        self.stats.counter("compaction_entries_out").add(result.entries_out)
        self._compaction_inflight = False
        self._maybe_schedule_compaction()

    def _log_version_edit(self, edit: VersionEdit) -> Generator:
        """Append one version edit to the MANIFEST."""
        record = encode_edit(edit)
        yield from self.fs.write(
            self._manifest_path(), self._manifest_offset, record, self.bg_ctx
        )
        self._manifest_offset += len(record)

    # ------------------------------------------------------------------ recovery
    def _wal_paths_on_disk(self) -> list[str]:
        prefix = f"{self.name}/wal-"
        return sorted(f for f in self.fs.list_files() if f.startswith(prefix))

    def _recover_manifest(self, ctx: ThreadCtx) -> Generator:
        """Rebuild the level layout by replaying the MANIFEST's edits."""
        size = self.fs.file_size(self._manifest_path())
        blob = yield from self.fs.read(self._manifest_path(), 0, size, ctx)
        max_table = 0
        max_seq = 0
        for edit in decode_edits(blob):
            doomed = set(edit.removed)
            if doomed:
                for level in range(len(self.versions.levels)):
                    self.versions.levels[level] = [
                        t
                        for t in self.versions.levels[level]
                        if t.table_id not in doomed
                    ]
            for level, meta in edit.added:
                max_table = max(max_table, meta.table_id)
                max_seq = max(max_seq, meta.l0_seq)
                if level == 0:
                    self.versions.add_l0(meta)
                else:
                    self.versions.levels[level].append(meta)
                    self.versions.levels[level].sort(key=lambda t: t.smallest)
        self._manifest_offset = size
        self._next_table = max(self._next_table, max_table)
        self._flush_seq = max(self._flush_seq, max_seq)
        # New WAL segments must sort after any survivors.
        for path in self._wal_paths_on_disk():
            try:
                seq = int(path.rsplit("-", 1)[1].split(".")[0])
            except ValueError:
                continue
            self._wal_seq = max(self._wal_seq, seq)
        self.stats.counter("recoveries").add()

    def _recover_wal(self, ctx: ThreadCtx) -> Generator:
        """Replay surviving WAL segments into the memtable, then flush them
        into an L0 table and delete the segments (LevelDB's recovery)."""
        current = self._wal.path if self._wal is not None else None
        survivors = [p for p in self._wal_paths_on_disk() if p != current]
        replayed = 0
        for path in survivors:
            size = self.fs.file_size(path)
            blob = yield from self.fs.read(path, 0, size, ctx)
            for key, value in WriteAheadLog.replay(blob):
                if value is None:
                    self._memtable.delete(key)
                else:
                    self._memtable.put(key, value)
                replayed += 1
        if len(self._memtable):
            yield from self._rotate_memtable(ctx)
            while self._immutables:
                yield from self._stall_wait()
        for path in survivors:
            if self.fs.exists(path):
                yield from self.fs.delete(path, ctx)
        if replayed:
            self.stats.counter("wal_records_replayed").add(replayed)

    # ------------------------------------------------------------------ compaction control
    def compact_all(self, ctx: ThreadCtx) -> Generator:
        """Deferred mode: flush, then one single-pass merge of everything.

        In ``AUTO`` mode this degenerates to :meth:`wait_for_compaction`.
        """
        self._check_open()
        yield from self.flush(ctx)
        yield from self.wait_for_compaction()
        if self.options.compaction_mode is CompactionMode.AUTO:
            return
        task = self.versions.pick_full_compaction()
        if task is None:
            return
        self._compact_jobs.push(1, ("compact", task))
        self._pending_jobs += 1
        yield from self.wait_for_compaction()

    def wait_for_compaction(self) -> Generator:
        """Block until no flush/compaction work remains (the paper's
        "wait until all compaction work concludes before exiting")."""
        while True:
            if self.options.compaction_mode is CompactionMode.AUTO:
                self._maybe_schedule_compaction()
            idle = not self._immutables and self._pending_jobs == 0
            if idle and (
                self.options.compaction_mode is not CompactionMode.AUTO
                or not self.versions.compaction_needed()
            ):
                return
            yield from self._stall_wait()

    # ------------------------------------------------------------------ introspection
    def table_count(self) -> int:
        return self.versions.n_tables()

    def level_sizes(self) -> list[int]:
        return [self.versions.level_bytes(level) for level in range(self.options.max_levels)]

    def report(self) -> dict:
        """Observability snapshot, mirroring RocksDB's DB properties."""
        counters = self.stats.counter_values()
        return {
            "name": self.name,
            "open": self._open,
            "counters": counters,
            "levels": {
                "files": [len(level) for level in self.versions.levels],
                "bytes": self.level_sizes(),
            },
            "memtable_bytes": self._memtable.approximate_bytes,
            "immutable_memtables": len(self._immutables),
            "pending_jobs": self._pending_jobs,
            "block_cache": {
                "size_bytes": self.block_cache.size_bytes,
                "hit_rate": self.block_cache.hit_rate(),
            },
        }
