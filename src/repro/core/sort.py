"""External merge sort under the SoC DRAM budget.

Section V: "Sorting is done by running multiple rounds of merge sorts,
depending on available SoC DRAM space.  Intermediate sorting results are
stored in dynamically allocated zone clusters, which are released upon
completion of the sort."

The sorter is generic over record payloads: the caller supplies pack/unpack
functions so temporary runs written to the SSD carry the *real* serialized
records (reads back what it wrote — the sort is functional end to end).
When everything fits in the budget the sort is a single in-DRAM pass with no
I/O; otherwise run generation plus ceil(log_fanin(runs)) - 1 merge passes
touch the temp clusters, which is exactly the I/O-versus-DRAM trade the
paper credits LSM-style sorting for (Section III, "LSM-Trees").
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections.abc import Generator
from typing import Any, Callable

import numpy as np

from repro.core.klog import KlogColumns, key_column, key_seq_order
from repro.core.zone_manager import ZoneCluster, ZoneManager, ZonePointer
from repro.errors import SimulationError
from repro.host.threads import ThreadCtx
from repro.obs.trace import trace_span
from repro.sim.sync import AllOf
from repro.units import KiB

__all__ = [
    "ExternalSorter",
    "ParallelSortCoordinator",
    "plan_external_sort",
    "SortPlan",
]

#: Per-input-run read buffer assumed during merge; sets the merge fan-in.
MERGE_BUFFER_BYTES = 256 * KiB
#: Size of one temp-cluster append during run writes.
RUN_GROUP_BYTES = 256 * KiB

Record = tuple[bytes, Any]
#: what the sorters sort: a list of records, or a column batch (KLOG records,
#: secondary-index pairs), which carries its own order — ``sort_order()`` —
#: and its own ``concat``; ``pack``/``unpack`` are then the batch's
Batch = "list[Record] | KlogColumns | SidxColumns"

#: Below this many records ``sorted()`` beats transposing a record list into
#: key and seq arrays for the lexsort: at 32 records 5.8 us against 8.9 us,
#: at 64 12.7 against 13.8, at 128 30 against 23.  ``sorted()`` also serves
#: variable-width keys and undeclared custom sort keys.
_VECTOR_MIN_RECORDS = 64


class SortPlan:
    """Shape of one external sort: runs, fan-in and merge passes."""

    def __init__(self, total_bytes: int, budget_bytes: int):
        if budget_bytes <= 0:
            raise SimulationError("sort budget must be positive")
        self.total_bytes = total_bytes
        self.budget_bytes = budget_bytes
        self.n_runs = max(1, math.ceil(total_bytes / budget_bytes))
        self.fanin = max(2, budget_bytes // MERGE_BUFFER_BYTES)
        # Exact pass count by simulating the merge tree in integers; the
        # closed form ceil(log_fanin(n_runs)) over-counts a whole pass when
        # the float log lands just above an integer (e.g. 125 runs, fan-in 5).
        self.n_merge_passes = 0
        runs = self.n_runs
        while runs > 1:
            runs = math.ceil(runs / self.fanin)
            self.n_merge_passes += 1

    @property
    def spills(self) -> bool:
        return self.n_runs > 1

    @property
    def temp_bytes_written(self) -> int:
        """Total bytes of temp-cluster writes for the whole sort.

        Run generation writes the data once, and every merge pass except
        the last rewrites it once more (the final pass's output streams
        straight to the consumer); that is ``n_merge_passes`` copies in
        total, since 1 (runs) + (n_merge_passes - 1) intermediate rewrites
        = n_merge_passes.  Matches the byte traffic :class:`ExternalSorter`
        actually issues (pinned by ``tests/core/test_sort.py``).
        """
        if not self.spills:
            return 0
        return self.total_bytes * self.n_merge_passes

    def split_across(self, shards: int) -> list["SortPlan"]:
        """Per-shard plans when the sort is range-partitioned.

        Each of ``shards`` key-range shards sorts roughly ``1/shards`` of
        the data under ``1/shards`` of the DRAM budget (the shards run
        concurrently, so they share the budget, not time-slice it).
        """
        if shards < 1:
            raise SimulationError("shard count must be >= 1")
        if shards == 1:
            return [self]
        shard_bytes = math.ceil(self.total_bytes / shards)
        shard_budget = max(1, self.budget_bytes // shards)
        return [SortPlan(shard_bytes, shard_budget) for _ in range(shards)]


def plan_external_sort(total_bytes: int, budget_bytes: int) -> SortPlan:
    """Public helper for tests and benchmark reporting."""
    return SortPlan(total_bytes, budget_bytes)


class ExternalSorter:
    """Budget-bounded merge sort with temp storage in zone clusters."""

    def __init__(
        self,
        zone_manager: ZoneManager,
        budget_bytes: int,
        compare_cost: float,
        pack: Callable[[list[Record]], bytes],
        unpack: Callable[[bytes], list[Record]],
        sort_key: Callable[[Record], Any] | None = None,
        key_kind: str | None = None,
    ):
        if budget_bytes <= 0:
            raise SimulationError("sort budget must be positive")
        self.zm = zone_manager
        self.budget_bytes = budget_bytes
        self.compare_cost = compare_cost
        self.pack = pack
        self.unpack = unpack
        #: a custom key sorts through ``sorted()`` unless the caller declares
        #: its shape via ``key_kind`` — ``"key_seq_desc"`` means records are
        #: ``(key, (seq, ...))`` ordered by (key ascending, integer seq
        #: descending), the compaction order, which one lexsort reproduces.
        self._key_kind = key_kind
        self.sort_key = sort_key or (lambda record: record[0])
        #: filled in by the latest sort() call, for reporting/ablation
        self.last_plan: SortPlan | None = None

    def _sorted(self, records: Batch) -> Batch:
        """Stable sort into key order.

        A column batch sorts itself (``sort_order()``); a record list of the
        declared ``key_seq_desc`` shape borrows the KLOG lexsort over its
        uniform-width keys.  Variable widths, oversized sequence numbers,
        short lists and undeclared keys go to ``sorted()``.
        """
        if not isinstance(records, list):
            return records[records.sort_order()]
        if self._key_kind == "key_seq_desc":
            keys = key_column([record[0] for record in records], _VECTOR_MIN_RECORDS)
            if isinstance(keys, np.ndarray):
                try:
                    seqs = np.array(
                        [record[1][0] for record in records], dtype=np.uint64
                    )
                except (OverflowError, ValueError, TypeError):
                    pass
                else:
                    order = key_seq_order(keys, seqs).tolist()
                    return [records[i] for i in order]
        return sorted(records, key=self.sort_key)

    def _merge(self, runs: list) -> Batch:
        """Merge sorted runs; ties keep run order, as ``heapq.merge`` does."""
        if not isinstance(runs[0], list):
            return self._sorted(type(runs[0]).concat(runs))
        return list(heapq.merge(*runs, key=self.sort_key))

    # -- temp storage -------------------------------------------------------------
    def _write_run(self, records: Batch, clusters: list[ZoneCluster]) -> Generator:
        """Serialize a run into temp clusters; returns its extent pointers."""
        blob = self.pack(records)
        pointers: list[ZonePointer] = []
        pos = 0
        while pos < len(blob):
            group = blob[pos : pos + RUN_GROUP_BYTES]
            pos += len(group)
            placed = False
            for cluster in clusters:
                if cluster.max_group() >= len(group):
                    ptr = yield from cluster.append_group(group)
                    pointers.append(ptr)
                    placed = True
                    break
            if not placed:
                cluster = self.zm.allocate_cluster()
                clusters.append(cluster)
                ptr = yield from cluster.append_group(group)
                pointers.append(ptr)
        return pointers

    def _read_run(
        self, pointers: list[ZonePointer], clusters: list[ZoneCluster]
    ) -> Generator:
        """Read a run's extents back and deserialize its records."""
        chunks = []
        ssd = self.zm.ssd
        for zone_id, offset, length in pointers:
            data = yield from ssd.read(zone_id, offset, length)
            chunks.append(data)
        return self.unpack(b"".join(chunks))

    # -- the sort --------------------------------------------------------------------
    def sort(self, records: Batch, total_bytes: int, ctx: ThreadCtx) -> Generator:
        """Sort ``records`` by their byte key; returns the sorted batch.

        ``total_bytes`` is the serialized volume used for budget planning
        (the caller knows its record sizes).  CPU for comparisons is charged
        to ``ctx``; temp I/O hits the zone manager's SSD.
        """
        n = len(records)
        plan = SortPlan(total_bytes, self.budget_bytes)
        self.last_plan = plan
        if n <= 1:
            if False:  # pragma: no cover - keep generator shape
                yield None
            return records[:]
        if not plan.spills:
            with trace_span(
                self.zm.ssd.env, "sort.external", "stage", records=n, runs=1
            ):
                yield from ctx.execute(
                    self.compare_cost * n * max(1, int(math.log2(n)))
                )
            return self._sorted(records)
        with trace_span(
            self.zm.ssd.env,
            "sort.external",
            "stage",
            records=n,
            runs=plan.n_runs,
            passes=plan.n_merge_passes,
        ):
            result = yield from self._sort_spilled(records, plan, ctx)
        return result

    def _sort_spilled(self, records: Batch, plan: SortPlan, ctx: ThreadCtx) -> Generator:
        n = len(records)

        # ---- run generation: budget-sized sorted runs spilled to temp zones
        clusters: list[ZoneCluster] = []
        per_run = max(1, math.ceil(n / plan.n_runs))
        runs: list[list[ZonePointer]] = []
        for start in range(0, n, per_run):
            chunk = self._sorted(records[start : start + per_run])
            yield from ctx.execute(
                self.compare_cost * len(chunk) * max(1, int(math.log2(len(chunk))))
            )
            pointers = yield from self._write_run(chunk, clusters)
            runs.append(pointers)

        # ---- merge passes: fan-in runs at a time
        try:
            while len(runs) > 1:
                next_runs: list[list[ZonePointer]] = []
                final_pass = len(runs) <= plan.fanin
                for start in range(0, len(runs), plan.fanin):
                    batch = runs[start : start + plan.fanin]
                    loaded = []
                    for pointers in batch:
                        run_records = yield from self._read_run(pointers, clusters)
                        loaded.append(run_records)
                    merged = self._merge(loaded)
                    yield from ctx.execute(
                        self.compare_cost
                        * len(merged)
                        * max(1, len(batch).bit_length())
                    )
                    if final_pass and len(runs) <= plan.fanin:
                        return merged
                    pointers = yield from self._write_run(merged, clusters)
                    next_runs.append(pointers)
                runs = next_runs
            final = yield from self._read_run(runs[0], clusters)
            return final
        finally:
            for cluster in clusters:
                yield from self.zm.release_cluster(cluster)


class ParallelSortCoordinator:
    """Range-partitioned sort across the SoC's cores.

    Partitions the input into ``shards`` contiguous key ranges (pivots
    drawn deterministically from a sorted sample), runs one
    :class:`ExternalSorter` per shard as a concurrent simulation process —
    each under ``budget_bytes / shards`` of DRAM and its own thread
    context, so the DES scheduler spreads them over distinct cores — and
    finishes with a cheap streaming merge.  Because the ranges are
    disjoint and each shard sort is stable, the merge is a concatenation
    and the result is *identical* to a serial stable sort of the whole
    input, whatever the shard count.

    ``make_ctx`` supplies a fresh :class:`ThreadCtx` per shard (the device
    passes its firmware-context factory); the coordinator's own CPU charge
    (partitioning + final merge) goes to the caller's ``ctx``.
    """

    #: stride-sampled keys used to choose range pivots
    PIVOT_SAMPLE = 1024

    def __init__(
        self,
        zone_manager: ZoneManager,
        budget_bytes: int,
        shards: int,
        compare_cost: float,
        pack: Callable[[list[Record]], bytes],
        unpack: Callable[[bytes], list[Record]],
        sort_key: Callable[[Record], Any] | None = None,
        make_ctx: Callable[[], ThreadCtx] | None = None,
        key_kind: str | None = None,
    ):
        if shards < 1:
            raise SimulationError("shard count must be >= 1")
        if budget_bytes <= 0:
            raise SimulationError("sort budget must be positive")
        self.zm = zone_manager
        self.budget_bytes = budget_bytes
        self.shards = shards
        self.compare_cost = compare_cost
        self.pack = pack
        self.unpack = unpack
        self.sort_key = sort_key or (lambda record: record[0])
        self.key_kind = key_kind if sort_key is not None else None
        self.make_ctx = make_ctx
        #: one :class:`SortPlan` per shard actually run, for reporting
        self.last_plans: list[SortPlan] = []

    def _partition(self, records: Batch, shards: int) -> list:
        """Split into ``shards`` disjoint key ranges, preserving input order."""
        n = len(records)
        stride = max(1, n // self.PIVOT_SAMPLE)
        if isinstance(records, KlogColumns):
            sample = records[::stride]
            sample = sample[sample.sort_order()]
            m = len(sample)
            picks = sample[
                np.array([min(m - 1, m * i // shards) for i in range(1, shards)])
            ]
            # repeated picks are one pivot: keep a pick that orders after the
            # last, i.e. (the sample being sorted) differs from it
            distinct = picks.key_changes()
            distinct[1:] |= picks.seq[1:] != picks.seq[:-1]
            rank = records.rank(picks[distinct])
            buckets = [records[rank == i] for i in range(int(distinct.sum()) + 1)]
        else:
            sample = sorted(self.sort_key(records[i]) for i in range(0, n, stride))
            pivots = []
            for i in range(1, shards):
                pivot = sample[min(len(sample) - 1, len(sample) * i // shards)]
                if not pivots or pivot > pivots[-1]:
                    pivots.append(pivot)
            buckets = [[] for _ in range(len(pivots) + 1)]
            for record in records:
                buckets[bisect_right(pivots, self.sort_key(record))].append(record)
        # skewed key sets can leave ranges empty; drop them rather than
        # spawning do-nothing shard sorts
        return [bucket for bucket in buckets if len(bucket)]

    def sort(self, records: Batch, total_bytes: int, ctx: ThreadCtx) -> Generator:
        """Sort ``records``; equal to the serial sort's output, run P-wide."""
        n = len(records)
        env = self.zm.ssd.env
        shards = min(self.shards, n) if n else 1
        if shards <= 1:
            sorter = ExternalSorter(
                self.zm,
                budget_bytes=self.budget_bytes,
                compare_cost=self.compare_cost,
                pack=self.pack,
                unpack=self.unpack,
                sort_key=self.sort_key,
                key_kind=self.key_kind,
            )
            result = yield from sorter.sort(records, total_bytes, ctx)
            self.last_plans = [sorter.last_plan] if sorter.last_plan else []
            return result

        # ---- partition into contiguous key ranges: one binary search over
        # the shards-1 pivots per record.  Each record's bucket is independent
        # of every other's, so the scan is charged as parallel slices when a
        # per-shard context factory is available.
        buckets = self._partition(records, shards)
        per_record = self.compare_cost * max(1, (shards - 1).bit_length())
        if self.make_ctx is None:
            yield from ctx.execute(per_record * n)
        else:
            slice_len = -(-n // shards)

            def scan_slice(count: int):
                scan_ctx = self.make_ctx()
                yield from scan_ctx.execute(per_record * count)

            procs = [
                env.process(
                    scan_slice(min(slice_len, n - start)),
                    name=f"partition-{start}",
                )
                for start in range(0, n, slice_len)
            ]
            yield AllOf(env, procs)

        # ---- sort every shard concurrently, each on its own context
        shard_budget = max(1, self.budget_bytes // shards)
        outputs: list = [None] * len(buckets)
        plans: list[SortPlan | None] = [None] * len(buckets)

        def run_shard(idx: int, chunk: Batch):
            shard_bytes = max(1, round(total_bytes * len(chunk) / n))
            sorter = ExternalSorter(
                self.zm,
                budget_bytes=shard_budget,
                compare_cost=self.compare_cost,
                pack=self.pack,
                unpack=self.unpack,
                sort_key=self.sort_key,
                key_kind=self.key_kind,
            )
            shard_ctx = self.make_ctx() if self.make_ctx is not None else ctx
            with trace_span(
                env, "sort.shard", "stage", shard=idx, records=len(chunk)
            ):
                out = yield from sorter.sort(chunk, shard_bytes, shard_ctx)
            outputs[idx] = out
            plans[idx] = sorter.last_plan

        procs = [
            env.process(run_shard(i, chunk), name=f"sort-shard-{i}")
            for i, chunk in enumerate(buckets)
        ]
        yield AllOf(env, procs)
        self.last_plans = [p for p in plans if p is not None]

        # ---- streaming merge: ranges are disjoint, so the P-way merge
        # degenerates to a concatenation — one boundary compare per seam
        yield from ctx.execute(self.compare_cost * len(buckets))
        if isinstance(outputs[0], KlogColumns):
            return KlogColumns.concat(outputs)
        return [record for out in outputs for record in out]
