"""Device-side query execution over compacted keyspaces.

"To handle a query, KV-CSD first identifies the keyspace from the keyspace
manager's in-memory keyspace table.  It then uses the keyspace's metadata to
locate all related primary or secondary index data blocks on the SSD, and
use them to process the incoming query.  Because [the] query is entirely
processed in a computational storage device, only query results need to be
transferred back to the application." (Section V)

All block and value reads happen on the device's SSD; point lookups touch
one PIDX block plus one value extent, range scans touch a contiguous block
span and coalesce adjacent value pointers into large reads.  When the SoC
carries a DRAM block cache (:class:`repro.core.block_cache.BlockCache`),
every extent read — PIDX block, SIDX block or coalesced value extent —
is served from DRAM on a hit and inserted on a miss, so repeated and
skewed query workloads stop re-paying device-read latency.

Two read-path accelerations are layered on top, both result-transparent:

* **Bloom skips** — when sketches carry per-block bloom filters (built with
  ``SocSpec.bloom_bits_per_key``), negative point lookups and the absent
  fraction of a multi-get skip the PIDX/SIDX block read entirely; a bloom
  false positive merely costs the block read it would have cost anyway.
* **Sharded scans** — when ``fanout > 1`` a large ``range_query`` /
  ``sidx_range_query`` block span splits into contiguous slices scanned by
  parallel producer processes on their own SoC firmware contexts, while the
  caller consumes slices *in slice order* and fetches values for slice *i*
  as slice *i+1* is still decoding.  Slice-order concatenation keeps the
  result byte-identical to the serial scan.

Index blocks are decoded into column batches
(:class:`~repro.core.pidx.PidxColumns`, :class:`~repro.core.sidx.SidxColumns`):
bounds and look-ups are searches on a key column, value pointers stay
``zone``/``off``/``vlen`` columns down to the page coalescer, and python
``bytes`` are made once, for the rows a query returns.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.costs import CsdCostModel
from repro.core.keyspace import Keyspace, KeyspaceState
from repro.core.klog import column_bound, column_key_bytes, concat_keys, key_column
from repro.core.pidx import PidxColumns, PidxSketch, block_entry_counts
from repro.core.sidx import SidxColumns, SidxSketch, encode_skey
from repro.core.zone_manager import ZonePointer
from repro.errors import KeyNotFoundError, SecondaryIndexError
from repro.host.threads import ThreadCtx
from repro.obs.trace import trace_span
from repro.sim.stats import StatsRegistry
from repro.sim.sync import AllOf
from repro.ssd.zns import ZnsSsd

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (device -> query)
    from repro.core.block_cache import BlockCache

__all__ = ["QueryEngine"]


class QueryEngine:
    """Executes point/range queries against one device's keyspaces."""

    def __init__(
        self,
        ssd: ZnsSsd,
        costs: CsdCostModel,
        scale_cpu,
        block_cache: "BlockCache | None" = None,
        stats: Optional[StatsRegistry] = None,
        fanout: int = 1,
        make_ctx: Optional[Callable[[], ThreadCtx]] = None,
    ):
        self.ssd = ssd
        self.costs = costs
        self._scale = scale_cpu  # host-seconds -> SoC-seconds
        self.block_cache = block_cache
        self.stats = stats
        #: parallel scan producers per large range query (1 = serial scans)
        self.fanout = fanout
        #: fresh firmware ThreadCtx factory for scan producers (device-set)
        self.make_ctx = make_ctx

    def _exec(self, ctx: ThreadCtx, host_seconds: float) -> Generator:
        # Plain function returning the execute generator: `yield from` on the
        # result behaves identically, minus one delegation frame per charge.
        return ctx.execute(self._scale(host_seconds))

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.stats is not None:
            self.stats.counter(name).add(amount)

    # -- shared plumbing ----------------------------------------------------------
    def _read_blocks(
        self, pointers: list[ZonePointer], ctx: ThreadCtx
    ) -> Generator:
        """Read several blocks concurrently; returns blobs in input order.

        Consults the SoC block cache first: hits cost one DRAM probe, only
        the misses go to the SSD (and are inserted on the way back).
        """
        cache = self.block_cache
        blobs: list[Optional[bytes]] = [None] * len(pointers)
        missing: list[int] = []
        with trace_span(
            self.ssd.env, "query.read_blocks", "stage", blocks=len(pointers)
        ) as span:
            if cache is not None:
                if pointers:
                    yield from self._exec(
                        ctx, self.costs.cache_lookup * len(pointers)
                    )
                for i, pointer in enumerate(pointers):
                    cached = cache.get(pointer)
                    if cached is None:
                        missing.append(i)
                    else:
                        blobs[i] = cached
            else:
                missing = list(range(len(pointers)))
            if span is not None:
                span.args["misses"] = len(missing)
            if len(missing) == 1:
                # One miss (the point-query norm): read inline instead of
                # spawning a process and synchronising through AllOf — the
                # channel occupancy and read latency are identical.
                i = missing[0]
                zone_id, offset, length = pointers[i]
                blob = yield from self.ssd.read(zone_id, offset, length)
                blobs[i] = blob
                if cache is not None:
                    cache.put(pointers[i], blob)
            elif missing:
                env = self.ssd.env
                procs = []
                for i in missing:
                    zone_id, offset, length = pointers[i]

                    def one(z=zone_id, o=offset, n=length):
                        data = yield from self.ssd.read(z, o, n)
                        return data

                    procs.append(env.process(one()))
                result = yield AllOf(env, procs)
                for i, proc in zip(missing, procs):
                    blob = result[proc]
                    blobs[i] = blob
                    if cache is not None:
                        cache.put(pointers[i], blob)
        return blobs

    #: NAND page granularity: the device reads whole 4 KiB pages, so value
    #: fetches are aligned and deduplicated at page level — scattered hits in
    #: one page cost a single media read.
    PAGE = 4096

    #: Below this many pointers the coalescer walks them as python ints: the
    #: walk costs ~1 us plus ~0.43 us a pointer, the array form ~14 us of
    #: numpy dispatch plus ~0.05 us a pointer (scattered pointers: 16 cost 7.6
    #: against 14.9 us, 32 14.5 against 16.2, 40 18.2 against 16.8, 128 75
    #: against 26-38), and a GET brings one.
    _VECTOR_MIN_POINTERS = 40

    def _coalesce(
        self, zone: np.ndarray, off: np.ndarray, vlen: np.ndarray
    ) -> tuple[list[ZonePointer], list[int], list[int]]:
        """Group value pointers into page-aligned, merged extents.

        Each pointer's byte range is widened to page boundaries; overlapping
        or adjacent ranges in the same zone merge, so both dense ranges
        (consecutive keys) and scattered-but-clustered secondary hits read
        in few large extents.  Returns ``(extents, extent_of, start)``: the
        extents in ``(zone, offset)`` order and, per input pointer, the index
        of the extent holding it and its offset in there.
        """
        page = self.PAGE
        n = len(zone)
        if n < self._VECTOR_MIN_POINTERS:
            extents: list[list[int]] = []  # [zone, start, end]
            extent_of = [0] * n
            start = [0] * n
            for z, o, length, i in sorted(
                zip(zone.tolist(), off.tolist(), vlen.tolist(), range(n))
            ):
                lo = o // page * page
                hi = -(-(o + length) // page) * page
                last = extents[-1] if extents else None
                if last is not None and last[0] == z and lo <= last[2]:
                    if hi > last[2]:
                        last[2] = hi
                else:
                    last = [z, lo, hi]
                    extents.append(last)
                extent_of[i] = len(extents) - 1
                start[i] = o - last[1]
            return [(z, lo, hi - lo) for z, lo, hi in extents], extent_of, start
        # zone-major byte positions (a zone is far smaller than 2**48 and
        # 2**48 is page-aligned): one sort key, and no page range of one zone
        # reaches into the next zone's.  The page is a power of two, so
        # rounding is a mask; every step is one array operation, in place
        # where it can be, because at these sizes their count is the cost.
        pos = zone.astype(np.int64)
        pos <<= 48
        pos += off.astype(np.int64)
        order = pos.argsort(kind="stable")
        lo = pos[order]
        end = lo + vlen[order]
        end += page - 1
        end &= -page
        lo &= -page
        np.maximum.accumulate(end, out=end)
        heads = np.flatnonzero(lo[1:] > end[:-1])
        heads += 1  # sorted positions where an extent starts, after the first
        start = np.concatenate((lo[:1], lo[heads]))
        length = np.concatenate((end[heads - 1], end[-1:]))
        length -= start
        extent_of = start.searchsorted(pos, "right")
        extent_of -= 1
        pos -= start[extent_of]
        return (
            list(
                zip(
                    (start >> 48).tolist(),
                    (start & ((1 << 48) - 1)).tolist(),
                    length.tolist(),
                )
            ),
            extent_of.tolist(),
            pos.tolist(),
        )

    def _fetch_values(self, rows: PidxColumns, ctx: ThreadCtx) -> Generator:
        """Read the values ``rows`` point at, page-coalesced; values in row
        order."""
        extents, extent_of, start = self._coalesce(rows.zone, rows.off, rows.vlen)
        with trace_span(
            self.ssd.env,
            "query.fetch_values",
            "stage",
            values=len(rows),
            extents=len(extents),
        ):
            # Clip each extent to the zone's written bytes (the final page of
            # a zone may be partial).
            zone_of = self.ssd.zone
            blobs = yield from self._read_blocks(
                [
                    (zone_id, off, min(length, zone_of(zone_id).write_pointer - off))
                    for zone_id, off, length in extents
                ],
                ctx,
            )
            values = [
                blobs[extent][at : at + length]
                for extent, at, length in zip(extent_of, start, rows.vlen.tolist())
            ]
            yield from self._exec(ctx, self.costs.gather_per_record * len(rows))
        return values

    def _lookup(
        self,
        sketch: PidxSketch,
        wanted: np.ndarray | list[bytes],
        blocks: np.ndarray,
        ctx: ThreadCtx,
    ) -> Generator:
        """Resolve ``wanted`` keys, key ``i`` living in PIDX block
        ``blocks[i]`` if anywhere: shared block reads, one search over the
        decoded batch, coalesced value fetches.  Returns ``(keys, values)``
        of the keys found, in key order, each once."""
        block_ids, per_block = np.unique(blocks, return_counts=True)
        self._count("pidx_block_reads", len(block_ids))
        blobs = yield from self._read_blocks(
            [sketch.block_pointers[i] for i in block_ids.tolist()], ctx
        )
        found = PidxColumns.from_blocks(blobs)
        found = found[found.rows_of(wanted)]
        yield from self._exec(
            ctx,
            self.costs.binary_search_total(
                block_entry_counts(blobs), per_block.tolist()
            ),
        )
        if not len(found):
            return [], []
        values = yield from self._fetch_values(found, ctx)
        return found.key_bytes(), values

    # -- sharded scans ------------------------------------------------------------
    def _plan_shards(self, n_blocks: int) -> int:
        """Scan producers for an ``n_blocks``-wide span (1 = stay serial)."""
        if self.fanout <= 1 or self.make_ctx is None or n_blocks < 2:
            return 1
        return min(self.fanout, n_blocks)

    @staticmethod
    def _split_ids(ids: list[int], n: int) -> list[list[int]]:
        """Split ``ids`` into ``n`` contiguous, near-equal slices."""
        base, extra = divmod(len(ids), n)
        out: list[list[int]] = []
        pos = 0
        for i in range(n):
            size = base + (1 if i < extra else 0)
            out.append(ids[pos : pos + size])
            pos += size
        return out

    def _scan_blocks(
        self,
        sketch: PidxSketch | SidxSketch,
        block_ids: list[int],
        select: Callable[[list[bytes]], "PidxColumns | np.ndarray | list[bytes]"],
        ctx: ThreadCtx,
    ) -> Generator:
        """Read one contiguous run of index blocks on ``ctx`` and return what
        ``select`` keeps of their blobs (the rows in range)."""
        blobs = yield from self._read_blocks(
            [sketch.block_pointers[i] for i in block_ids], ctx
        )
        rows = select(blobs)
        yield from self._exec(
            ctx, self.costs.key_compare * sum(len(b) for b in blobs) / 64
        )
        return rows

    def _scan_shards(
        self,
        sketch: PidxSketch | SidxSketch,
        block_ids: list[int],
        select: Callable,
        n_shards: int,
        name: str,
    ) -> list:
        """Start one :meth:`_scan_blocks` producer per contiguous slice of
        ``block_ids``, each on its own firmware context; returns the
        processes in slice order.

        Slices are contiguous and consumed in slice order, so what the
        caller concatenates is byte-identical to the serial scan.
        """
        env = self.ssd.env

        def produce(shard: int, ids: list[int]) -> Generator:
            pctx = self.make_ctx()
            with trace_span(
                env, "query.scan_shard", "stage", shard=shard, blocks=len(ids)
            ):
                rows = yield from self._scan_blocks(sketch, ids, select, pctx)
            return rows

        procs = []
        for shard, ids in enumerate(self._split_ids(block_ids, n_shards)):
            proc = env.process(produce(shard, ids), name=f"{name}-shard-{shard}")
            # A shard failing before the caller awaits it must not crash the
            # simulation; the failure re-raises when its turn comes.
            proc.defuse()
            procs.append(proc)
        return procs

    # -- primary index ---------------------------------------------------------------
    def point_query(self, ks: Keyspace, key: bytes, ctx: ThreadCtx) -> Generator:
        """GET over the primary index; returns the value."""
        ks.require(KeyspaceState.COMPACTED)
        yield from self._exec(ctx, self.costs.sketch_search)
        sketch = ks.pidx_sketch
        if sketch is None or (idx := sketch.find_block(key)) is None:
            raise KeyNotFoundError(key)
        bloom = sketch.blooms.get(idx)
        if bloom is not None:
            yield from self._exec(ctx, self.costs.bloom_probe)
            self._count("bloom_probes")
            if not bloom.may_contain(key):
                self._count("bloom_skips")
                raise KeyNotFoundError(key)
        self._count("pidx_block_reads")
        blobs = yield from self._read_blocks([sketch.block_pointers[idx]], ctx)
        block = PidxColumns.from_blocks(blobs)
        yield from self._exec(ctx, self.costs.binary_search(len(block)))
        row = block.find(key)
        if row < 0:
            raise KeyNotFoundError(key)
        values = yield from self._fetch_values(block[row : row + 1], ctx)
        return values[0]

    def multi_point_query(
        self, ks: Keyspace, keys: list[bytes], ctx: ThreadCtx
    ) -> Generator:
        """Batched GETs: shared PIDX block reads, coalesced value fetches.

        Returns ``{key: value}`` for the keys that exist (absent keys are
        simply missing from the result — the batched analogue of raising
        per key).  Keys that a block bloom rejects never cost a block read.
        """
        ks.require(KeyspaceState.COMPACTED)
        yield from self._exec(ctx, self.costs.sketch_search)
        sketch = ks.pidx_sketch
        if sketch is None or not keys:
            return {}
        wanted = key_column(keys, 1)
        blocks = sketch.find_blocks(wanted)
        blooms = sketch.blooms
        if blooms:
            # a key before the first block has index -1, which has no bloom
            probed = [blooms.get(idx) for idx in blocks.tolist()]
            rejected = [
                bloom is not None and not bloom.may_contain(key)
                for key, bloom in zip(keys, probed)
            ]
            probes = len(probed) - probed.count(None)
            if probes:
                yield from self._exec(ctx, self.costs.bloom_probe * probes)
                self._count("bloom_probes", probes)
                self._count("bloom_skips", sum(rejected))
            if any(rejected):
                keep = np.flatnonzero(~np.array(rejected))
                blocks = blocks[keep]
                wanted = key_column([keys[i] for i in keep.tolist()], 1)
        blocks = blocks[blocks >= 0]
        if not len(blocks):
            return {}
        found_keys, values = yield from self._lookup(sketch, wanted, blocks, ctx)
        return dict(zip(found_keys, values))

    def range_query(
        self, ks: Keyspace, lo: bytes, hi: bytes, ctx: ThreadCtx
    ) -> Generator:
        """Primary-index range scan over [lo, hi); returns (key, value) pairs.

        With ``fanout > 1`` a span of several blocks is scanned by parallel
        producers, pipelined with slice-order value fetches here.
        """
        ks.require(KeyspaceState.COMPACTED)
        yield from self._exec(ctx, self.costs.sketch_search)
        sketch = ks.pidx_sketch
        if sketch is None:
            return []
        block_ids = list(sketch.blocks_for_range(lo, hi))
        if not block_ids:
            return []
        self._count("pidx_block_reads", len(block_ids))

        def select(blobs: list[bytes]) -> PidxColumns:
            block = PidxColumns.from_blocks(blobs)
            return block[slice(*block.bounds(lo, hi))]

        out: list[tuple[bytes, bytes]] = []

        def emit(rows: PidxColumns) -> Generator:
            if len(rows):
                values = yield from self._fetch_values(rows, ctx)
                out.extend(zip(rows.key_bytes(), values))

        n_shards = self._plan_shards(len(block_ids))
        if n_shards > 1:
            for proc in self._scan_shards(sketch, block_ids, select, n_shards, "range"):
                yield from emit((yield proc))
        else:
            yield from emit(
                (yield from self._scan_blocks(sketch, block_ids, select, ctx))
            )
        return out

    # -- secondary index ----------------------------------------------------------------
    def _sidx_entry(self, ks: Keyspace, index_name: str) -> tuple:
        ks.require(KeyspaceState.COMPACTED)
        entry = ks.sidx.get(index_name)
        if entry is None:
            raise SecondaryIndexError(
                f"keyspace {ks.name!r} has no secondary index {index_name!r}"
            )
        return entry

    def _sidx_pkeys_in_range(
        self,
        sketch: SidxSketch,
        lo_enc: bytes,
        hi_enc: bytes,
        ctx: ThreadCtx,
        point_enc: Optional[bytes] = None,
    ) -> Generator:
        """The primary keys of the pairs with lo <= skey < hi, as a key
        column in index order.

        ``point_enc`` marks an equality lookup: candidate blocks whose bloom
        rejects the encoded key are skipped without a read.  With
        ``fanout > 1`` a span of several blocks is scanned by parallel
        producers and joined in slice order (a barrier — the PIDX resolution
        that follows needs the full set).
        """
        yield from self._exec(ctx, self.costs.sketch_search)
        block_ids = list(sketch.blocks_for_range(lo_enc, hi_enc))
        if point_enc is not None and block_ids:
            probes = sum(1 for i in block_ids if i in sketch.blooms)
            if probes:
                survivors = [i for i in block_ids if sketch.may_contain(i, point_enc)]
                yield from self._exec(ctx, self.costs.bloom_probe * probes)
                self._count("bloom_probes", probes)
                self._count("bloom_skips", len(block_ids) - len(survivors))
                block_ids = survivors
        if not block_ids:
            return []
        self._count("sidx_block_reads", len(block_ids))

        def select(blobs: list[bytes]) -> np.ndarray | list[bytes]:
            block = SidxColumns.from_blocks(blobs, sketch.skey_width)
            return block.pkeys[
                column_bound(block.skeys, lo_enc) : column_bound(block.skeys, hi_enc)
            ]

        n_shards = self._plan_shards(len(block_ids))
        if n_shards == 1:
            return (yield from self._scan_blocks(sketch, block_ids, select, ctx))
        parts = []
        for proc in self._scan_shards(sketch, block_ids, select, n_shards, "sidx"):
            parts.append((yield proc))
        return concat_keys(parts)

    def sidx_range_query(
        self,
        ks: Keyspace,
        index_name: str,
        lo_raw: bytes,
        hi_raw: bytes,
        ctx: ThreadCtx,
    ) -> Generator:
        """Secondary-index range query; returns full (primary_key, value) records.

        ``lo_raw``/``hi_raw`` are raw (little-endian) secondary-key bounds as
        they appear inside values; the device encodes them for index order.
        """
        config, sketch = self._sidx_entry(ks, index_name)
        pkeys = yield from self._sidx_pkeys_in_range(
            sketch,
            encode_skey(lo_raw, config.dtype),
            encode_skey(hi_raw, config.dtype),
            ctx,
        )
        if not len(pkeys):
            return []
        # Resolve the primary keys to records through the primary index.
        sketch_p = ks.pidx_sketch
        assert sketch_p is not None
        blocks = sketch_p.find_blocks(pkeys)
        keys, values = yield from self._lookup(
            sketch_p, pkeys, blocks[blocks >= 0], ctx
        )
        return list(zip(keys, values))

    def sidx_point_query(
        self, ks: Keyspace, index_name: str, skey_raw: bytes, ctx: ThreadCtx
    ) -> Generator:
        """All records whose secondary key equals ``skey_raw``."""
        config, sketch = self._sidx_entry(ks, index_name)
        skey_enc = encode_skey(skey_raw, config.dtype)
        # The range machinery with the smallest strictly-greater bound: the
        # stored keys all have the index's width, so [x, x + NUL) holds x
        # alone.  The equality key lets block blooms veto candidate blocks.
        pkeys = yield from self._sidx_pkeys_in_range(
            sketch, skey_enc, skey_enc + b"\x00", ctx, point_enc=skey_enc
        )
        if not len(pkeys):
            return []
        by_key = yield from self.multi_point_query(ks, column_key_bytes(pkeys), ctx)
        return sorted(by_key.items())
