"""Secondary-index construction and index-block blooms.

A secondary index is built one of two ways, both through one column
pipeline (extract and encode the secondary keys, sort ``<skey, pkey>``
pairs under the DRAM budget, cut blocks, append them, attach blooms,
persist):

* **inline** — from the values a compaction still holds in SoC DRAM (the
  paper's future-work single pass);
* **scan** — over the keyspace's PIDX blocks and SORTED_VALUES zones, as a
  separate offloaded job.

Per-block bloom filters over PIDX and SIDX blocks are built here too, and
reserved against the SoC DRAM budget on the keyspace's account.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

import numpy as np

from repro.core.costs import CsdCostModel
from repro.core.keyspace import Keyspace
from repro.core.metalog import MetadataLog
from repro.core.pidx import PidxColumns
from repro.core.query import QueryEngine
from repro.core.sidx import SidxColumns, SidxConfig, SidxSketch
from repro.core.sort import ExternalSorter
from repro.core.zone_manager import ZoneManager
from repro.host.threads import ThreadCtx
from repro.lsm.bloom import BloomFilter, key_hashes
from repro.obs.trace import trace_span
from repro.sim.stats import StatsRegistry
from repro.soc.board import SocBoard

__all__ = ["IndexBuilder"]


class IndexBuilder:
    """Builds one device's secondary indexes and index-block blooms.

    ``job_durations`` is the device's ``(keyspace, kind) -> seconds`` table;
    ``query_engine`` reads the PIDX blocks a scan build starts from.
    """

    def __init__(
        self, board: SocBoard, zone_manager: ZoneManager, costs: CsdCostModel,
        stats: StatsRegistry, metalog: MetadataLog, query_engine: QueryEngine,
        block_bytes: int, job_durations: dict[tuple[str, str], float],
        journal: Callable[..., None], audit: Callable[[str], None],
    ):
        self.env = board.env
        self.board = board
        self.zone_manager = zone_manager
        self.costs = costs
        self.stats = stats
        self.metalog = metalog
        self.query_engine = query_engine
        self.block_bytes = block_bytes
        #: bits per key for per-index-block bloom filters (0 = no blooms)
        self.bloom_bits_per_key = board.spec.bloom_bits_per_key
        self.job_durations = job_durations
        self._journal = journal
        self._audit = audit

    def attach_blooms(
        self, ks: Keyspace, sketch, keys: np.ndarray | list[bytes], bounds: list[int],
        ctx: ThreadCtx,
    ) -> Generator:
        """Build one bloom filter per index block and charge DRAM for them.

        Block ``i`` holds ``keys[bounds[i]:bounds[i + 1]]``; ``bounds[0]`` is 0.
        The keys (an ``S`` column or a list of bytes) are hashed once, and
        each block's filter is set from its slice of the hashes.

        Works for PIDX sketches (member = primary key) and SIDX sketches
        (member = encoded secondary key) alike.  The filter bytes are
        reserved against the SoC DRAM budget and tracked per keyspace so
        deletion returns them.  The blooms ride the keyspace's next metadata
        record (its bloom annex) and survive a power cycle.
        """
        bits = self.bloom_bits_per_key
        n_blocks = len(bounds) - 1
        if not bits or n_blocks < 1:
            return
        total_bytes = 0
        with trace_span(self.env, "compact.build_blooms", "stage", blocks=n_blocks):
            h1, h2 = key_hashes(keys)
            for idx in range(n_blocks):
                lo, hi = bounds[idx], bounds[idx + 1]
                bloom = BloomFilter(hi - lo, bits_per_key=bits)
                bloom.add_hashes(h1[lo:hi], h2[lo:hi])
                sketch.attach_bloom(idx, bloom)
                total_bytes += bloom.size_bytes
            yield from self.board.charge(ctx, self.costs.bloom_build_per_key * bounds[-1])
            yield from self.board.dram.reserve(total_bytes)
        ks.bloom_dram += total_bytes
        self.stats.counter("bloom_filters_built").add(n_blocks)
        self.stats.counter("bloom_filter_bytes").add(total_bytes)

    def build(
        self, ks: Keyspace, config: SidxConfig, ctx: ThreadCtx,
        resident: tuple[PidxColumns, dict[int, bytes]] | None = None,
    ) -> Generator:
        """Build one secondary index: inline from the ``resident`` records
        and values a compaction still holds in DRAM, or (``None``) by a full
        scan — PIDX for keys and pointers, SORTED_VALUES for the values."""
        t0 = self.env.now
        mode = "scan" if resident is None else "inline"
        self._journal(
            "sidx.build_begin", keyspace=ks.name, index=config.name, mode=mode
        )
        if resident is None:
            assert ks.pidx_sketch is not None
            blobs = yield from self.query_engine._read_blocks(
                list(ks.pidx_sketch.block_pointers), ctx
            )
            values: dict[int, bytes] = {}
            for cluster in ks.sorted_value_clusters:
                values.update((yield from cluster.read_all()))
            sketch = yield from self._pipeline(
                ks, config, PidxColumns.from_blocks(blobs), values, ctx
            )
        else:
            with trace_span(self.env, "sidx.build_inline", "stage", index=config.name):
                sketch = yield from self._pipeline(ks, config, *resident, ctx)
        self.stats.counter("sidx_builds" if resident is None else "sidx_builds_inline").add()
        self.job_durations[(ks.name, f"sidx:{config.name}")] = self.env.now - t0
        self._journal(
            "sidx.build_end", keyspace=ks.name, index=config.name, mode=mode,
            n_blocks=len(sketch),
        )
        self._audit("sidx")

    def _pipeline(
        self, ks: Keyspace, config: SidxConfig, records: PidxColumns,
        zone_blobs: dict[int, bytes], ctx: ThreadCtx,
    ) -> Generator:
        """Build and publish one secondary index over ``records`` — primary
        keys with value pointers into ``zone_blobs`` — as columns end to
        end.  Returns the sketch."""
        yield from self.board.charge(ctx, self.costs.extract_per_record * len(records))
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
        yield from self.board.charge(
            ctx,
            self.costs.block_build_per_byte * sum(len(blob) for _p, blob in blocks),
        )
        # Registered before the appends so fault unwinding can find (and
        # release) a partially written index.
        clusters = ks.sidx_clusters.setdefault(config.name, [])
        block_ptrs = yield from self.zone_manager.append_stream(
            clusters, [blob for _p, blob in blocks]
        )
        sketch = SidxSketch(skey_width=config.width)
        for (pivot, _blob), pointer in zip(blocks, block_ptrs):
            sketch.add_block(pivot, pointer)
        if self.bloom_bits_per_key:
            # per-block blooms over each block's *encoded secondary keys*
            yield from self.attach_blooms(ks, sketch, pairs.skeys, bounds, ctx)
        ks.sidx[config.name] = (config, sketch)
        yield from self.metalog.upsert(ctx, ks)
        return sketch
