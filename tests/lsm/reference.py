"""Per-entry reference implementations of table build, merge and compaction.

These are the straightforward one-entry-at-a-time forms of what
:mod:`repro.lsm` does a block or a run at a time: a table builder fed by
``add``, a heap-based k-way merge, and a compaction that decodes, merges and
re-adds every entry.  The property tests hold the production code to them
byte for byte, event for event.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from typing import Iterable, Optional

from repro.errors import DbError
from repro.lsm.block import BlockBuilder
from repro.lsm.bloom import BloomFilter
from repro.lsm.compaction import CompactionExecutor, CompactionResult
from repro.lsm.iterator import count_merge_comparisons
from repro.lsm.sstable import _FOOTER, _MAGIC, _U64U32, TableMeta, decode_value, encode_value

Entry = tuple[bytes, Optional[bytes]]


def heap_merge_entries(
    streams: list[Iterable[Entry]], drop_tombstones: bool, tombstone=None
) -> list[Entry]:
    """k-way heap merge of sorted streams; ``streams[0]`` is newest."""
    heap: list[tuple[bytes, int, Optional[bytes]]] = []
    iterators = [iter(s) for s in streams]
    for idx, it in enumerate(iterators):
        first = next(it, None)
        if first is not None:
            heap.append((first[0], idx, first[1]))
    heapq.heapify(heap)
    out: list[Entry] = []
    last_key: Optional[bytes] = None
    while heap:
        key, idx, value = heapq.heappop(heap)
        nxt = next(iterators[idx], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt[0], idx, nxt[1]))
        if key == last_key:
            continue  # an entry from a newer stream already won
        last_key = key
        if value == tombstone and drop_tombstones:
            continue
        out.append((key, value))
    return out


class ReferenceTableBuilder:
    """Streams sorted ``(key, value-or-None)`` entries into a table, one
    ``add`` at a time."""

    def __init__(self, fs, path, table_id, options, expected_keys):
        self.fs = fs
        self.path = path
        self.table_id = table_id
        self.options = options
        self._bloom = BloomFilter(expected_keys, options.bloom_bits_per_key)
        self._block = BlockBuilder(options.block_bytes)
        self._index: list[tuple[bytes, int, int]] = []
        self._offset = 0
        self._pending_cpu = 0.0
        self._smallest: Optional[bytes] = None
        self._largest: Optional[bytes] = None
        self.n_entries = 0
        self._opened = False

    def _open(self, ctx) -> Generator:
        if not self._opened:
            yield from self.fs.create(self.path, ctx)
            self._opened = True

    def add(self, key: bytes, value: Optional[bytes], ctx) -> Generator:
        yield from self._open(ctx)
        if self._largest is not None and key <= self._largest:
            raise DbError("table entries must be strictly increasing")
        if self._smallest is None:
            self._smallest = key
        self._largest = key
        stored = encode_value(value)
        self._block.add(key, stored)
        self._bloom.add(key)
        self.n_entries += 1
        costs = self.options.costs
        self._pending_cpu += costs.bloom_add_per_key + (
            costs.block_build_per_byte + costs.checksum_per_byte
        ) * (len(key) + len(stored) + 8)
        if self._block.full:
            yield from self._flush_block(ctx)

    def _flush_block(self, ctx) -> Generator:
        if self._block.empty:
            return
        blob = self._block.finish()
        yield from ctx.execute(self._pending_cpu)
        self._pending_cpu = 0.0
        yield from self.fs.write(self.path, self._offset, blob, ctx)
        self._index.append((self._block.last_key, self._offset, len(blob)))
        self._offset += len(blob)
        self._block = BlockBuilder(self.options.block_bytes)

    def finish(self, ctx) -> Generator:
        yield from self._open(ctx)
        if self.n_entries == 0:
            raise DbError("refusing to build an empty table")
        yield from self._flush_block(ctx)
        bloom_blob = self._bloom.to_bytes()
        bloom_off = self._offset
        yield from self.fs.write(self.path, bloom_off, bloom_blob, ctx)
        self._offset += len(bloom_blob)
        index_builder = BlockBuilder(max(64, self.options.block_bytes))
        for last_key, off, length in self._index:
            index_builder.add(last_key, _U64U32.pack(off, length))
        index_blob = index_builder.finish()
        index_off = self._offset
        yield from self.fs.write(self.path, index_off, index_blob, ctx)
        self._offset += len(index_blob)
        footer = _FOOTER.pack(
            index_off, len(index_blob), bloom_off, len(bloom_blob), self.n_entries, _MAGIC
        )
        yield from self.fs.write(self.path, self._offset, footer, ctx)
        self._offset += len(footer)
        yield from self.fs.fsync(self.path, ctx)
        return TableMeta(
            path=self.path,
            table_id=self.table_id,
            smallest=self._smallest,
            largest=self._largest,
            n_entries=self.n_entries,
            file_bytes=self._offset,
        )


class ReferenceCompactionExecutor(CompactionExecutor):
    """Compaction that decodes every input entry, heap-merges, and adds the
    survivors to output tables one by one."""

    def run(self, task, ctx) -> Generator:
        streams = []
        entries_in = 0
        for meta in list(task.inputs) + list(task.next_level_inputs):
            stored = yield from self._reader_for(meta).all_entries(ctx)
            entries = [(key, decode_value(raw)[1]) for key, raw in stored]
            entries_in += len(entries)
            streams.append(entries)
        merged = heap_merge_entries(streams, drop_tombstones=task.to_bottom)
        comparisons = count_merge_comparisons(entries_in, len(streams))
        yield from ctx.execute(self.options.costs.key_compare * comparisons)

        outputs: list[TableMeta] = []
        builder = None
        approx = 0
        for key, value in merged:
            if builder is None:
                table_id = self._next_table_id()
                builder = ReferenceTableBuilder(
                    self.fs,
                    self._table_path(table_id),
                    table_id,
                    self.options,
                    expected_keys=max(1, len(merged)),
                )
                approx = 0
            yield from builder.add(key, value, ctx)
            approx += len(key) + len(value or b"") + 9
            if approx >= self.options.target_file_bytes:
                outputs.append((yield from builder.finish(ctx)))
                builder = None
        if builder is not None and builder.n_entries:
            outputs.append((yield from builder.finish(ctx)))
        return CompactionResult(
            outputs=outputs, entries_in=entries_in, entries_out=len(merged)
        )
