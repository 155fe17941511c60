"""SSTable format: builder and reader over the simulated filesystem.

Layout of one table file::

    [data block]*  [bloom filter]  [index block]  [footer]

* data blocks hold sorted entries in the :mod:`repro.lsm.block` format;
  tombstones are encoded with a 1-byte value prefix (``0x00`` tombstone,
  ``0x01`` value);
* the index block maps each data block's last key to ``(offset, length)``;
* the footer locates the index and filter and carries a magic number.

The builder takes a whole sorted run and packs it a block at a time.  It
charges serialization, checksum and bloom CPU to the building thread and
writes through the filesystem (buffered + final fsync), so table
construction shows up in both CPU contention and device I/O — the two
channels through which RocksDB compaction hurts foreground writers in the
paper's Figure 7.
"""

from __future__ import annotations

import operator
import struct
from bisect import bisect_left
from collections.abc import Generator
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Optional

from repro.errors import DbError
from repro.host.filesystem import Filesystem
from repro.host.threads import ThreadCtx
from repro.lsm.block import BlockBuilder, BlockReader
from repro.lsm.bloom import BloomFilter
from repro.lsm.memtable import LookupState
from repro.lsm.options import DbOptions

__all__ = [
    "TableBuilder", "TableReader", "TableMeta", "encode_value", "decode_value", "split_runs"
]

_FOOTER = struct.Struct("<QQQQQQ")
_MAGIC = 0x88E241B785F4CF9E
_U64U32 = struct.Struct("<QI")
_U32 = struct.Struct("<I")

TOMBSTONE = b"\x00"
VALUE_PREFIX = b"\x01"


def encode_value(value: Optional[bytes]) -> bytes:
    """Encode a user value (or ``None`` tombstone) for block storage."""
    return TOMBSTONE if value is None else VALUE_PREFIX + value


def decode_value(stored: bytes) -> tuple[bool, Optional[bytes]]:
    """Return (is_tombstone, value)."""
    if stored[:1] == TOMBSTONE:
        return True, None
    return False, stored[1:]


def split_runs(sizes: list[int], limit: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of the consecutive runs that cut ``sizes``: a run
    closes at the first entry that takes its total to ``limit``."""
    ends = list(accumulate(sizes))
    runs = []
    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = min(len(ends), bisect_left(ends, base + limit, start) + 1)
        runs.append((start, stop))
        start = stop
    return runs


@dataclass(frozen=True)
class TableMeta:
    """Catalog entry for one table file.

    ``l0_seq`` orders L0 tables by the age of the memtable they came from
    (higher = newer); flush jobs may *build* in parallel but L0 recency must
    follow memtable order or newest-wins resolution breaks.
    """

    path: str
    table_id: int
    smallest: bytes
    largest: bytes
    n_entries: int
    file_bytes: int
    l0_seq: int = -1

    def overlaps(self, lo: bytes, hi: bytes) -> bool:
        """Whether the table's key span intersects [lo, hi)."""
        return self.smallest < hi and lo <= self.largest

    def contains_key(self, key: bytes) -> bool:
        return self.smallest <= key <= self.largest


class TableBuilder:
    """Writes one sorted run of entries as a new table file, a block at a time."""

    def __init__(
        self,
        fs: Filesystem,
        path: str,
        table_id: int,
        options: DbOptions,
        expected_keys: int,
    ):
        self.fs = fs
        self.path = path
        self.table_id = table_id
        self.options = options
        self._bloom = BloomFilter(expected_keys, options.bloom_bits_per_key)

    def build(self, entries: list[tuple[bytes, bytes]], ctx: ThreadCtx) -> Generator:
        """Write ``entries`` — ``(key, stored)`` pairs, keys strictly
        increasing, values already :func:`encode_value`'d — as the whole
        table: data blocks, filter, index, footer, fsync.  Returns its
        :class:`TableMeta`.

        A block closes at the first entry that takes it to ``block_bytes``;
        each block's CPU (bloom, serialization and checksum of its entries)
        is charged in one slice just before its write, so the event count
        stays proportional to blocks, not entries.
        """
        n = len(entries)
        if n == 0:
            raise DbError("refusing to build an empty table")
        keys = [key for key, _stored in entries]
        if not all(map(operator.lt, keys, islice(keys, 1, None))):
            raise DbError("table entries must be strictly increasing")
        yield from self.fs.create(self.path, ctx)
        self._bloom.add_many(keys)
        sizes = [len(key) + len(stored) + 8 for key, stored in entries]
        costs = self.options.costs
        per_key = costs.bloom_add_per_key
        per_byte = costs.block_build_per_byte + costs.checksum_per_byte
        index = BlockBuilder(max(64, self.options.block_bytes))
        offset = 0
        for start, stop in split_runs(sizes, self.options.block_bytes):
            block_sizes = sizes[start:stop]
            # the repro.lsm.block format: u32 key_len | key | u32 value_len |
            # value per entry, then the u32 entry offsets and the u32 count
            parts = [
                _U32.pack(len(key)) + key + _U32.pack(len(stored)) + stored
                for key, stored in entries[start:stop]
            ]
            parts.append(
                struct.pack(
                    f"<{stop - start + 1}I",
                    *accumulate(block_sizes[:-1], initial=0),
                    stop - start,
                )
            )
            blob = b"".join(parts)
            cpu = 0.0
            for size in block_sizes:  # in entry order: sum() compensates on 3.12+
                cpu += per_key + per_byte * size
            yield from ctx.execute(cpu)
            yield from self.fs.write(self.path, offset, blob, ctx)
            index.add(keys[stop - 1], _U64U32.pack(offset, len(blob)))
            offset += len(blob)
        bloom_blob = self._bloom.to_bytes()
        bloom_off = offset
        yield from self.fs.write(self.path, bloom_off, bloom_blob, ctx)
        offset += len(bloom_blob)
        index_blob = index.finish()
        index_off = offset
        yield from self.fs.write(self.path, index_off, index_blob, ctx)
        offset += len(index_blob)
        footer = _FOOTER.pack(
            index_off, len(index_blob), bloom_off, len(bloom_blob), n, _MAGIC
        )
        yield from self.fs.write(self.path, offset, footer, ctx)
        offset += len(footer)
        yield from self.fs.fsync(self.path, ctx)
        return TableMeta(
            path=self.path,
            table_id=self.table_id,
            smallest=keys[0],
            largest=keys[-1],
            n_entries=n,
            file_bytes=offset,
        )


class TableReader:
    """Random and sequential access to one table file."""

    def __init__(self, fs: Filesystem, meta: TableMeta, options: DbOptions, cache=None):
        self.fs = fs
        self.meta = meta
        self.options = options
        self.cache = cache  # BlockCache or None
        self._index: Optional[list[tuple[bytes, int, int]]] = None
        self._bloom: Optional[BloomFilter] = None

    def _load_footer_and_index(self, ctx: ThreadCtx) -> Generator:
        if self._index is not None:
            return
        size = self.fs.file_size(self.meta.path)
        footer_blob = yield from self.fs.read(
            self.meta.path, size - _FOOTER.size, _FOOTER.size, ctx
        )
        index_off, index_len, bloom_off, bloom_len, n_entries, magic = _FOOTER.unpack(
            footer_blob
        )
        if magic != _MAGIC:
            raise DbError(f"bad table magic in {self.meta.path}")
        bloom_blob = yield from self.fs.read(self.meta.path, bloom_off, bloom_len, ctx)
        self._bloom = BloomFilter.from_bytes(bloom_blob)
        index_blob = yield from self.fs.read(self.meta.path, index_off, index_len, ctx)
        reader = BlockReader(index_blob)
        self._index = [
            (key, *_U64U32.unpack(value)) for key, value in reader.entries()
        ]

    def _read_block(self, offset: int, length: int, ctx: ThreadCtx) -> Generator:
        if self.cache is not None:
            cached = self.cache.get(self.meta.table_id, offset)
            if cached is not None:
                return cached
        blob = yield from self.fs.read(self.meta.path, offset, length, ctx)
        reader = BlockReader(blob)
        if self.cache is not None:
            self.cache.put(self.meta.table_id, offset, reader, length)
        return reader

    def _find_block(self, key: bytes) -> Optional[tuple[int, int]]:
        """(offset, length) of the block that may hold ``key``."""
        assert self._index is not None
        lo, hi = 0, len(self._index)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._index[mid][0] < key:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self._index):
            return None
        return self._index[lo][1], self._index[lo][2]

    def get(self, key: bytes, ctx: ThreadCtx) -> Generator:
        """Point lookup: returns (LookupState, value)."""
        yield from self._load_footer_and_index(ctx)
        assert self._bloom is not None
        yield from ctx.execute(self.options.costs.bloom_check_per_key)
        if not self._bloom.may_contain(key):
            return LookupState.MISSING, None
        loc = self._find_block(key)
        if loc is None:
            return LookupState.MISSING, None
        reader = yield from self._read_block(loc[0], loc[1], ctx)
        yield from ctx.execute(self.options.costs.key_compare * 12)  # binary search
        stored = reader.get(key)
        if stored is None:
            return LookupState.MISSING, None
        is_tombstone, value = decode_value(stored)
        if is_tombstone:
            return LookupState.DELETED, None
        return LookupState.FOUND, value

    def scan(self, lo: bytes, hi: bytes, ctx: ThreadCtx) -> Generator:
        """Entries with lo <= key < hi; tombstones included (value None)."""
        yield from self._load_footer_and_index(ctx)
        assert self._index is not None
        out: list[tuple[bytes, Optional[bytes]]] = []
        for last_key, offset, length in self._index:
            if last_key < lo:
                continue
            reader = yield from self._read_block(offset, length, ctx)
            entries = reader.entries_from(lo)
            yield from ctx.execute(
                self.options.costs.iterator_next * max(1, len(entries))
            )
            for key, stored in entries:
                if key >= hi:
                    return out
                is_tombstone, value = decode_value(stored)
                out.append((key, None if is_tombstone else value))
        return out

    def all_entries(self, ctx: ThreadCtx) -> Generator:
        """Every entry as stored — ``(key, encoded value)``, tombstones
        included — for compaction, which carries the bytes through."""
        yield from self._load_footer_and_index(ctx)
        assert self._index is not None
        out: list[tuple[bytes, bytes]] = []
        for _last_key, offset, length in self._index:
            reader = yield from self._read_block(offset, length, ctx)
            out += reader.entries()
        yield from ctx.execute(self.options.costs.iterator_next * max(1, len(out)))
        return out
