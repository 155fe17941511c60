"""Primary index: PIDX blocks plus the in-memory sketch.

After compaction, sorted keys (each with a pointer to its value in the
SORTED_VALUES clusters) are packed into 4 KB PIDX blocks.  "A small sketch
of the PIDX data, consisting of a pivot primary index key and a block
pointer for every constituent PIDX data block, is additionally built and
stored as keyspace metadata ... It serves as the starting point for all
primary index queries" (Section V).

Block serialization reuses the library's common block format
(:mod:`repro.lsm.block`): sorted entries with an offset trailer for in-block
binary search; the entry value is the packed value pointer.

Readers do not walk that format entry by entry.  Keys of one width make
every entry the same size, so the entry region of a block *is* a packed
record array: :class:`PidxColumns` views it through the dtype the packer
wrote it with and every query step works on the key and pointer columns.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from repro.errors import DbError
from repro.core.klog import (
    column_bound,
    column_key_bytes,
    column_lists,
    key_column,
)
from repro.core.zone_manager import ZonePointer
from repro.lsm.block import MIN_BLOCK_BYTES, BlockBuilder, BlockReader
from repro.lsm.bloom import BloomFilter

__all__ = [
    "PidxColumns",
    "PidxPacker",
    "PidxSketch",
    "block_entry_counts",
    "build_pidx_blocks",
    "pack_value_pointer",
    "packed_block",
    "read_block_entries",
    "trailer_offsets",
    "uniform_entries",
    "unpack_value_pointer",
]

_PTR = struct.Struct("<IQI")
_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<II")  # an entry's key and value lengths

#: Below this many entries a list of keys is packed by the per-entry builder:
#: joining the keys and filling the record array costs ~16 us before the
#: first entry and ~0.3 us per entry, the builder loop ~2.5 us per entry, and
#: they meet near 6 entries.  A key column that is already an array has paid
#: the join and always packs in bulk.
_VECTOR_MIN_ENTRIES = 8

@cache
def _entry_dtype(key_len: int) -> np.dtype:
    """The packed block-entry layout for one key width."""
    return np.dtype(
        [
            ("klen", "<u4"),
            ("key", f"S{key_len}"),
            ("plen", "<u4"),
            ("zone", "<u4"),
            ("off", "<u8"),
            ("vlen", "<u4"),
        ]
    )


def trailer_offsets(count: int, entry_bytes: int) -> bytes:
    """The offset trailer of a block of ``count`` entries of one size."""
    return (np.arange(count, dtype="<u4") * entry_bytes).tobytes()


def packed_block(arr: np.ndarray, start: int, stop: int, offsets: bytes) -> bytes:
    """Entries ``[start, stop)`` of a packed entry array as a serialized
    block; ``offsets`` is :func:`trailer_offsets` for at least that many."""
    count = stop - start
    return arr[start:stop].tobytes() + offsets[: 4 * count] + _U32.pack(count)


def block_entry_counts(blobs: list[bytes]) -> list[int]:
    """Entries per serialized block, from the trailers."""
    return [_U32.unpack_from(blob, len(blob) - 4)[0] for blob in blobs]


def uniform_entries(
    blobs: list[bytes], value_bytes: int
) -> tuple[int, int, bytes] | None:
    """``(key_len, count, data)`` when ``data`` starts with the ``count``
    entries of ``blobs`` back to back, every one with a ``key_len``-byte key
    and a ``value_bytes``-byte value; None when the blocks are anything else.

    Decided from the blocks' bytes alone.  The trailers say whether entries
    of the first entry's size would fill every block exactly; then the two
    length words of every stride are compared with that first header.  It is
    real, so if every stride carries the same one, every stride is an entry
    and the bytes are a packed record array.  One block is viewed in place.
    """
    if not blobs or len(blobs[0]) < 8:
        return None  # no room for one entry header: the entry decoder's case
    (key_len,) = _U32.unpack_from(blobs[0], 0)
    entry_bytes = 8 + key_len + value_bytes
    counts = block_entry_counts(blobs)
    for blob, count in zip(blobs, counts):
        if not count or len(blob) - 4 * count - 4 != count * entry_bytes:
            return None
    total = sum(counts)
    if len(blobs) == 1:
        data = blobs[0]
    else:
        data = b"".join(
            [blob[: count * entry_bytes] for blob, count in zip(blobs, counts)]
        )
    # the (klen, vlen) words of each stride, unaligned, as one (total, 2) view
    headers = np.ndarray((total, 2), "<u4", data, 0, (entry_bytes, 4 + key_len))
    if headers.tobytes() != _HEADER.pack(key_len, value_bytes) * total:
        return None
    return key_len, total, data


def pack_value_pointer(pointer: ZonePointer) -> bytes:
    return _PTR.pack(*pointer)


def unpack_value_pointer(blob: bytes) -> ZonePointer:
    zone_id, offset, length = _PTR.unpack(blob)
    return (zone_id, offset, length)


class PidxPacker:
    """Cuts PIDX blocks from sorted key and value-pointer columns.

    The keys are known up front; the pointer columns arrive through
    :meth:`feed` in entry order as the values they point at land (all at
    once on the serial path, one appended batch at a time on the pipelined
    one), and each call returns the ``(first_key, block_blob)`` pairs it
    completed.  :meth:`finish` returns the partial tail block.

    With every key the same width every entry serializes to the same size,
    so block boundaries fall at a fixed entry count and the entry bytes come
    from one packed record array — byte-for-byte what the per-entry
    :class:`BlockBuilder` loop produces (pinned by
    ``tests/core/test_formats.py``).  Variable-width keys, short lists and
    out-of-order input take that loop, which also raises its errors.
    """

    def __init__(self, keys: np.ndarray | list[bytes], block_bytes: int = 4096):
        n = len(keys)
        #: entry index at which each emitted block starts, plus the end
        self.bounds = [0]
        self._fed = 0
        self._arr = None
        if isinstance(keys, list):
            keys = key_column(keys, _VECTOR_MIN_ENTRIES)
        if (
            isinstance(keys, np.ndarray)
            and block_bytes >= MIN_BLOCK_BYTES  # BlockBuilder raises on smaller
            and not (n > 1 and bool((keys[1:] < keys[:-1]).any()))
        ):
            width = keys.dtype.itemsize
            self._arr = arr = np.empty(n, dtype=_entry_dtype(width))
            arr["klen"] = width
            arr["key"] = keys
            arr["plen"] = _PTR.size
            # BlockBuilder closes a block at the first entry that pushes its
            # size to >= block_bytes, i.e. after ceil(block_bytes / entry) adds.
            self._per = -(-block_bytes // arr.dtype.itemsize)
            self._offsets = trailer_offsets(self._per, arr.dtype.itemsize)
        else:
            self._keys = column_key_bytes(keys)
            self._block_bytes = block_bytes
            self._builder = BlockBuilder(block_bytes)

    def _cut(self, stop: int) -> tuple[bytes, bytes]:
        """Serialize entries ``[bounds[-1], stop)`` of the record array."""
        blob = packed_block(self._arr, self.bounds[-1], stop, self._offsets)
        self.bounds.append(stop)
        return blob[4 : 4 + self._arr.dtype["key"].itemsize], blob

    def _close(self) -> tuple[bytes, bytes]:
        builder = self._builder
        self.bounds.append(self.bounds[-1] + builder.n_entries)
        self._builder = BlockBuilder(self._block_bytes)
        return builder.first_key, builder.finish()

    def feed(self, zone, off, vlen) -> list[tuple[bytes, bytes]]:
        """Supply the value pointers of the next ``len(zone)`` entries."""
        lo, hi = self._fed, self._fed + len(zone)
        self._fed = hi
        blocks = []
        arr = self._arr
        if arr is not None:
            arr["zone"][lo:hi] = zone
            arr["off"][lo:hi] = off
            arr["vlen"][lo:hi] = vlen
            while self.bounds[-1] + self._per <= hi:
                blocks.append(self._cut(self.bounds[-1] + self._per))
            return blocks
        for key, *pointer in zip(self._keys[lo:hi], *column_lists(zone, off, vlen)):
            self._builder.add(key, _PTR.pack(*pointer))
            if self._builder.full:
                blocks.append(self._close())
        return blocks

    def finish(self) -> list[tuple[bytes, bytes]]:
        """The partial last block, if any entries remain uncut."""
        if self._arr is not None:
            return [self._cut(self._fed)] if self.bounds[-1] < self._fed else []
        return [] if self._builder.empty else [self._close()]


def build_pidx_blocks(
    sorted_entries: list[tuple[bytes, ZonePointer]], block_bytes: int = 4096
) -> list[tuple[bytes, bytes]]:
    """Pack sorted (key, value-pointer) entries into blocks.

    Returns ``[(first_key, block_blob), ...]`` in key order.
    """
    packer = PidxPacker([key for key, _ptr in sorted_entries], block_bytes)
    pointers = [ptr for _key, ptr in sorted_entries]
    blocks = packer.feed(
        [ptr[0] for ptr in pointers],
        [ptr[1] for ptr in pointers],
        [ptr[2] for ptr in pointers],
    )
    return blocks + packer.finish()


@dataclass
class PidxSketch:
    """Pivot key + block pointer per PIDX block; the query starting point.

    ``blooms`` optionally holds one per-block :class:`BloomFilter` keyed by
    block index, built during compaction when ``SocSpec.bloom_bits_per_key``
    is set.  The blooms are persisted with the keyspace's metadata record
    (its *bloom annex*) and re-attached by mount, so a recovered device
    keeps its PIDX-read elimination.  An absent bloom always answers "may
    contain" (no false negatives either way).
    """

    pivots: list[bytes] = field(default_factory=list)
    block_pointers: list[ZonePointer] = field(default_factory=list)
    blooms: dict[int, BloomFilter] = field(default_factory=dict)
    #: ``pivots`` as a key column, built on the first batched look-up
    _pivot_column: np.ndarray | list[bytes] | None = field(
        default=None, repr=False, compare=False
    )

    def add_block(self, pivot: bytes, pointer: ZonePointer) -> None:
        if self.pivots and pivot <= self.pivots[-1]:
            raise DbError("sketch pivots must be strictly increasing")
        self.pivots.append(pivot)
        self.block_pointers.append(pointer)

    def attach_bloom(self, idx: int, bloom: BloomFilter) -> None:
        if not 0 <= idx < len(self.pivots):
            raise DbError(f"no PIDX block {idx} to attach a bloom to")
        self.blooms[idx] = bloom

    def may_contain(self, idx: int, key: bytes) -> bool:
        """Bloom answer for ``key`` in block ``idx``; True when no bloom."""
        bloom = self.blooms.get(idx)
        return True if bloom is None else bloom.may_contain(key)

    @property
    def bloom_bytes(self) -> int:
        """In-DRAM footprint of all attached block blooms."""
        return sum(b.size_bytes for b in self.blooms.values())

    def __len__(self) -> int:
        return len(self.pivots)

    def find_block(self, key: bytes) -> int | None:
        """Index of the block that may contain ``key``."""
        if not self.pivots:
            return None
        idx = bisect_right(self.pivots, key) - 1
        if idx < 0:
            return None  # key sorts before the first block
        return idx

    def find_blocks(self, keys: np.ndarray | list[bytes]) -> np.ndarray:
        """:meth:`find_block` for a key column: one block index per key, -1
        where the key sorts before the first block.

        Keys of the pivots' width are one ``searchsorted`` over the pivot
        column (equal widths compare as ``bytes`` do); anything else is
        bisected key by key.
        """
        column = self._pivot_column
        if column is None or len(column) != len(self.pivots):
            column = self._pivot_column = key_column(self.pivots, 1)
        if (
            isinstance(keys, np.ndarray)
            and isinstance(column, np.ndarray)
            and keys.dtype == column.dtype
        ):
            return column.searchsorted(keys, "right") - 1
        pivots = self.pivots
        return np.array(
            [bisect_right(pivots, key) - 1 for key in column_key_bytes(keys)],
            dtype=np.intp,
        )

    def blocks_for_range(self, lo: bytes, hi: bytes) -> range:
        """Indices of blocks that may hold keys in [lo, hi)."""
        if not self.pivots or lo >= hi:
            return range(0)
        start = max(0, bisect_right(self.pivots, lo) - 1)
        stop = bisect_right(self.pivots, hi)
        # hi is exclusive: a block whose pivot == hi holds only keys >= hi
        while stop > start and self.pivots[stop - 1] >= hi:
            stop -= 1
        return range(start, stop)

    @property
    def size_bytes(self) -> int:
        """Approximate in-DRAM footprint of the sketch (incl. blooms)."""
        return (
            sum(len(p) for p in self.pivots)
            + 16 * len(self.block_pointers)
            + self.bloom_bytes
        )

    def introspect(self) -> dict:
        """Sketch shape for device snapshots (no simulation events)."""
        return {
            "n_blocks": len(self.pivots),
            "size_bytes": self.size_bytes,
            "first_pivot": self.pivots[0].hex() if self.pivots else None,
            "last_pivot": self.pivots[-1].hex() if self.pivots else None,
            "zones": sorted({p[0] for p in self.block_pointers}),
            "n_blooms": len(self.blooms),
            "bloom_bytes": self.bloom_bytes,
        }


class PidxColumns:
    """Decoded PIDX entries as parallel columns, in key order.

    ``keys`` is a fixed-width ``S<klen>`` array and ``zone``/``off``/``vlen``
    the value-pointer columns.  Blocks whose keys share one width decode as a
    zero-copy view of their bytes; otherwise (keys of several widths) the
    entries are decoded one by one into a list of bytes and pointer arrays of
    the same shape, and the key look-ups bisect that list.  Which of the two
    is decided in :meth:`from_blocks`, from the blocks' bytes alone.

    Indexing with a slice or an array of rows returns those rows as a batch.
    """

    __slots__ = ("keys", "zone", "off", "vlen")

    def __init__(self, keys, zone, off, vlen):
        self.keys = keys
        self.zone = zone
        self.off = off
        self.vlen = vlen

    def __len__(self) -> int:
        return len(self.zone)

    def __getitem__(self, index) -> "PidxColumns":
        keys = self.keys
        if isinstance(keys, list) and not isinstance(index, slice):
            keys = [keys[i] for i in index.tolist()]
        else:
            keys = keys[index]
        return PidxColumns(keys, self.zone[index], self.off[index], self.vlen[index])

    @classmethod
    def from_blocks(cls, blobs: list[bytes]) -> "PidxColumns":
        """Decode PIDX blocks (of ascending key ranges) into one batch."""
        uniform = uniform_entries(blobs, _PTR.size)
        if uniform is not None and uniform[0]:
            key_len, count, data = uniform
            arr = np.frombuffer(data, dtype=_entry_dtype(key_len), count=count)
            return cls(arr["key"], arr["zone"], arr["off"], arr["vlen"])
        keys: list[bytes] = []
        pointers: list[ZonePointer] = []
        for blob in blobs:
            for key, value in BlockReader(blob).entries():
                keys.append(key)
                pointers.append(_PTR.unpack(value))
        fields = np.array(pointers, dtype=np.uint64).reshape(-1, 3)
        return cls(
            keys, fields[:, 0].astype("<u4"), fields[:, 1], fields[:, 2].astype("<u4")
        )

    def key_bytes(self) -> list[bytes]:
        """The keys as python bytes, trailing NULs intact."""
        return column_key_bytes(self.keys)

    def bounds(self, lo: bytes, hi: bytes) -> tuple[int, int]:
        """The row range ``[start, stop)`` holding the keys in ``[lo, hi)``."""
        start = column_bound(self.keys, lo)
        return start, max(start, column_bound(self.keys, hi))

    def find(self, key: bytes) -> int:
        """The row of ``key``, or -1."""
        keys = self.keys
        if isinstance(keys, list):
            row = bisect_left(keys, key)
            return row if row < len(keys) and keys[row] == key else -1
        if len(key) != keys.dtype.itemsize:
            return -1  # every key of the column has its width
        row = int(keys.searchsorted(key))
        # an ``S`` element drops trailing NULs; the raw bytes do not
        return row if keys[row : row + 1].tobytes() == key else -1

    def rows_of(self, wanted: np.ndarray | list[bytes]) -> np.ndarray:
        """Rows whose key is among ``wanted``, ascending, each row once."""
        keys = self.keys
        if (
            isinstance(keys, np.ndarray)
            and isinstance(wanted, np.ndarray)
            and wanted.dtype == keys.dtype
        ):
            rows = keys.searchsorted(wanted)
            rows[rows == len(keys)] = 0  # any row: the compare below rejects it
            return np.unique(rows[keys[rows] == wanted])
        wanted = set(column_key_bytes(wanted))
        return np.array(
            [row for row, key in enumerate(self.key_bytes()) if key in wanted],
            dtype=np.intp,
        )


def read_block_entries(blob: bytes) -> list[tuple[bytes, ZonePointer]]:
    """Decode one PIDX block into (key, value-pointer) entries."""
    block = PidxColumns.from_blocks([blob])
    pointers = zip(*column_lists(block.zone, block.off, block.vlen))
    return list(zip(block.key_bytes(), pointers))
