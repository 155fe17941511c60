"""SSTable block format: builder and reader.

A block is a byte string of back-to-back entries::

    u32 key_len | key | u32 value_len | value

followed by a trailer::

    u32 * n_entries entry offsets | u32 n_entries

The offset array enables in-block binary search.  No prefix compression —
keys in this reproduction are short and fixed-size, so the restart-point
machinery of LevelDB would only add noise.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import DbError

__all__ = ["BlockBuilder", "BlockReader", "MIN_BLOCK_BYTES"]

#: Smallest block target a builder accepts.
MIN_BLOCK_BYTES = 64

_U32 = struct.Struct("<I")

#: Below this many entries :meth:`BlockReader.entries` decodes per entry: the
#: four numpy length-gathers cost ~22 us before the first entry and ~0.35 us
#: per entry after, the struct loop ~0.7 us per entry, and they meet near 64
#: entries (a full 4 KB PIDX block holds ~100, an LSM data block ~45).
_VECTOR_MIN_ENTRIES = 64


class BlockBuilder:
    """Accumulates sorted entries until the block reaches its target size."""

    def __init__(self, target_bytes: int):
        if target_bytes < MIN_BLOCK_BYTES:
            raise DbError("block target too small")
        self.target_bytes = target_bytes
        self._chunks: list[bytes] = []
        self._offsets: list[int] = []
        self._size = 0
        self.first_key: bytes | None = None
        self.last_key: bytes | None = None
        self.n_entries = 0

    def add(self, key: bytes, value: bytes) -> None:
        """Append an entry; caller guarantees keys arrive in sorted order."""
        if self.last_key is not None and key < self.last_key:
            raise DbError("block entries must be added in sorted key order")
        if self.first_key is None:
            self.first_key = key
        self.last_key = key
        self._offsets.append(self._size)
        entry = _U32.pack(len(key)) + key + _U32.pack(len(value)) + value
        self._chunks.append(entry)
        self._size += len(entry)
        self.n_entries += 1

    @property
    def full(self) -> bool:
        return self._size >= self.target_bytes

    @property
    def empty(self) -> bool:
        return self.n_entries == 0

    @property
    def size_bytes(self) -> int:
        """Serialized size including the trailer."""
        return self._size + 4 * len(self._offsets) + 4

    def finish(self) -> bytes:
        """Serialize the block."""
        trailer = b"".join(_U32.pack(off) for off in self._offsets) + _U32.pack(
            self.n_entries
        )
        return b"".join(self._chunks) + trailer


class BlockReader:
    """Parses a serialized block; supports binary search and iteration."""

    def __init__(self, blob: bytes):
        if len(blob) < 4:
            raise DbError("truncated block")
        (self.n_entries,) = _U32.unpack_from(blob, len(blob) - 4)
        trailer_size = 4 * self.n_entries + 4
        if len(blob) < trailer_size:
            raise DbError("corrupt block trailer")
        self._blob = blob
        trailer_start = len(blob) - trailer_size
        self._offsets = struct.unpack_from(f"<{self.n_entries}I", blob, trailer_start)
        self._data_end = trailer_start

    def _entry_at(self, idx: int) -> tuple[bytes, bytes]:
        off = self._offsets[idx]
        (key_len,) = _U32.unpack_from(self._blob, off)
        key = self._blob[off + 4 : off + 4 + key_len]
        (val_len,) = _U32.unpack_from(self._blob, off + 4 + key_len)
        val_start = off + 8 + key_len
        return key, self._blob[val_start : val_start + val_len]

    def key_at(self, idx: int) -> bytes:
        off = self._offsets[idx]
        (key_len,) = _U32.unpack_from(self._blob, off)
        return self._blob[off + 4 : off + 4 + key_len]

    def get(self, key: bytes) -> bytes | None:
        """Binary-search the block for ``key``; None if absent."""
        lo, hi = 0, self.n_entries
        while lo < hi:
            mid = (lo + hi) // 2
            if self.key_at(mid) < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < self.n_entries:
            k, v = self._entry_at(lo)
            if k == key:
                return v
        return None

    def entries(self) -> list[tuple[bytes, bytes]]:
        """All (key, value) pairs, in order."""
        n = self.n_entries
        if n < _VECTOR_MIN_ENTRIES:
            return [self._entry_at(i) for i in range(n)]
        # Vectorized decode: gather every entry's length fields in four
        # numpy passes, then slice the (unchanged) bytes per entry.
        blob = self._blob
        buf = np.frombuffer(blob, dtype=np.uint8)
        off = np.asarray(self._offsets, dtype=np.int64)
        key_len = (
            buf[off].astype(np.int64)
            | (buf[off + 1].astype(np.int64) << 8)
            | (buf[off + 2].astype(np.int64) << 16)
            | (buf[off + 3].astype(np.int64) << 24)
        )
        vl_off = off + 4 + key_len
        val_len = (
            buf[vl_off].astype(np.int64)
            | (buf[vl_off + 1].astype(np.int64) << 8)
            | (buf[vl_off + 2].astype(np.int64) << 16)
            | (buf[vl_off + 3].astype(np.int64) << 24)
        )
        key_start = (off + 4).tolist()
        key_end = vl_off.tolist()
        val_end = (vl_off + 4 + val_len).tolist()
        return [
            (blob[ks:ke], blob[ke + 4 : ve])
            for ks, ke, ve in zip(key_start, key_end, val_end)
        ]

    def entries_from(self, key: bytes) -> list[tuple[bytes, bytes]]:
        """Entries with ``entry.key >= key``, in order."""
        lo, hi = 0, self.n_entries
        while lo < hi:
            mid = (lo + hi) // 2
            if self.key_at(mid) < key:
                lo = mid + 1
            else:
                hi = mid
        return [self._entry_at(i) for i in range(lo, self.n_entries)]
