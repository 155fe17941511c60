"""Bloom filter over table keys.

Functional (real bit array, real hashing) and deterministic across runs:
hashing uses CRC-32 pairs rather than Python's salted ``hash()``.  Double
hashing (Kirsch-Mitzenmacher) derives the k probe positions from two base
hashes, matching what LevelDB/RocksDB do.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from repro.errors import DbError

__all__ = ["BloomFilter", "crc32_column", "key_hashes"]


_H2_SEED = 0x9E3779B9
#: highest probe count a filter is ever built with (or accepted from flash)
_MAX_PROBES = 30
#: Below this many keys ``add_many`` is the ``add`` loop: a scalar add costs
#: ~2.9 us, the array path ~9 us of numpy dispatch plus ~0.3 us a key, and
#: the two meet at 4 keys.
_VECTOR_MIN_KEYS = 4


def _crc_table() -> np.ndarray:
    """The byte table of reflected CRC-32 (polynomial 0xEDB88320), zlib's."""
    table = []
    for crc in range(256):
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
        table.append(crc)
    return np.array(table, dtype=np.uint32)


_CRC_TABLE = _crc_table()


def crc32_column(keys: np.ndarray, value: int = 0) -> np.ndarray:
    """``zlib.crc32(key, value)`` of every key of a fixed-width ``S`` column.

    A key is its full width, trailing NULs included (the bytes
    :func:`~repro.core.klog.column_key_bytes` gives).  Table-driven: one
    numpy step per key byte, over all keys at once.
    """
    width = keys.dtype.itemsize
    # byte j of every key, as one contiguous row per j
    rows = np.ascontiguousarray(keys).view(np.uint8).reshape(len(keys), width).T.copy()
    crc = np.full(len(keys), value ^ 0xFFFFFFFF, dtype=np.uint32)
    for row in rows:
        crc = _CRC_TABLE[(crc ^ row) & 0xFF] ^ (crc >> 8)
    return crc ^ np.uint32(0xFFFFFFFF)


def key_hashes(keys: np.ndarray | list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The two base hashes of every key, ``crc32(key)`` and
    ``crc32(key, _H2_SEED)``, as integer columns.

    An ``S`` column takes one :func:`crc32_column` pass: CRC-32 is affine in
    its start value, so for keys of one width ``crc32(key, a) ^ crc32(key,
    b)`` is the same for every key and the second hash is the first XOR a
    constant.  A list of (variable-width) keys is hashed by ``zlib``.
    """
    if isinstance(keys, np.ndarray):
        h1 = crc32_column(keys)
        zeros = bytes(keys.dtype.itemsize)
        return h1, h1 ^ np.uint32(zlib.crc32(zeros, _H2_SEED) ^ zlib.crc32(zeros))
    crc32 = zlib.crc32
    return (
        np.array([crc32(key) for key in keys], dtype=np.int64),
        np.array([crc32(key, _H2_SEED) for key in keys], dtype=np.int64),
    )


def _hash_pair(key: bytes) -> tuple[int, int]:
    h1 = zlib.crc32(key)
    h2 = zlib.crc32(key, _H2_SEED) | 1  # odd so probes cycle the whole table
    return h1, h2


class BloomFilter:
    """A classic Bloom filter sized by bits-per-key."""

    def __init__(self, n_keys: int, bits_per_key: int = 10):
        if n_keys < 0 or bits_per_key < 1:
            raise DbError("invalid bloom filter parameters")
        self.n_bits = max(64, n_keys * bits_per_key)
        # ln(2) * bits/key rounded is the optimal probe count.
        self.k = max(1, min(_MAX_PROBES, round(bits_per_key * math.log(2))))
        self._bits = np.zeros((self.n_bits + 7) // 8, dtype=np.uint8)
        self.n_added = 0

    def add(self, key: bytes) -> None:
        h1, h2 = _hash_pair(key)
        for i in range(self.k):
            bit = (h1 + i * h2) % self.n_bits
            self._bits[bit >> 3] |= 1 << (bit & 7)
        self.n_added += 1

    def add_many(self, keys: list[bytes]) -> None:
        """``add`` every key; the same bits, set through one probe matrix."""
        if len(keys) < _VECTOR_MIN_KEYS:
            for key in keys:
                self.add(key)
            return
        self.add_hashes(*key_hashes(keys))

    def add_hashes(self, h1: np.ndarray, h2: np.ndarray) -> None:
        """Add the keys whose base hashes (see :func:`key_hashes`) are
        ``h1``/``h2``: the bits ``add`` sets, through one probe matrix."""
        # h1 + i*h2 < 2**32 * 31: the probe arithmetic is exact in int64
        h1 = h1.astype(np.int64, copy=False)
        h2 = h2.astype(np.int64, copy=False) | 1
        probes = (h1[:, None] + np.arange(self.k) * h2[:, None]) % self.n_bits
        flags = np.zeros(len(self._bits) * 8, dtype=np.uint8)
        flags[probes.ravel()] = 1
        self._bits |= np.packbits(flags, bitorder="little")
        self.n_added += len(h1)

    def may_contain(self, key: bytes) -> bool:
        h1, h2 = _hash_pair(key)
        for i in range(self.k):
            bit = (h1 + i * h2) % self.n_bits
            if not self._bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    # -- serialization (tables persist their filters) ---------------------------
    def to_bytes(self) -> bytes:
        header = self.n_bits.to_bytes(8, "little") + self.k.to_bytes(
            2, "little"
        ) + self.n_added.to_bytes(8, "little")
        return header + self._bits.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BloomFilter":
        if len(blob) < 18:
            raise DbError("truncated bloom filter")
        n_bits = int.from_bytes(blob[0:8], "little")
        k = int.from_bytes(blob[8:10], "little")
        n_added = int.from_bytes(blob[10:18], "little")
        if n_bits == 0 or not 1 <= k <= _MAX_PROBES:
            raise DbError("corrupt bloom filter header")
        bits = np.frombuffer(blob[18:], dtype=np.uint8).copy()
        if len(bits) != (n_bits + 7) // 8:
            raise DbError("corrupt bloom filter payload")
        filt = cls.__new__(cls)
        filt.n_bits = n_bits
        filt.k = k
        filt.n_added = n_added
        filt._bits = bits
        return filt

    @property
    def size_bytes(self) -> int:
        return len(self._bits) + 18
