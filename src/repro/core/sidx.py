"""Secondary indexes: key encoding, SIDX blocks, and the SIDX sketch.

Applications "specify the byte range and the type of a certain part of
value to serve as the secondary index keys" (Section IV).  The device scans
the compacted keyspace, extracts ``value[offset:offset+width]`` from every
record, interprets it per the declared type, and sorts ``<secondary key,
primary key>`` pairs into SIDX zone clusters with a pivot sketch mirroring
the primary index's.

Numeric secondary keys are *encoded* into order-preserving byte strings
(big-endian with sign/IEEE-754 bias flips) so that plain lexicographic
machinery — the same block format as PIDX — gives numeric ordering.

The pairs travel as :class:`SidxColumns` — a secondary-key and a primary-key
column — from the extraction out of the values, through the external sort
and its spilled runs, into the blocks, and back out of the blocks when a
query scans them.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from repro.core.klog import MAX_KEY_BYTES, column_key_bytes, concat_keys
from repro.core.pidx import (
    PidxColumns,
    block_entry_counts,
    packed_block,
    trailer_offsets,
    uniform_entries,
)
from repro.core.vlog import gather_values
from repro.errors import DbError, SecondaryIndexError
from repro.lsm.block import MIN_BLOCK_BYTES, BlockBuilder, BlockReader
from repro.lsm.bloom import BloomFilter

__all__ = [
    "SidxColumns",
    "SidxConfig",
    "SidxSketch",
    "encode_skey",
    "decode_skey",
    "encode_skeys_array",
    "build_sidx_blocks",
]

_DTYPE_WIDTH = {"u32": 4, "u64": 8, "i32": 4, "i64": 8, "f32": 4, "f64": 8}


@dataclass(frozen=True)
class SidxConfig:
    """One secondary index's definition."""

    name: str
    value_offset: int
    width: int
    dtype: str = "bytes"

    def __post_init__(self) -> None:
        if not self.name:
            raise SecondaryIndexError("secondary index needs a name")
        if len(self.name.encode()) > MAX_KEY_BYTES:
            raise SecondaryIndexError(
                f"index name of {len(self.name.encode())} bytes exceeds the "
                f"{MAX_KEY_BYTES}-byte limit"
            )
        if self.value_offset < 0 or self.width <= 0:
            raise SecondaryIndexError("invalid secondary key byte range")
        if self.dtype != "bytes":
            expected = _DTYPE_WIDTH.get(self.dtype)
            if expected is None:
                raise SecondaryIndexError(f"unknown secondary dtype {self.dtype!r}")
            if expected != self.width:
                raise SecondaryIndexError(
                    f"dtype {self.dtype} is {expected} bytes, width says {self.width}"
                )

    def check_value_length(self, length: int) -> None:
        """Raise unless a value of ``length`` bytes holds the whole key range."""
        end = self.value_offset + self.width
        if end > length:
            raise SecondaryIndexError(
                f"value of {length} bytes too short for skey range "
                f"[{self.value_offset}, {end})"
            )

    def extract(self, value: bytes) -> bytes:
        """Raw secondary-key bytes from one record value."""
        self.check_value_length(len(value))
        return value[self.value_offset : self.value_offset + self.width]


# ------------------------------------------------------------------ encoding
def encode_skey(raw: bytes, dtype: str) -> bytes:
    """Order-preserving encoding of one raw (little-endian) secondary key."""
    if dtype == "bytes":
        return raw
    if len(raw) != (width := _DTYPE_WIDTH.get(dtype, len(raw))):
        raise SecondaryIndexError(f"{dtype} secondary key of {len(raw)} bytes, not {width}")
    if dtype == "u32":
        return struct.pack(">I", struct.unpack("<I", raw)[0])
    if dtype == "u64":
        return struct.pack(">Q", struct.unpack("<Q", raw)[0])
    if dtype == "i32":
        return struct.pack(">I", (struct.unpack("<i", raw)[0] + (1 << 31)) & 0xFFFFFFFF)
    if dtype == "i64":
        return struct.pack(
            ">Q", (struct.unpack("<q", raw)[0] + (1 << 63)) & 0xFFFFFFFFFFFFFFFF
        )
    if dtype in ("f32", "f64"):
        width = 4 if dtype == "f32" else 8
        bits = int.from_bytes(raw, "little")
        sign_bit = 1 << (width * 8 - 1)
        if bits & sign_bit:
            bits = (~bits) & ((1 << (width * 8)) - 1)  # negative: flip all
        else:
            bits |= sign_bit  # positive: set sign bit
        return bits.to_bytes(width, "big")
    raise SecondaryIndexError(f"unknown secondary dtype {dtype!r}")


def decode_skey(encoded: bytes, dtype: str) -> bytes:
    """Invert :func:`encode_skey`, returning the raw little-endian bytes."""
    if dtype == "bytes":
        return encoded
    if dtype == "u32":
        return struct.pack("<I", struct.unpack(">I", encoded)[0])
    if dtype == "u64":
        return struct.pack("<Q", struct.unpack(">Q", encoded)[0])
    if dtype == "i32":
        return struct.pack("<i", struct.unpack(">I", encoded)[0] - (1 << 31))
    if dtype == "i64":
        return struct.pack("<q", struct.unpack(">Q", encoded)[0] - (1 << 63))
    if dtype in ("f32", "f64"):
        width = 4 if dtype == "f32" else 8
        bits = int.from_bytes(encoded, "big")
        sign_bit = 1 << (width * 8 - 1)
        if bits & sign_bit:
            bits &= ~sign_bit & ((1 << (width * 8)) - 1)
        else:
            bits = (~bits) & ((1 << (width * 8)) - 1)
        return bits.to_bytes(width, "little")
    raise SecondaryIndexError(f"unknown secondary dtype {dtype!r}")


def encode_skeys_array(raw: np.ndarray, dtype: str) -> np.ndarray:
    """Vectorised :func:`encode_skey` over a ``(n, width)`` uint8 array.

    Returns an ``(n, width)`` uint8 array of encoded big-endian keys; the
    device's index build path uses this to keep Python per-record costs off
    the hot loop (see the HPC guides on vectorising bottlenecks).
    """
    if raw.ndim != 2:
        raise SecondaryIndexError("expected a (n, width) byte array")
    n, width = raw.shape
    if dtype == "bytes":
        return raw
    np_dtype = {"u32": "<u4", "u64": "<u8", "i32": "<i4", "i64": "<i8",
                "f32": "<f4", "f64": "<f8"}.get(dtype)
    if np_dtype is None:
        raise SecondaryIndexError(f"unknown secondary dtype {dtype!r}")
    values = raw.copy().view(np_dtype).reshape(n)
    unsigned_le = {"u32": "<u4", "u64": "<u8", "i32": "<u4", "i64": "<u8",
                   "f32": "<u4", "f64": "<u8"}[dtype]
    unsigned_be = unsigned_le.replace("<", ">")
    bits = values.view(unsigned_le).copy()
    nbits = width * 8
    sign_bit = np.array(1 << (nbits - 1)).astype(unsigned_le)
    if dtype.startswith("i"):
        bits = bits ^ sign_bit  # flip sign bit == add bias
    elif dtype.startswith("f"):
        negative = (bits & sign_bit) != 0
        bits = np.where(negative, ~bits, bits | sign_bit)
    return bits.astype(unsigned_be).view(np.uint8).reshape(n, width)


# ------------------------------------------------------------------ blocks/sketch
def build_sidx_blocks(
    sorted_pairs: list[tuple[bytes, bytes]], block_bytes: int = 4096
) -> list[tuple[bytes, bytes]]:
    """Pack sorted (encoded_skey, primary_key) pairs into blocks.

    The block key is the composite ``encoded_skey + primary_key`` (unique and
    ordered first by secondary key); the entry value is empty, matching the
    paper's "<secondary index key, primary index key>" pairs.

    Returns ``[(first_composite_key, block_blob), ...]``.
    """
    blocks: list[tuple[bytes, bytes]] = []
    builder = BlockBuilder(block_bytes)
    for skey, pkey in sorted_pairs:
        builder.add(skey + pkey, b"")
        if builder.full:
            assert builder.first_key is not None
            blocks.append((builder.first_key, builder.finish()))
            builder = BlockBuilder(block_bytes)
    if not builder.empty:
        assert builder.first_key is not None
        blocks.append((builder.first_key, builder.finish()))
    return blocks


def pack_sidx_pairs(pairs: list[tuple[bytes, bytes]]) -> bytes:
    """Serialize (encoded_skey, primary_key) pairs for external-sort runs."""
    parts = []
    for skey, pkey in pairs:
        parts.append(struct.pack("<HH", len(skey), len(pkey)))
        parts.append(skey)
        parts.append(pkey)
    return b"".join(parts)


def unpack_sidx_pairs(blob: bytes) -> list[tuple[bytes, bytes]]:
    """Invert :func:`pack_sidx_pairs`."""
    out: list[tuple[bytes, bytes]] = []
    pos = 0
    while pos < len(blob):
        slen, plen = struct.unpack_from("<HH", blob, pos)
        pos += 4
        out.append((blob[pos : pos + slen], blob[pos + slen : pos + slen + plen]))
        pos += slen + plen
    return out


def read_sidx_block(blob: bytes, skey_width: int) -> list[tuple[bytes, bytes]]:
    """Decode one SIDX block into (encoded_skey, primary_key) pairs."""
    reader = BlockReader(blob)
    return [(k[:skey_width], k[skey_width:]) for k, _ in reader.entries()]


@cache
def _entry_dtype(skey_width: int, pkey_width: int) -> np.dtype:
    """The packed SIDX block entry: composite key, empty value."""
    return np.dtype(
        [
            ("klen", "<u4"),
            ("skey", f"S{skey_width}"),
            ("pkey", f"S{pkey_width}"),
            ("vlen", "<u4"),
        ]
    )


@cache
def _pair_dtype(skey_width: int, pkey_width: int) -> np.dtype:
    """One pair of a spilled sort run, as :func:`pack_sidx_pairs` writes it."""
    return np.dtype(
        [
            ("slen", "<u2"),
            ("plen", "<u2"),
            ("skey", f"S{skey_width}"),
            ("pkey", f"S{pkey_width}"),
        ]
    )


class SidxColumns:
    """``<encoded secondary key, primary key>`` pairs as two key columns.

    Both columns are fixed-width ``S`` arrays when the primary keys share one
    width (the secondary keys always do) and lists of bytes otherwise; the
    constructors decide that from their input, and each step below then takes
    its array form or the per-pair reference it is pinned against
    (:func:`pack_sidx_pairs`, :func:`build_sidx_blocks`, ``sorted``).

    Indexing with a slice or a permutation returns those pairs as a batch.
    """

    __slots__ = ("skeys", "pkeys")

    def __init__(self, skeys, pkeys):
        self.skeys = skeys
        self.pkeys = pkeys

    def __len__(self) -> int:
        return len(self.pkeys)

    def __getitem__(self, index) -> "SidxColumns":
        if isinstance(self.pkeys, list) and not isinstance(index, slice):
            rows = index.tolist()
            return SidxColumns(
                [self.skeys[i] for i in rows], [self.pkeys[i] for i in rows]
            )
        return SidxColumns(self.skeys[index], self.pkeys[index])

    @property
    def _vector(self) -> bool:
        return isinstance(self.pkeys, np.ndarray)

    # -- construction ---------------------------------------------------------
    @classmethod
    def extract(
        cls, config: SidxConfig, records: PidxColumns, zone_blobs: dict[int, bytes]
    ) -> "SidxColumns":
        """The pairs of one index over ``records``, whose value pointers
        point into ``zone_blobs``.

        A value that ends before the configured byte range fails the
        extraction; gathering past it would read its neighbour.
        """
        vlen = records.vlen
        for length in vlen[vlen < config.value_offset + config.width].tolist():
            config.check_value_length(length)
        raw = gather_values(
            zone_blobs,
            records.zone,
            records.off.astype(np.int64) + config.value_offset,
            np.full(len(records), config.width),
        )
        skeys = encode_skeys_array(
            np.frombuffer(raw, dtype=np.uint8).reshape(-1, config.width), config.dtype
        )
        skeys = np.ascontiguousarray(skeys).view(f"S{config.width}").ravel()
        if isinstance(records.keys, np.ndarray):
            return cls(skeys, records.keys)
        return cls(column_key_bytes(skeys), records.keys)

    @classmethod
    def from_blocks(cls, blobs: list[bytes], skey_width: int) -> "SidxColumns":
        """Decode SIDX blocks (of ascending key ranges) into one batch."""
        uniform = uniform_entries(blobs, 0)
        if uniform is not None and uniform[0] > skey_width:
            key_len, count, data = uniform
            arr = np.frombuffer(
                data, dtype=_entry_dtype(skey_width, key_len - skey_width), count=count
            )
            return cls(arr["skey"], arr["pkey"])
        pairs = [pair for blob in blobs for pair in read_sidx_block(blob, skey_width)]
        return cls([s for s, _p in pairs], [p for _s, p in pairs])

    @classmethod
    def unpack(cls, blob: bytes) -> "SidxColumns":
        """Invert :meth:`pack` (a spilled sort run)."""
        if len(blob) >= 4:
            skey_width, pkey_width = struct.unpack_from("<HH", blob, 0)
            if skey_width and pkey_width and not len(blob) % (4 + skey_width + pkey_width):
                arr = np.frombuffer(blob, dtype=_pair_dtype(skey_width, pkey_width))
                if bool(
                    ((arr["slen"] == skey_width) & (arr["plen"] == pkey_width)).all()
                ):
                    return cls(arr["skey"], arr["pkey"])
        pairs = unpack_sidx_pairs(blob)
        return cls([s for s, _p in pairs], [p for _s, p in pairs])

    @classmethod
    def concat(cls, batches: Sequence["SidxColumns"]) -> "SidxColumns":
        """The pairs of ``batches`` (at least one), in order."""
        pkeys = concat_keys([batch.pkeys for batch in batches])
        skeys = concat_keys([batch.skeys for batch in batches])
        if isinstance(pkeys, list):
            skeys = column_key_bytes(skeys)
        return cls(skeys, pkeys)

    # -- the index build ------------------------------------------------------
    def _pairs(self) -> list[tuple[bytes, bytes]]:
        return list(zip(column_key_bytes(self.skeys), column_key_bytes(self.pkeys)))

    def sort_order(self) -> np.ndarray:
        """The permutation into index order: secondary key, then primary."""
        if self._vector:
            return np.lexsort((self.pkeys, self.skeys))
        pairs = self._pairs()
        return np.array(sorted(range(len(pairs)), key=pairs.__getitem__), dtype=np.intp)

    def pack(self) -> bytes:
        """Serialize for an external-sort run, as :func:`pack_sidx_pairs` does."""
        if not self._vector:
            return pack_sidx_pairs(self._pairs())
        skeys, pkeys = self.skeys, self.pkeys
        arr = np.empty(len(self), dtype=_pair_dtype(skeys.dtype.itemsize, pkeys.dtype.itemsize))
        arr["slen"] = skeys.dtype.itemsize
        arr["plen"] = pkeys.dtype.itemsize
        arr["skey"] = skeys
        arr["pkey"] = pkeys
        return arr.tobytes()

    @property
    def packed_bytes(self) -> int:
        """``len(self.pack())``: the volume the external sort plans with."""
        if self._vector:
            return len(self) * (4 + self.skeys.dtype.itemsize + self.pkeys.dtype.itemsize)
        return sum(4 + len(s) + len(p) for s, p in zip(self.skeys, self.pkeys))

    def blocks(self, block_bytes: int) -> tuple[list[tuple[bytes, bytes]], list[int]]:
        """Cut the sorted pairs into SIDX blocks, as :func:`build_sidx_blocks`
        does; returns ``([(first_composite_key, blob), ...], bounds)`` with
        block ``i`` holding pairs ``[bounds[i], bounds[i + 1])``.

        Pairs of one size put a fixed count in every block, cut from one
        packed entry array (the :class:`~repro.core.pidx.PidxPacker` scheme).
        """
        if not self._vector or block_bytes < MIN_BLOCK_BYTES:  # BlockBuilder raises
            blocks = build_sidx_blocks(self._pairs(), block_bytes)
            counts = block_entry_counts([blob for _p, blob in blocks])
            return blocks, np.cumsum([0] + counts).tolist()
        skeys, pkeys = self.skeys, self.pkeys
        key_len = skeys.dtype.itemsize + pkeys.dtype.itemsize
        arr = np.empty(len(self), dtype=_entry_dtype(skeys.dtype.itemsize, pkeys.dtype.itemsize))
        arr["klen"] = key_len
        arr["skey"] = skeys
        arr["pkey"] = pkeys
        arr["vlen"] = 0
        per = -(-block_bytes // arr.dtype.itemsize)
        offsets = trailer_offsets(per, arr.dtype.itemsize)
        bounds = list(range(0, len(arr), per)) + [len(arr)]
        blobs = [
            packed_block(arr, start, stop, offsets)
            for start, stop in zip(bounds, bounds[1:])
        ]
        return [(blob[4 : 4 + key_len], blob) for blob in blobs], bounds


@dataclass
class SidxSketch:
    """Pivot composite key + block pointer per SIDX block.

    ``blooms`` optionally holds one per-block :class:`BloomFilter` over the
    block's *encoded secondary keys*, built during the index build when
    ``SocSpec.bloom_bits_per_key`` is set; an absent bloom answers "may
    contain".  Like the PIDX blooms, these are persisted in the keyspace's
    metadata bloom annex.
    """

    skey_width: int
    pivots: list[bytes] = field(default_factory=list)
    block_pointers: list[tuple[int, int, int]] = field(default_factory=list)
    blooms: dict[int, BloomFilter] = field(default_factory=dict)

    def add_block(self, pivot: bytes, pointer: tuple[int, int, int]) -> None:
        if self.pivots and pivot <= self.pivots[-1]:
            raise DbError("sketch pivots must be strictly increasing")
        self.pivots.append(pivot)
        self.block_pointers.append(pointer)

    def attach_bloom(self, idx: int, bloom: BloomFilter) -> None:
        if not 0 <= idx < len(self.pivots):
            raise DbError(f"no SIDX block {idx} to attach a bloom to")
        self.blooms[idx] = bloom

    def may_contain(self, idx: int, skey_enc: bytes) -> bool:
        """Bloom answer for an encoded skey in block ``idx``; True if no bloom."""
        bloom = self.blooms.get(idx)
        return True if bloom is None else bloom.may_contain(skey_enc)

    @property
    def bloom_bytes(self) -> int:
        """In-DRAM footprint of all attached block blooms."""
        return sum(b.size_bytes for b in self.blooms.values())

    def __len__(self) -> int:
        return len(self.pivots)

    def blocks_for_range(self, lo_enc: bytes, hi_enc: bytes) -> range:
        """Block indices that may hold encoded secondary keys in [lo, hi)."""
        if not self.pivots or lo_enc >= hi_enc:
            return range(0)
        start = max(0, bisect_right(self.pivots, lo_enc) - 1)
        # a block whose first secondary key is >= hi holds nothing below hi
        width = self.skey_width
        stop = bisect_left(
            self.pivots, hi_enc, lo=start, key=lambda pivot: pivot[:width]
        )
        return range(start, stop)

    def introspect(self) -> dict:
        """Sketch shape for device snapshots (no simulation events)."""
        return {
            "skey_width": self.skey_width,
            "n_blocks": len(self.pivots),
            "first_pivot": self.pivots[0].hex() if self.pivots else None,
            "last_pivot": self.pivots[-1].hex() if self.pivots else None,
            "zones": sorted({p[0] for p in self.block_pointers}),
            "n_blooms": len(self.blooms),
            "bloom_bytes": self.bloom_bytes,
        }
