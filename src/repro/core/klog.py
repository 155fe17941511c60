"""KLOG record format: keys plus pointers to their values.

Section V of the paper: "values are written to VLOG zone clusters while
keys, along with pointers to the values, are written to KLOG zone clusters"
— the key-value separation that lets compaction sort keys first and values
second.

Each record also carries the keyspace-local sequence number assigned at
insertion, so compaction resolves duplicate keys (and tombstones from bulk
deletes) newest-wins even though the log itself is unordered.

One record::

    u16 key_len | key | u64 seq | u32 zone_id | u64 offset | u32 value_len

A ``value_len`` of ``0xFFFFFFFF`` marks a tombstone (bulk delete); its
pointer fields are zero and it carries no VLOG data.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from functools import cache
from itertools import chain
from typing import Optional

import numpy as np

from repro.core.zone_manager import ZonePointer
from repro.errors import DbError, KeyTooLargeError, KlogTruncatedError

__all__ = [
    "KlogColumns",
    "KlogRecord",
    "MAX_KEY_BYTES",
    "TOMBSTONE_LEN",
    "column_bound",
    "column_key_bytes",
    "column_lists",
    "concat_keys",
    "key_column",
    "key_seq_order",
    "pack_klog_columns",
    "pack_klog_records",
    "unpack_klog_records",
    "unpack_klog_records_prefix",
    "klog_record_size",
]

_KLEN = struct.Struct("<H")
_BODY = struct.Struct("<QIQI")  # seq, zone, offset, value_len

#: value_len sentinel marking a delete.
TOMBSTONE_LEN = 0xFFFFFFFF

#: Longest key the device admits.  Key lengths travel as u16 (wire, KLOG) and
#: the metadata record keeps 0xFFFF as the "no key" mark of ``min_key`` /
#: ``max_key``, so the one limit every format can carry is 0xFFFE.
MAX_KEY_BYTES = 0xFFFE

#: (key, seq, value_pointer-or-None) — None pointer means tombstone.
KlogRecord = tuple[bytes, int, Optional[ZonePointer]]

#: Below this many records the struct loops beat numpy dispatch: packing 4
#: records from columns costs 4.4 us in the loop against 5.4 us through the
#: record dtype, 8 records 6.9 against 6.4 (16-byte keys; the parse loop stays
#: ahead until ~24 records, on extents too small to matter).  The loops also
#: serve variable-width keys, which no fixed dtype can describe.
_VECTOR_MIN_RECORDS = 8

@cache
def _record_dtype(key_len: int) -> np.dtype:
    """The packed record layout for one key width (at most 65535 of them)."""
    return np.dtype(
        [
            ("klen", "<u2"),
            ("key", f"S{key_len}"),
            ("seq", "<u8"),
            ("zone", "<u4"),
            ("off", "<u8"),
            ("vlen", "<u4"),
        ]
    )


def klog_record_size(key: bytes) -> int:
    """Serialized size of one KLOG record."""
    return _KLEN.size + len(key) + _BODY.size


def column_key_bytes(keys: np.ndarray | list[bytes]) -> list[bytes]:
    """A key column as python bytes, trailing NULs intact.

    Converting a numpy ``S`` element strips trailing NULs, so the keys are
    sliced out of the column's raw bytes instead.
    """
    if isinstance(keys, list):
        return keys
    width = keys.dtype.itemsize
    raw = keys.tobytes()
    return [raw[i : i + width] for i in range(0, len(raw), width)]


def key_column(keys: list[bytes], min_keys: int) -> np.ndarray | list[bytes]:
    """``keys`` as a fixed-width ``S`` array, if there are at least
    ``min_keys`` of them and all have one width a KLOG record can carry;
    otherwise the list itself."""
    width = len(keys[0]) if keys else 0
    if (
        len(keys) >= min_keys
        and 0 < width <= MAX_KEY_BYTES
        and set(map(len, keys)) == {width}
    ):
        return np.frombuffer(b"".join(keys), dtype=f"S{width}")
    return keys


def column_bound(keys: np.ndarray | list[bytes], probe: bytes) -> int:
    """How many keys of a sorted column order before ``probe``
    (``bisect_left``), under python ``bytes`` order.

    numpy compares ``S`` values as if NUL-padded to one width, python does
    not: ``b"k" < b"k\\x00"`` but the two are equal as ``S`` values.  A probe
    no wider than the column pads to a key that bounds the same rows, so it
    is compared as it is.  A wider probe orders after the key it extends and
    before everything above that key, whatever its tail: it is cut to the
    column width and takes the right-hand bound.
    """
    if isinstance(keys, list):
        return bisect_left(keys, probe)
    width = keys.dtype.itemsize
    if len(probe) > width:
        return int(keys.searchsorted(probe[:width], "right"))
    return int(keys.searchsorted(probe))


def concat_keys(columns: Sequence[np.ndarray | list[bytes]]) -> np.ndarray | list[bytes]:
    """Key columns (at least one) joined in order: one array when all are
    arrays of one width, otherwise a list of bytes."""
    first = columns[0]
    if isinstance(first, np.ndarray) and all(
        isinstance(c, np.ndarray) and c.dtype == first.dtype for c in columns
    ):
        return first if len(columns) == 1 else np.concatenate(columns)
    return [key for column in columns for key in column_key_bytes(column)]


def column_lists(*columns) -> list[list[int]]:
    """Integer columns (arrays or lists) as lists of python ints."""
    return [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]


def _uniform_view(blob: bytes) -> np.ndarray | None:
    """The extent as a packed record array, if every key has one width.

    If every klen field at stride positions reads as the first record's, the
    stride interpretation is self-consistent (the first header is real, so by
    induction every boundary is a real header): the array is a zero-copy view
    of ``blob``.  ``None`` for variable-width or torn extents.
    """
    n = len(blob)
    if n < _KLEN.size:
        return None
    (key_len,) = _KLEN.unpack_from(blob, 0)
    if not key_len or n % (_KLEN.size + key_len + _BODY.size):
        return None
    arr = np.frombuffer(blob, dtype=_record_dtype(key_len))
    return arr if bool((arr["klen"] == key_len).all()) else None


def key_seq_order(keys: np.ndarray, seq: np.ndarray) -> np.ndarray:
    """The stable permutation into compaction order: key asc, seq desc.

    Fixed-width ``S`` comparison equals bytes comparison for equal-width keys
    (trailing-NUL stripping can only merge *ties*), and ``~a < ~b`` iff
    ``a > b`` for unsigned ints, so one lexsort reproduces
    ``sorted(key=(key, -seq))`` exactly.
    """
    return np.lexsort((~seq, keys))


class KlogColumns:
    """A batch of KLOG records held as parallel columns.

    The unit compaction works on, from the KLOG read to the published index:
    ``seq``/``zone``/``off``/``vlen`` are integer arrays (``vlen`` of
    :data:`TOMBSTONE_LEN` marks a delete) and ``keys`` is a fixed-width
    ``S<klen>`` array — zero-copy views of the KLOG extent where possible.
    Only a batch whose keys vary in width (or that is too small for numpy to
    pay, see :data:`_VECTOR_MIN_RECORDS`) carries ``keys`` as a list of
    bytes, and the key-dependent steps then run their per-record loops; that
    choice is made here, from the input alone, and nowhere else.

    Indexing with a slice, a boolean mask or a permutation returns the
    selected records as a new batch.
    """

    __slots__ = ("keys", "seq", "zone", "off", "vlen")

    def __init__(self, keys, seq, zone, off, vlen):
        self.keys = keys
        self.seq = seq
        self.zone = zone
        self.off = off
        self.vlen = vlen

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, index) -> "KlogColumns":
        keys = self.keys
        if isinstance(keys, list) and not isinstance(index, slice):
            keys = [keys[i] for i in np.arange(len(keys))[index].tolist()]
        else:
            keys = keys[index]
        return KlogColumns(
            keys, self.seq[index], self.zone[index], self.off[index], self.vlen[index]
        )

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[KlogRecord]) -> "KlogColumns":
        """Transpose ``(key, seq, pointer|None)`` tuples into columns."""
        keys = [record[0] for record in records]
        pointers = [
            (0, 0, TOMBSTONE_LEN) if record[2] is None else record[2]
            for record in records
        ]
        fields = np.fromiter(
            chain.from_iterable(pointers), dtype=np.uint64, count=3 * len(pointers)
        ).reshape(-1, 3)
        for i in np.flatnonzero(fields[:, 2] == TOMBSTONE_LEN).tolist():
            if records[i][2] is not None:
                raise DbError("value length collides with the tombstone sentinel")
        return cls(
            key_column(keys, _VECTOR_MIN_RECORDS),
            np.array([record[1] for record in records], dtype=np.uint64),
            fields[:, 0].astype(np.uint32),
            fields[:, 1],
            fields[:, 2].astype(np.uint32),
        )

    @classmethod
    def from_blobs(cls, blobs: Iterable[bytes], torn_ok: bool = False) -> "KlogColumns":
        """Parse KLOG extents into one batch, in extent order.

        ``torn_ok`` parses each extent prefix-tolerantly (see
        :func:`unpack_klog_records_prefix`).
        """
        blobs = [blob for blob in blobs if blob]
        views = [_uniform_view(blob) for blob in blobs]
        if (
            views
            and all(view is not None for view in views)
            and len({view.dtype for view in views}) == 1
            and sum(map(len, views)) >= _VECTOR_MIN_RECORDS
        ):
            rec = views[0] if len(views) == 1 else np.concatenate(views)
            return cls(rec["key"], rec["seq"], rec["zone"], rec["off"], rec["vlen"])
        records: list[KlogRecord] = []
        for blob in blobs:
            records += (
                unpack_klog_records_prefix(blob)[0]
                if torn_ok
                else unpack_klog_records(blob)
            )
        return cls.from_records(records)

    @classmethod
    def concat(cls, batches: Sequence["KlogColumns"]) -> "KlogColumns":
        """The records of ``batches`` (at least one), in order."""
        return cls(
            concat_keys([batch.keys for batch in batches]),
            *(
                np.concatenate([getattr(batch, name) for batch in batches])
                for name in ("seq", "zone", "off", "vlen")
            ),
        )

    def pack(self) -> bytes:
        """Serialize back into a KLOG extent."""
        return pack_klog_columns(self.keys, self.seq, self.zone, self.off, self.vlen)

    # -- compaction order -----------------------------------------------------
    def sort_order(self) -> np.ndarray:
        """The stable permutation into compaction order: key asc, seq desc."""
        keys = self.keys
        if isinstance(keys, list):
            seq = self.seq.tolist()
            order = sorted(range(len(seq)), key=lambda i: (keys[i], -seq[i]))
            return np.array(order, dtype=np.intp)
        return key_seq_order(keys, self.seq)

    def key_changes(self) -> np.ndarray:
        """Mask: the record's key differs from its predecessor's."""
        keys = self.keys
        changes = np.ones(len(self), dtype=bool)
        if isinstance(keys, list):
            changes[1:] = [a != b for a, b in zip(keys[1:], keys)]
        else:
            changes[1:] = keys[1:] != keys[:-1]
        return changes

    def newest_live(self) -> np.ndarray:
        """Mask over a sorted batch: each key's newest record, unless that
        record is a tombstone (which drops the key entirely)."""
        return self.key_changes() & (self.vlen != TOMBSTONE_LEN)

    def rank(self, pivots: "KlogColumns") -> np.ndarray:
        """Per record, how many of the sorted ``pivots`` order at or before it.

        ``bisect_right`` of ``(key, -seq)`` among the pivots' — as one
        vectorised compare per pivot, there being only a few.
        """
        keys = self.keys
        if isinstance(keys, list) or isinstance(pivots.keys, list):
            marks = [
                (key, -seq)
                for key, seq in zip(column_key_bytes(pivots.keys), pivots.seq.tolist())
            ]
            return np.array(
                [
                    bisect_right(marks, (key, -seq))
                    for key, seq in zip(column_key_bytes(keys), self.seq.tolist())
                ],
                dtype=np.intp,
            )
        rank = np.zeros(len(self), dtype=np.intp)
        for i in range(len(pivots)):
            key = pivots.keys[i : i + 1]
            rank += (key < keys) | ((key == keys) & (pivots.seq[i] >= self.seq))
        return rank


def pack_klog_columns(keys, seq, zone, off, vlen) -> bytes:
    """Serialize records given as columns (``vlen`` of
    :data:`TOMBSTONE_LEN` marks a tombstone, with zero pointer fields).

    ``keys`` is a fixed-width ``S`` array or a list of bytes; the integer
    columns are arrays or lists.  Uniform-width keys encode through the
    packed record dtype; variable widths and tiny batches take the struct
    loop.
    """
    if isinstance(keys, list):
        keys = key_column(keys, _VECTOR_MIN_RECORDS)
    if isinstance(keys, np.ndarray):
        arr = np.empty(len(keys), dtype=_record_dtype(keys.dtype.itemsize))
        arr["klen"] = keys.dtype.itemsize
        arr["key"] = keys
        arr["seq"] = seq
        arr["zone"] = zone
        arr["off"] = off
        arr["vlen"] = vlen
        return arr.tobytes()
    parts = []
    for key, *body in zip(keys, *column_lists(seq, zone, off, vlen)):
        if len(key) > MAX_KEY_BYTES:
            raise KeyTooLargeError(len(key), MAX_KEY_BYTES)
        parts.append(_KLEN.pack(len(key)))
        parts.append(key)
        parts.append(_BODY.pack(*body))
    return b"".join(parts)


def pack_klog_records(records: list[KlogRecord]) -> bytes:
    """Serialize (key, seq, pointer|None) records."""
    return KlogColumns.from_records(records).pack()


def unpack_klog_records(blob: bytes) -> list[KlogRecord]:
    """Parse a KLOG extent back into (key, seq, pointer|None) records."""
    n = len(blob)
    if n >= _VECTOR_MIN_RECORDS * (_KLEN.size + _BODY.size + 1):
        arr = _uniform_view(blob)
        if arr is not None:
            tomb = TOMBSTONE_LEN
            return [
                (key, seq, None if vlen == tomb else (zone, off, vlen))
                for key, seq, zone, off, vlen in zip(
                    column_key_bytes(arr["key"]),
                    arr["seq"].tolist(),
                    arr["zone"].tolist(),
                    arr["off"].tolist(),
                    arr["vlen"].tolist(),
                )
            ]
    out: list[KlogRecord] = []
    pos = 0
    while pos < n:
        if pos + _KLEN.size > n:
            raise KlogTruncatedError("truncated KLOG record header")
        (klen,) = _KLEN.unpack_from(blob, pos)
        pos += _KLEN.size
        if pos + klen + _BODY.size > n:
            raise KlogTruncatedError("truncated KLOG record body")
        key = blob[pos : pos + klen]
        pos += klen
        seq, zone_id, offset, length = _BODY.unpack_from(blob, pos)
        pos += _BODY.size
        if length == TOMBSTONE_LEN:
            out.append((key, seq, None))
        else:
            out.append((key, seq, (zone_id, offset, length)))
    return out


def unpack_klog_records_prefix(blob: bytes) -> tuple[list[KlogRecord], int]:
    """Tolerant parse for mount rescans: the longest intact record prefix.

    A power cut can tear the final KLOG append mid-record.  Every record
    before the tear was durably acknowledged (or is a harmless prefix of an
    unacknowledged flush) and is returned; the byte count of the torn
    suffix comes back alongside so the caller can account for it and seal
    the zone.  Well-formed extents parse exactly as
    :func:`unpack_klog_records` with a zero suffix.

    Only tail truncation (:class:`~repro.errors.KlogTruncatedError`) is
    tolerated; any other :class:`~repro.errors.DbError` the strict parser
    raises is mid-extent corruption, not a torn append, and propagates
    rather than being laundered into a shorter record list.
    """
    try:
        return unpack_klog_records(blob), 0
    except KlogTruncatedError:
        pass
    out: list[KlogRecord] = []
    pos = 0
    n = len(blob)
    while pos < n:
        if pos + _KLEN.size > n:
            break
        (klen,) = _KLEN.unpack_from(blob, pos)
        end = pos + _KLEN.size + klen + _BODY.size
        if end > n:
            break
        key = blob[pos + _KLEN.size : pos + _KLEN.size + klen]
        seq, zone_id, offset, length = _BODY.unpack_from(blob, pos + _KLEN.size + klen)
        out.append(
            (key, seq, None if length == TOMBSTONE_LEN else (zone_id, offset, length))
        )
        pos = end
    return out, n - pos
