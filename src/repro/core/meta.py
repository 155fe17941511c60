"""Durable metadata layer: a checksummed record codec.

All on-flash metadata flows through this module — keyspace table records,
zone-cluster maps, PIDX sketches, SIDX summaries and the per-block bloom
filters — so a recovered device starts from exactly the state the dying
device persisted, blooms included.  :mod:`repro.core.metalog` decides
where and when records are written; this module only frames them.

Every record is one frame::

    b"KM" | u8 version (2) | u32 payload_len | u32 crc32(payload) | payload

A frame either validates — magic, version, a non-zero in-bounds length,
CRC — or replay stops there: the stream is ``torn`` and the longest intact
prefix applies (the crash-consistency contract).  A complete frame whose
CRC fails also counts one ``crc_failures``.

Payloads start with a type byte:

* ``UPSERT`` — a keyspace's full table entry.  The body ends with a *bloom
  annex* after the SIDX section: the serialized per-block bloom filters of
  the PIDX sketch and of every SIDX sketch.
* ``DELETE`` — drop a keyspace by name.
* ``EPOCH`` / ``COMMIT`` — checkpoint stream sealing.  A checkpoint writes
  ``EPOCH(n) | snapshot upserts | COMMIT(n)`` into the *standby* metadata
  zone, then switches; mount picks the sealed stream with the highest
  epoch, so a crash anywhere inside a checkpoint falls back to the
  previous, still-sealed stream.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.keyspace import Keyspace, KeyspaceState
from repro.core.klog import MAX_KEY_BYTES
from repro.core.pidx import PidxSketch
from repro.core.sidx import SidxConfig, SidxSketch
from repro.core.zone_manager import ZoneCluster
from repro.errors import DbError, KeyTooLargeError
from repro.lsm.bloom import BloomFilter

if TYPE_CHECKING:  # pragma: no cover
    from repro.ssd.zns import ZnsSsd

__all__ = [
    "META_V2",
    "MAGIC",
    "UPSERT",
    "DELETE",
    "EPOCH",
    "COMMIT",
    "MetaCodec",
    "MetaStream",
    "choose_stream",
]

META_V2 = 2
MAGIC = b"KM"

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_PTR = struct.Struct("<IQI")
_FRAME = struct.Struct("<2sBII")  # magic, version, payload_len, crc32
_NO_SKETCH = 0xFFFFFFFF  # block count of a keyspace without a PIDX sketch

UPSERT = 1
DELETE = 2
EPOCH = 3
COMMIT = 4


# ------------------------------------------------------------------ packers
def _pack_bytes(blob: bytes) -> bytes:
    return _U16.pack(len(blob)) + blob


def _unpack_bytes(blob: bytes, pos: int) -> tuple[bytes, int]:
    (length,) = _U16.unpack_from(blob, pos)
    pos += _U16.size
    return blob[pos : pos + length], pos + length


def _pack_opt_bytes(blob: Optional[bytes]) -> bytes:
    if blob is None:
        return _U16.pack(0xFFFF)
    if len(blob) > MAX_KEY_BYTES:
        raise KeyTooLargeError(len(blob), MAX_KEY_BYTES)
    return _pack_bytes(blob)


def _unpack_opt_bytes(blob: bytes, pos: int) -> tuple[Optional[bytes], int]:
    (length,) = _U16.unpack_from(blob, pos)
    if length == 0xFFFF:
        return None, pos + _U16.size
    return _unpack_bytes(blob, pos)


def _pack_cluster(cluster: ZoneCluster) -> bytes:
    parts = [_U16.pack(len(cluster.zone_ids))]
    for zone_id in cluster.zone_ids:
        parts.append(_U32.pack(zone_id))
    parts.append(_U16.pack(cluster.rotation))
    parts.append(_U16.pack(cluster._next % max(1, len(cluster.zone_ids))))
    return b"".join(parts)


def _unpack_cluster(
    blob: bytes, pos: int, ssd: "ZnsSsd"
) -> tuple[ZoneCluster, int]:
    (n,) = _U16.unpack_from(blob, pos)
    pos += _U16.size
    zone_ids = []
    for _ in range(n):
        (zone_id,) = _U32.unpack_from(blob, pos)
        pos += _U32.size
        zone_ids.append(zone_id)
    (rotation,) = _U16.unpack_from(blob, pos)
    pos += _U16.size
    (nxt,) = _U16.unpack_from(blob, pos)
    pos += _U16.size
    cluster = ZoneCluster(ssd, zone_ids, rotation)
    cluster._next = nxt
    return cluster, pos


def _pack_clusters(clusters: list[ZoneCluster]) -> bytes:
    return _U16.pack(len(clusters)) + b"".join(_pack_cluster(c) for c in clusters)


def _unpack_clusters(blob: bytes, pos: int, ssd) -> tuple[list[ZoneCluster], int]:
    (n,) = _U16.unpack_from(blob, pos)
    pos += _U16.size
    out = []
    for _ in range(n):
        cluster, pos = _unpack_cluster(blob, pos, ssd)
        out.append(cluster)
    return out, pos


def _pack_blocks(sketch: PidxSketch | SidxSketch) -> bytes:
    """A sketch's block list: ``u32 n | (pivot, pointer) * n``."""
    parts = [_U32.pack(len(sketch))]
    for pivot, pointer in zip(sketch.pivots, sketch.block_pointers):
        parts.append(_pack_bytes(pivot))
        parts.append(_PTR.pack(*pointer))
    return b"".join(parts)


def _unpack_blocks(blob: bytes, pos: int, sketch: PidxSketch | SidxSketch):
    """Add a packed block list to the empty ``sketch``; returns (sketch, pos)."""
    (n,) = _U32.unpack_from(blob, pos)
    pos += _U32.size
    for _ in range(n):
        pivot, pos = _unpack_bytes(blob, pos)
        pointer = _PTR.unpack_from(blob, pos)
        pos += _PTR.size
        sketch.add_block(pivot, tuple(pointer))
    return sketch, pos


def _pack_pidx_sketch(sketch: Optional[PidxSketch]) -> bytes:
    return _U32.pack(_NO_SKETCH) if sketch is None else _pack_blocks(sketch)


def _unpack_pidx_sketch(blob: bytes, pos: int) -> tuple[Optional[PidxSketch], int]:
    if _U32.unpack_from(blob, pos)[0] == _NO_SKETCH:
        return None, pos + _U32.size
    return _unpack_blocks(blob, pos, PidxSketch())


def _pack_sidx(ks: Keyspace) -> bytes:
    parts = [_U16.pack(len(ks.sidx))]
    for name, (config, sketch) in sorted(ks.sidx.items()):
        parts.append(_pack_bytes(name.encode()))
        parts.append(
            struct.pack("<IHH", config.value_offset, config.width, len(config.dtype))
        )
        parts.append(config.dtype.encode())
        parts.append(_pack_blocks(sketch))
        parts.append(_pack_clusters(ks.sidx_clusters.get(name, [])))
    return b"".join(parts)


def _unpack_sidx(blob: bytes, pos: int, ks: Keyspace, ssd) -> int:
    (n,) = _U16.unpack_from(blob, pos)
    pos += _U16.size
    for _ in range(n):
        name_b, pos = _unpack_bytes(blob, pos)
        value_offset, width, dtype_len = struct.unpack_from("<IHH", blob, pos)
        pos += 8
        dtype = blob[pos : pos + dtype_len].decode()
        pos += dtype_len
        config = SidxConfig(
            name=name_b.decode(), value_offset=value_offset, width=width, dtype=dtype
        )
        sketch, pos = _unpack_blocks(blob, pos, SidxSketch(skey_width=width))
        clusters, pos = _unpack_clusters(blob, pos, ssd)
        ks.sidx[config.name] = (config, sketch)
        ks.sidx_clusters[config.name] = clusters
    return pos


# ------------------------------------------------------------------ bloom annex
def _pack_bloom_set(blooms: dict[int, BloomFilter]) -> bytes:
    parts = [_U32.pack(len(blooms))]
    for idx in sorted(blooms):
        blob = blooms[idx].to_bytes()
        parts.append(_U32.pack(idx))
        parts.append(_U32.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def _unpack_bloom_set(blob: bytes, pos: int, sketch) -> int:
    """Attach a serialized bloom set to ``sketch``; returns the new pos."""
    (n,) = _U32.unpack_from(blob, pos)
    pos += _U32.size
    for _ in range(n):
        (idx,) = _U32.unpack_from(blob, pos)
        pos += _U32.size
        (length,) = _U32.unpack_from(blob, pos)
        pos += _U32.size
        bloom = BloomFilter.from_bytes(blob[pos : pos + length])
        pos += length
        if sketch is not None:
            sketch.attach_bloom(idx, bloom)
    return pos


def _pack_bloom_annex(ks: Keyspace) -> bytes:
    """The upsert tail: every persisted per-block bloom filter."""
    pidx_blooms = ks.pidx_sketch.blooms if ks.pidx_sketch is not None else {}
    parts = [_pack_bloom_set(pidx_blooms)]
    parts.append(_U16.pack(len(ks.sidx)))
    for name, (_config, sketch) in sorted(ks.sidx.items()):
        parts.append(_pack_bytes(name.encode()))
        parts.append(_pack_bloom_set(sketch.blooms))
    return b"".join(parts)


def _unpack_bloom_annex(blob: bytes, pos: int, ks: Keyspace) -> int:
    """Attach annex blooms to the keyspace's sketches; returns the new pos."""
    pos = _unpack_bloom_set(blob, pos, ks.pidx_sketch)
    (n,) = _U16.unpack_from(blob, pos)
    pos += _U16.size
    for _ in range(n):
        name_b, pos = _unpack_bytes(blob, pos)
        entry = ks.sidx.get(name_b.decode())
        sketch = entry[1] if entry is not None else None
        pos = _unpack_bloom_set(blob, pos, sketch)
    return pos


# ------------------------------------------------------------------ payloads
def _upsert_payload(ks: Keyspace, last_seq: int) -> bytes:
    return b"".join([
        bytes([UPSERT]),
        _pack_bytes(ks.name.encode()),
        _pack_bytes(ks.state.value.encode()),
        struct.pack("<QQ", ks.n_pairs, last_seq),
        _pack_opt_bytes(ks.min_key),
        _pack_opt_bytes(ks.max_key),
        _pack_clusters(ks.klog_clusters),
        _pack_clusters(ks.vlog_clusters),
        _pack_clusters(ks.pidx_clusters),
        _pack_clusters(ks.sorted_value_clusters),
        _pack_pidx_sketch(ks.pidx_sketch),
        _pack_sidx(ks),
        _pack_bloom_annex(ks),
    ])


def _decode_upsert(payload: bytes, ssd: "ZnsSsd") -> tuple[Keyspace, int]:
    """Decode an upsert payload (past the type byte) -> (ks, last_seq)."""
    pos = 1
    name_b, pos = _unpack_bytes(payload, pos)
    state_b, pos = _unpack_bytes(payload, pos)
    n_pairs, last_seq = struct.unpack_from("<QQ", payload, pos)
    pos += 16
    min_key, pos = _unpack_opt_bytes(payload, pos)
    max_key, pos = _unpack_opt_bytes(payload, pos)
    ks = Keyspace(
        name=name_b.decode(),
        state=KeyspaceState(state_b.decode()),
        n_pairs=n_pairs,
        min_key=min_key,
        max_key=max_key,
    )
    ks.klog_clusters, pos = _unpack_clusters(payload, pos, ssd)
    ks.vlog_clusters, pos = _unpack_clusters(payload, pos, ssd)
    ks.pidx_clusters, pos = _unpack_clusters(payload, pos, ssd)
    ks.sorted_value_clusters, pos = _unpack_clusters(payload, pos, ssd)
    ks.pidx_sketch, pos = _unpack_pidx_sketch(payload, pos)
    pos = _unpack_sidx(payload, pos, ks, ssd)
    pos = _unpack_bloom_annex(payload, pos, ks)
    if pos != len(payload):
        raise DbError("corrupt metadata record")
    return ks, last_seq


# ------------------------------------------------------------------ streams
@dataclass
class MetaStream:
    """One parsed metadata zone stream (the result of replay).

    ``table`` maps keyspace name to ``(Keyspace, last_seq)`` after applying
    every intact record in order; ``torn`` means replay stopped early at a
    damaged or half-written frame (the crash-consistent outcome, not an
    error).  Upserted keyspaces carry their annex blooms on their sketches.
    """

    table: dict[str, tuple[Keyspace, int]] = field(default_factory=dict)
    epoch: int = 0
    has_commit: bool = False
    records: int = 0
    torn: bool = False
    crc_failures: int = 0
    blob_len: int = 0

    @property
    def sealed(self) -> bool:
        """Whether mount may trust this stream as a complete checkpoint.

        A stream is sealed by its COMMIT record; the epoch-0 stream (the
        zone a fresh device appends to, never a checkpoint target) is
        sealed by convention — it is only ever extended, never rewritten.
        """
        return self.has_commit or self.epoch == 0

    def introspect(self) -> dict:
        return {
            "epoch": self.epoch,
            "sealed": self.sealed,
            "records": self.records,
            "torn": self.torn,
            "crc_failures": self.crc_failures,
            "blob_len": self.blob_len,
            "keyspaces": sorted(self.table),
        }


def choose_stream(streams: list[MetaStream]) -> MetaStream:
    """Pick the authoritative stream: sealed beats torn-checkpoint targets,
    then highest epoch, then most records."""
    if not streams:
        return MetaStream()
    return max(streams, key=lambda s: (s.sealed, s.epoch, s.records))


# ------------------------------------------------------------------ codec
class MetaCodec:
    """Encoder/decoder of the metadata record stream."""

    # -- encode ---------------------------------------------------------------
    @staticmethod
    def _frame(payload: bytes) -> bytes:
        return _FRAME.pack(MAGIC, META_V2, len(payload), zlib.crc32(payload)) + payload

    def encode_upsert(self, ks: Keyspace, last_seq: int) -> bytes:
        """Serialize one keyspace's full table entry, blooms included."""
        return self._frame(_upsert_payload(ks, last_seq))

    def encode_delete(self, name: str) -> bytes:
        return self._frame(bytes([DELETE]) + _pack_bytes(name.encode()))

    def encode_epoch(self, epoch: int) -> bytes:
        """Checkpoint stream header."""
        return self._frame(bytes([EPOCH]) + _U64.pack(epoch))

    def encode_commit(self, epoch: int) -> bytes:
        """Checkpoint seal: the stream is complete through here."""
        return self._frame(bytes([COMMIT]) + _U64.pack(epoch))

    # -- decode ---------------------------------------------------------------
    def parse_stream(self, blob: bytes, ssd: "ZnsSsd") -> MetaStream:
        """Replay one metadata zone's bytes into a :class:`MetaStream`.

        Applies the longest intact prefix of frames; the first short,
        garbled or checksum-failing frame marks the stream ``torn`` and ends
        replay — exactly the torn-tail semantics a power cut demands.  Later
        records supersede earlier ones; deletes drop the entry.
        """
        stream = MetaStream(blob_len=len(blob))
        pos = 0
        while pos < len(blob):
            if pos + _FRAME.size > len(blob):
                stream.torn = True
                break
            magic, version, length, crc = _FRAME.unpack_from(blob, pos)
            start = pos + _FRAME.size
            end = start + length
            if magic != MAGIC or version != META_V2 or not length or end > len(blob):
                stream.torn = True
                break
            payload = blob[start:end]
            if zlib.crc32(payload) != crc:
                stream.crc_failures += 1
                stream.torn = True
                break
            try:
                self._apply(payload, stream, ssd)
            except Exception:
                # Intact but undecodable: corruption the CRC cannot see.
                stream.torn = True
                break
            pos = end
            stream.records += 1
        return stream

    def _apply(self, payload: bytes, stream: MetaStream, ssd: "ZnsSsd") -> None:
        record_type = payload[0]
        if record_type == UPSERT:
            ks, last_seq = _decode_upsert(payload, ssd)
            stream.table[ks.name] = (ks, last_seq)
        elif record_type == DELETE:
            name_b, end = _unpack_bytes(payload, 1)
            if end != len(payload):
                raise DbError("corrupt metadata record")
            stream.table.pop(name_b.decode(), None)
        elif record_type == EPOCH:
            (stream.epoch,) = _U64.unpack_from(payload, 1)
        elif record_type == COMMIT:
            (epoch,) = _U64.unpack_from(payload, 1)
            if epoch == stream.epoch:
                stream.has_commit = True
        else:
            raise DbError(f"unknown metadata record type {record_type}")
