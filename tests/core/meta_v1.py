"""Reference encoder of metadata format v1, which firmware no longer writes.

A v1 record is ``u32 record_len | payload`` — no magic, no checksum — and
an upsert payload carries no bloom annex.  Mount still reads v1 (older
firmware wrote it), so tests build v1 streams with this encoder, written
from the format description rather than from ``repro.core.meta``'s
packers.  Clusters are assumed fresh: their next stripe is their rotation.
"""

import struct

U16 = struct.Struct("<H")
U32 = struct.Struct("<I")
PTR = struct.Struct("<IQI")
UPSERT = 1
DELETE = 2


def _bytes(blob: bytes) -> bytes:
    return U16.pack(len(blob)) + blob


def _optional(blob) -> bytes:
    return U16.pack(0xFFFF) if blob is None else _bytes(blob)


def _clusters(clusters) -> bytes:
    out = [U16.pack(len(clusters))]
    for cluster in clusters:
        out.append(U16.pack(len(cluster.zone_ids)))
        out += [U32.pack(zone_id) for zone_id in cluster.zone_ids]
        out += [U16.pack(cluster.rotation), U16.pack(cluster.rotation)]
    return b"".join(out)


def _blocks(sketch) -> bytes:
    out = [U32.pack(len(sketch.pivots))]
    for pivot, pointer in zip(sketch.pivots, sketch.block_pointers):
        out += [_bytes(pivot), PTR.pack(*pointer)]
    return b"".join(out)


def _sidx(ks) -> bytes:
    out = [U16.pack(len(ks.sidx))]
    for name, (config, sketch) in sorted(ks.sidx.items()):
        out += [
            _bytes(name.encode()),
            struct.pack("<IHH", config.value_offset, config.width, len(config.dtype)),
            config.dtype.encode(),
            _blocks(sketch),
            _clusters(ks.sidx_clusters.get(name, [])),
        ]
    return b"".join(out)


def _record(payload: bytes) -> bytes:
    return U32.pack(len(payload)) + payload


def encode_upsert(ks, last_seq: int) -> bytes:
    pidx = U32.pack(0xFFFFFFFF) if ks.pidx_sketch is None else _blocks(ks.pidx_sketch)
    return _record(
        b"".join(
            [
                bytes([UPSERT]),
                _bytes(ks.name.encode()),
                _bytes(ks.state.value.encode()),
                struct.pack("<QQ", ks.n_pairs, last_seq),
                _optional(ks.min_key),
                _optional(ks.max_key),
                _clusters(ks.klog_clusters),
                _clusters(ks.vlog_clusters),
                _clusters(ks.pidx_clusters),
                _clusters(ks.sorted_value_clusters),
                pidx,
                _sidx(ks),
            ]
        )
    )


def encode_delete(name: str) -> bytes:
    return _record(bytes([DELETE]) + _bytes(name.encode()))
