"""Client-device wire format for bulk PUT messages.

The paper's client packs key-value pairs into 128 KB bulk-PUT messages:
"This 128KB space contains keys, values, and their respective sizes.  For
16B keys and 32B values, each message carries up to 2570 key-value pairs".
That arithmetic fixes the per-pair framing overhead at ~2.8 bytes; we use a
2-byte key length and a 4-byte value length (6 bytes/pair), the nearest
realistic framing, and keep the 128 KB default message budget.
"""

from __future__ import annotations

import struct
from operator import itemgetter

from repro.errors import DbError
from repro.units import KiB

__all__ = [
    "BULK_MESSAGE_BYTES",
    "pair_wire_size",
    "pack_pairs",
    "unpack_pairs",
    "split_into_messages",
]

#: Default bulk-PUT message capacity (the paper's 128 KB).
BULK_MESSAGE_BYTES = 128 * KiB

_KLEN = struct.Struct("<H")
_VLEN = struct.Struct("<I")
_HEADER = struct.Struct("<I")  # number of pairs


def pair_wire_size(key: bytes, value: bytes) -> int:
    """Bytes one pair occupies in a bulk message."""
    return _KLEN.size + len(key) + _VLEN.size + len(value)


def pack_pairs(pairs: list[tuple[bytes, bytes]]) -> bytes:
    """Serialize pairs into one message blob."""
    parts = [_HEADER.pack(len(pairs))]
    for key, value in pairs:
        if len(key) > 0xFFFF:
            raise DbError(f"key too large for wire format: {len(key)} bytes")
        parts.append(_KLEN.pack(len(key)))
        parts.append(key)
        parts.append(_VLEN.pack(len(value)))
        parts.append(value)
    return b"".join(parts)


def unpack_pairs(blob: bytes) -> list[tuple[bytes, bytes]]:
    """Parse a message blob back into pairs."""
    if len(blob) < _HEADER.size:
        raise DbError("truncated bulk message")
    (count,) = _HEADER.unpack_from(blob, 0)
    pos = _HEADER.size
    out: list[tuple[bytes, bytes]] = []
    for _ in range(count):
        (klen,) = _KLEN.unpack_from(blob, pos)
        pos += _KLEN.size
        key = blob[pos : pos + klen]
        pos += klen
        (vlen,) = _VLEN.unpack_from(blob, pos)
        pos += _VLEN.size
        value = blob[pos : pos + vlen]
        pos += vlen
        if len(key) != klen or len(value) != vlen:
            raise DbError("corrupt bulk message")
        out.append((key, value))
    return out


def split_into_messages(
    pairs: list[tuple[bytes, bytes]], message_bytes: int = BULK_MESSAGE_BYTES
) -> list[list[tuple[bytes, bytes]]]:
    """Greedily chunk pairs into messages of at most ``message_bytes``.

    A single pair larger than the budget gets a message of its own (the
    device accepts oversized single-pair messages, like an NVMe transfer
    that spans multiple MDTS-sized chunks).
    """
    if message_bytes <= 0:
        raise DbError("message size must be positive")
    if len(pairs) >= 8:
        klens = set(map(len, map(itemgetter(0), pairs)))
        vlens = set(map(len, map(itemgetter(1), pairs)))
        if len(klens) == len(vlens) == 1:
            (klen,), (vlen,) = klens, vlens
            # Uniform pairs (the YCSB-style norm): every message holds the
            # same pair count, so the greedy scan collapses to slicing.  A
            # pair that alone exceeds the budget still gets its own message.
            need = _KLEN.size + klen + _VLEN.size + vlen
            per = max(1, (message_bytes - _HEADER.size) // need)
            return [pairs[i : i + per] for i in range(0, len(pairs), per)]
    messages: list[list[tuple[bytes, bytes]]] = []
    current: list[tuple[bytes, bytes]] = []
    used = _HEADER.size
    for key, value in pairs:
        need = pair_wire_size(key, value)
        if current and used + need > message_bytes:
            messages.append(current)
            current = []
            used = _HEADER.size
        current.append((key, value))
        used += need
    if current:
        messages.append(current)
    return messages
