"""The per-keyspace device write buffer.

Section V: "Inserted data is first buffered at KV-CSD's SoC DRAM.  When the
DRAM buffer is full (192KB for the current prototype), it is then flushed to
the SSD zone clusters that are mapped to the keyspace."
"""

from __future__ import annotations

from repro.errors import DbError
from repro.units import KiB

__all__ = ["MemBuffer", "MEMBUF_BYTES", "MIN_MEMBUF_BYTES"]

#: The prototype's per-keyspace DRAM buffer size.
MEMBUF_BYTES = 192 * KiB
#: Smallest buffer a keyspace may be given.
MIN_MEMBUF_BYTES = 1 * KiB


class MemBuffer:
    """Accumulates pairs until the flush threshold."""

    def __init__(self, capacity: int = MEMBUF_BYTES):
        if capacity < MIN_MEMBUF_BYTES:
            raise DbError("membuf too small")
        self.capacity = capacity
        #: (key, value, seq) — seq is the keyspace-wide insertion sequence,
        #: assigned when the pair *enters* the buffer so recency is preserved
        #: against tombstones written directly to the KLOG meanwhile.
        self._pairs: list[tuple[bytes, bytes, int]] = []
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def bytes_buffered(self) -> int:
        return self._bytes

    @property
    def should_flush(self) -> bool:
        return self._bytes >= self.capacity

    def add(self, key: bytes, value: bytes, seq: int = 0) -> None:
        self._pairs.append((key, value, seq))
        self._bytes += len(key) + len(value)

    def add_many(self, pairs: list[tuple[bytes, bytes]], first_seq: int) -> None:
        """Append pairs with consecutive seqs ``first_seq, first_seq+1, ...``."""
        self._pairs.extend(
            (key, value, first_seq + i) for i, (key, value) in enumerate(pairs)
        )
        self._bytes += sum(len(key) + len(value) for key, value in pairs)

    def drain(self) -> list[tuple[bytes, bytes, int]]:
        """Remove and return all buffered (key, value, seq) triples."""
        pairs, self._pairs = self._pairs, []
        self._bytes = 0
        return pairs

    def introspect(self) -> dict:
        """Buffer occupancy for device snapshots (no simulation events)."""
        return {
            "capacity_bytes": self.capacity,
            "bytes_buffered": self._bytes,
            "n_pairs": len(self._pairs),
            "should_flush": self.should_flush,
        }

    def get(self, key: bytes) -> bytes | None:
        """Lookup inside the buffer (newest write wins)."""
        for k, v, _seq in reversed(self._pairs):
            if k == key:
                return v
        return None
