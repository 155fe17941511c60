"""The per-keyspace device write buffer.

Section V: "Inserted data is first buffered at KV-CSD's SoC DRAM.  When the
DRAM buffer is full (192KB for the current prototype), it is then flushed to
the SSD zone clusters that are mapped to the keyspace."
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import DbError
from repro.units import KiB

__all__ = ["MemBuffer", "MEMBUF_BYTES", "MIN_MEMBUF_BYTES"]

#: The prototype's per-keyspace DRAM buffer size.
MEMBUF_BYTES = 192 * KiB
#: Smallest buffer a keyspace may be given.
MIN_MEMBUF_BYTES = 1 * KiB


class MemBuffer:
    """Accumulates pairs, as key/value/seq columns, until the flush threshold."""

    def __init__(self, capacity: int = MEMBUF_BYTES):
        if capacity < MIN_MEMBUF_BYTES:
            raise DbError("membuf too small")
        self.capacity = capacity
        #: parallel columns.  A pair's seq is the keyspace-wide insertion
        #: sequence, assigned when the pair *enters* the buffer so recency is
        #: preserved against tombstones written directly to the KLOG meanwhile.
        self._keys: list[bytes] = []
        self._values: list[bytes] = []
        self._seqs: list[int] = []
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def bytes_buffered(self) -> int:
        return self._bytes

    @property
    def should_flush(self) -> bool:
        return self._bytes >= self.capacity

    def extend(
        self, keys: Sequence[bytes], values: Sequence[bytes], first_seq: int
    ) -> None:
        """Append one message's columns, with seqs ``first_seq, first_seq+1, ...``."""
        self._keys += keys
        self._values += values
        self._seqs += range(first_seq, first_seq + len(keys))
        self._bytes += sum(map(len, keys)) + sum(map(len, values))

    def drain(self) -> tuple[list[bytes], list[bytes], list[int]]:
        """Remove and return the buffered ``(keys, values, seqs)`` columns."""
        columns = self._keys, self._values, self._seqs
        self._keys, self._values, self._seqs = [], [], []
        self._bytes = 0
        return columns

    def introspect(self) -> dict:
        """Buffer occupancy for device snapshots (no simulation events)."""
        return {
            "capacity_bytes": self.capacity,
            "bytes_buffered": self._bytes,
            "n_pairs": len(self._keys),
            "should_flush": self.should_flush,
        }

    def get(self, key: bytes) -> bytes | None:
        """Lookup inside the buffer (newest write wins)."""
        keys = self._keys
        for i in range(len(keys) - 1, -1, -1):
            if keys[i] == key:
                return self._values[i]
        return None
