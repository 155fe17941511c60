"""A single ZNS zone: state machine, write pointer, and byte storage.

Zones follow the NVMe ZNS state model, reduced to the states this library
exercises: ``EMPTY -> OPEN -> FULL`` with ``reset`` returning to ``EMPTY``.
Data is stored for real (a ``bytearray``) so reads round-trip exactly.
"""

from __future__ import annotations

import enum

from repro.errors import InvalidAddressError, ZoneFullError, ZoneStateError

__all__ = ["Zone", "ZoneState"]


class ZoneState(enum.Enum):
    """Lifecycle states of a zone (reduced NVMe ZNS model)."""

    EMPTY = "empty"
    OPEN = "open"
    FULL = "full"


class Zone:
    """One zone of a ZNS SSD.

    Only sequential writes at the write pointer are allowed; reads may touch
    any byte below the write pointer.  ``reset()`` rewinds the pointer and
    discards the data.
    """

    __slots__ = ("zone_id", "capacity", "channel", "state", "_data")

    def __init__(self, zone_id: int, capacity: int, channel: int):
        self.zone_id = zone_id
        self.capacity = capacity
        self.channel = channel
        self.state = ZoneState.EMPTY
        self._data = bytearray()

    @property
    def write_pointer(self) -> int:
        """Next writable byte offset within the zone."""
        return len(self._data)

    @property
    def remaining(self) -> int:
        """Bytes left before the zone is full."""
        return self.capacity - len(self._data)

    def append(self, data: bytes) -> int:
        """Append ``data`` at the write pointer; returns the write offset."""
        if self.state == ZoneState.FULL:
            raise ZoneStateError(f"zone {self.zone_id} is FULL")
        if len(data) > self.remaining:
            raise ZoneFullError(
                f"zone {self.zone_id}: append of {len(data)} bytes exceeds "
                f"remaining {self.remaining}"
            )
        offset = len(self._data)
        if data:  # a zero-length append (an all-empty value group) opens nothing
            self._data.extend(data)
            self.state = ZoneState.FULL if self.remaining == 0 else ZoneState.OPEN
        return offset

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset`` (must be written)."""
        if offset < 0 or length < 0 or offset + length > len(self._data):
            raise InvalidAddressError(
                f"zone {self.zone_id}: read [{offset}, {offset + length}) "
                f"beyond write pointer {len(self._data)}"
            )
        # one copy; the views die with this statement, so no buffer export
        # outlives the call to block a later append
        return memoryview(self._data)[offset : offset + length].tobytes()

    def finish(self) -> None:
        """Explicitly transition the zone to FULL (no more writes)."""
        if self.state == ZoneState.EMPTY:
            raise ZoneStateError(f"cannot finish EMPTY zone {self.zone_id}")
        self.state = ZoneState.FULL

    def reset(self) -> None:
        """Discard all data and rewind the write pointer."""
        self._data = bytearray()
        self.state = ZoneState.EMPTY
