"""NVMe Key-Value command set, plus KV-CSD's vendor extensions.

The paper (Section III, "NVMe") notes KV-CSD speaks the standard NVMe KV
command set between client and device, extended with commands "not currently
in the standard such as compaction and secondary index operations".  These
dataclasses are that wire vocabulary; the KV-CSD device firmware
(:mod:`repro.core.device`) implements their semantics.

Each command sizes itself on the wire: :meth:`KvCommand.payload_bytes` is
the capsule payload beyond the fixed 64-byte frame (names, keys, framing —
values travel only in bulk-PUT messages) and :meth:`KvCommand.result_bytes`
the result sent back.  GET results are the bare value; batched and range
results carry keys + values plus the frame; everything else returns a bare
CQE-sized acknowledgement.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from repro.nvme.commands import NvmeCommand

__all__ = [
    "COMMAND_WIRE_BYTES",
    "KvCommand",
    "CreateKeyspaceCmd",
    "DeleteKeyspaceCmd",
    "OpenKeyspaceCmd",
    "KvBulkPutCmd",
    "KvGetCmd",
    "KvMultiGetCmd",
    "KvDeleteCmd",
    "KvBulkDeleteCmd",
    "KvExistCmd",
    "KvFsyncCmd",
    "CompactCmd",
    "WaitCompactionCmd",
    "BuildSidxCmd",
    "RangeQueryCmd",
    "SidxPointQueryCmd",
    "SidxRangeQueryCmd",
    "ListKeyspacesCmd",
    "KeyspaceStatCmd",
]

#: Small fixed wire size of a command capsule without payload.
COMMAND_WIRE_BYTES = 64


@dataclass(frozen=True)
class KvCommand(NvmeCommand):
    """Base class for key-value commands; all carry a target keyspace."""

    def payload_bytes(self) -> int:
        """Wire payload of the command capsule, beyond the fixed frame."""
        return 0

    def result_bytes(self, value: object) -> int:
        """Wire size of the command's result (``value``, from the device)."""
        return COMMAND_WIRE_BYTES


def _rows_bytes(rows) -> int:
    """A (key, value) row result plus the frame."""
    return sum(len(k) + len(v) for k, v in rows) + COMMAND_WIRE_BYTES


# -- keyspace lifecycle --------------------------------------------------------
@dataclass(frozen=True)
class _NamedCmd(KvCommand):
    """A lifecycle command addressed by keyspace name (its whole payload)."""

    name: str

    def payload_bytes(self) -> int:
        return len(self.name)


@dataclass(frozen=True)
class CreateKeyspaceCmd(_NamedCmd):
    """Create an EMPTY keyspace."""


@dataclass(frozen=True)
class DeleteKeyspaceCmd(_NamedCmd):
    """Delete a keyspace and reclaim its zones."""


@dataclass(frozen=True)
class OpenKeyspaceCmd(_NamedCmd):
    """Open for writing; transitions EMPTY -> WRITABLE on first open."""


@dataclass(frozen=True)
class ListKeyspacesCmd(KvCommand):
    def result_bytes(self, value: object) -> int:
        return sum(len(n) for n in value) + 16


@dataclass(frozen=True)
class KeyspaceStatCmd(_NamedCmd):
    """Fetch keyspace state and metadata (pair count, key bounds)."""


# -- data path -------------------------------------------------------------------
@dataclass(frozen=True)
class KvBulkPutCmd(KvCommand):
    """Store many pairs in one message (the paper's 128 KB bulk PUT)."""

    keyspace: str
    keys: tuple[bytes, ...]
    values: tuple[bytes, ...]
    #: serialized message size on the wire, set by :meth:`of`
    message_bytes: int = 0

    @classmethod
    def of(
        cls, keyspace: str, pairs: Sequence[tuple[bytes, bytes]]
    ) -> "KvBulkPutCmd":
        """One bulk-PUT message carrying ``pairs``, its wire size set."""
        keys = tuple(map(itemgetter(0), pairs))
        values = tuple(map(itemgetter(1), pairs))
        return cls(keyspace, keys, values, _message_bytes(keys, values))

    def payload_bytes(self) -> int:
        return self.message_bytes or _message_bytes(self.keys, self.values)


def _message_bytes(keys: Sequence[bytes], values: Sequence[bytes]) -> int:
    """Serialized bulk-PUT size: a 4-byte pair count, then 6 framing bytes
    per pair (``== 4 + sum(pair_wire_size(k, v))``)."""
    return 4 + 6 * len(keys) + sum(map(len, keys)) + sum(map(len, values))


@dataclass(frozen=True)
class KvGetCmd(KvCommand):
    """Primary-index point query (COMPACTED keyspaces only)."""

    keyspace: str
    key: bytes

    def payload_bytes(self) -> int:
        return len(self.key)

    def result_bytes(self, value: object) -> int:
        return len(value)


@dataclass(frozen=True)
class KvMultiGetCmd(KvCommand):
    """Fetch many keys in one message; block reads are shared device-side."""

    keyspace: str
    keys: tuple[bytes, ...]

    def payload_bytes(self) -> int:
        return sum(len(k) + 2 for k in self.keys)

    def result_bytes(self, value: object) -> int:
        return _rows_bytes(value.items())


@dataclass(frozen=True)
class KvDeleteCmd(KvCommand):
    keyspace: str
    key: bytes

    def payload_bytes(self) -> int:
        return len(self.key) + 2


@dataclass(frozen=True)
class KvBulkDeleteCmd(KvCommand):
    """Delete many keys in one message (tombstones resolved by compaction)."""

    keyspace: str
    keys: tuple[bytes, ...]

    def payload_bytes(self) -> int:
        return sum(len(k) + 2 for k in self.keys)


@dataclass(frozen=True)
class KvExistCmd(KvCommand):
    keyspace: str
    key: bytes

    def payload_bytes(self) -> int:
        return len(self.key)


@dataclass(frozen=True)
class KvFsyncCmd(KvCommand):
    """Force a keyspace's buffered writes to its zones (durability point)."""

    keyspace: str

    def payload_bytes(self) -> int:
        return len(self.keyspace)


# -- offloaded operations (KV-CSD extensions) --------------------------------------
@dataclass(frozen=True)
class CompactCmd(KvCommand):
    """Kick off asynchronous device-side compaction of a keyspace.

    ``sidx`` optionally requests single-pass secondary-index construction
    during the compaction; each entry is ``(name, value_offset, width,
    dtype)``, the wire shape of one :class:`~repro.core.sidx.SidxConfig`.
    """

    keyspace: str
    sidx: tuple[tuple[str, int, int, str], ...] = ()

    def payload_bytes(self) -> int:
        return len(self.keyspace) + 24 * len(self.sidx)


@dataclass(frozen=True)
class WaitCompactionCmd(KvCommand):
    """Block until a keyspace's compaction (and index builds) finish."""

    keyspace: str

    def payload_bytes(self) -> int:
        return len(self.keyspace)


@dataclass(frozen=True)
class BuildSidxCmd(KvCommand):
    """Build a secondary index over ``value[offset:offset+width]``.

    ``dtype`` names how the extracted bytes are interpreted for ordering
    ("u32", "i64", "f32", "f64", "bytes").
    """

    keyspace: str
    index_name: str
    value_offset: int
    width: int
    dtype: str = "bytes"

    def payload_bytes(self) -> int:
        return len(self.keyspace) + len(self.index_name) + 16


@dataclass(frozen=True)
class RangeQueryCmd(KvCommand):
    """Primary-index range query over [lo, hi)."""

    keyspace: str
    lo: bytes
    hi: bytes

    def payload_bytes(self) -> int:
        return len(self.lo) + len(self.hi)

    def result_bytes(self, value: object) -> int:
        return _rows_bytes(value)


@dataclass(frozen=True)
class SidxPointQueryCmd(KvCommand):
    """Secondary-index point query; returns matching full records."""

    keyspace: str
    index_name: str
    skey: bytes

    def payload_bytes(self) -> int:
        return len(self.skey) + len(self.index_name)

    def result_bytes(self, value: object) -> int:
        return _rows_bytes(value)


@dataclass(frozen=True)
class SidxRangeQueryCmd(KvCommand):
    """Secondary-index range query over [lo, hi); returns full records."""

    keyspace: str
    index_name: str
    lo: bytes
    hi: bytes

    def payload_bytes(self) -> int:
        return len(self.lo) + len(self.hi) + len(self.index_name)

    def result_bytes(self, value: object) -> int:
        return _rows_bytes(value)
