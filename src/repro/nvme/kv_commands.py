"""NVMe Key-Value command set, plus KV-CSD's vendor extensions.

The paper (Section III, "NVMe") notes KV-CSD speaks the standard NVMe KV
command set between client and device, extended with commands "not currently
in the standard such as compaction and secondary index operations".  These
dataclasses are that wire vocabulary; the KV-CSD device firmware
(:mod:`repro.core.device`) implements their semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# -- keyspace lifecycle --------------------------------------------------------
@dataclass(frozen=True)
class CreateKeyspaceCmd(KvCommand):
    name: str


@dataclass(frozen=True)
class DeleteKeyspaceCmd(KvCommand):
    name: str


@dataclass(frozen=True)
class OpenKeyspaceCmd(KvCommand):
    """Open for writing; transitions EMPTY -> WRITABLE on first open."""

    name: str


@dataclass(frozen=True)
class ListKeyspacesCmd(KvCommand):
    pass


@dataclass(frozen=True)
class KeyspaceStatCmd(KvCommand):
    """Fetch keyspace state and metadata (pair count, key bounds)."""

    name: str


# -- data path -------------------------------------------------------------------
@dataclass(frozen=True)
class KvBulkPutCmd(KvCommand):
    """Store many pairs in one message (the paper's 128 KB bulk PUT)."""

    keyspace: str
    keys: tuple[bytes, ...]
    values: tuple[bytes, ...]
    #: serialized message size on the wire, set by the client packer
    message_bytes: int = 0


@dataclass(frozen=True)
class KvGetCmd(KvCommand):
    """Primary-index point query (COMPACTED keyspaces only)."""

    keyspace: str
    key: bytes


@dataclass(frozen=True)
class KvMultiGetCmd(KvCommand):
    """Fetch many keys in one message; block reads are shared device-side."""

    keyspace: str
    keys: tuple[bytes, ...]


@dataclass(frozen=True)
class KvDeleteCmd(KvCommand):
    keyspace: str
    key: bytes


@dataclass(frozen=True)
class KvBulkDeleteCmd(KvCommand):
    """Delete many keys in one message (tombstones resolved by compaction)."""

    keyspace: str
    keys: tuple[bytes, ...]


@dataclass(frozen=True)
class KvExistCmd(KvCommand):
    keyspace: str
    key: bytes


@dataclass(frozen=True)
class KvFsyncCmd(KvCommand):
    """Force a keyspace's buffered writes to its zones (durability point)."""

    keyspace: str


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


@dataclass(frozen=True)
class WaitCompactionCmd(KvCommand):
    """Block until a keyspace's compaction (and index builds) finish."""

    keyspace: str


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


@dataclass(frozen=True)
class RangeQueryCmd(KvCommand):
    """Primary-index range query over [lo, hi)."""

    keyspace: str
    lo: bytes
    hi: bytes


@dataclass(frozen=True)
class SidxPointQueryCmd(KvCommand):
    """Secondary-index point query; returns matching full records."""

    keyspace: str
    index_name: str
    skey: bytes


@dataclass(frozen=True)
class SidxRangeQueryCmd(KvCommand):
    """Secondary-index range query over [lo, hi); returns full records."""

    keyspace: str
    index_name: str
    lo: bytes
    hi: bytes
