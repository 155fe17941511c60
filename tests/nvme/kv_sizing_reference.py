"""Reference wire sizing: the client's isinstance chains before commands
sized themselves, kept verbatim so ``test_kv_commands.py`` can check every
``KvCommand.payload_bytes``/``result_bytes`` against them."""

from repro.core.wire import pair_wire_size
from repro.nvme.kv_commands import (
    COMMAND_WIRE_BYTES,
    BuildSidxCmd,
    CompactCmd,
    CreateKeyspaceCmd,
    DeleteKeyspaceCmd,
    KeyspaceStatCmd,
    KvBulkDeleteCmd,
    KvBulkPutCmd,
    KvCommand,
    KvDeleteCmd,
    KvExistCmd,
    KvFsyncCmd,
    KvGetCmd,
    KvMultiGetCmd,
    ListKeyspacesCmd,
    OpenKeyspaceCmd,
    RangeQueryCmd,
    SidxPointQueryCmd,
    SidxRangeQueryCmd,
    WaitCompactionCmd,
)


def command_payload_bytes(command: KvCommand) -> int:
    """Wire payload of one command capsule, beyond the fixed 64-byte frame.

    This is the host->device half of the wire-accounting contract: command
    capsules carry names/keys/framing, never values (values only travel in
    bulk-PUT messages).
    """
    if isinstance(command, (CreateKeyspaceCmd, OpenKeyspaceCmd, DeleteKeyspaceCmd,
                            KeyspaceStatCmd)):
        return len(command.name)
    if isinstance(command, ListKeyspacesCmd):
        return 0
    if isinstance(command, KvBulkPutCmd):
        return command.message_bytes or (
            4 + sum(pair_wire_size(k, v) for k, v in zip(command.keys, command.values))
        )
    if isinstance(command, KvBulkDeleteCmd):
        return sum(len(k) + 2 for k in command.keys)
    if isinstance(command, KvDeleteCmd):
        return len(command.key) + 2
    if isinstance(command, KvFsyncCmd):
        return len(command.keyspace)
    if isinstance(command, CompactCmd):
        return len(command.keyspace) + 24 * len(command.sidx)
    if isinstance(command, BuildSidxCmd):
        return len(command.keyspace) + len(command.index_name) + 16
    if isinstance(command, WaitCompactionCmd):
        return len(command.keyspace)
    if isinstance(command, (KvGetCmd, KvExistCmd)):
        return len(command.key)
    if isinstance(command, KvMultiGetCmd):
        return sum(len(k) + 2 for k in command.keys)
    if isinstance(command, RangeQueryCmd):
        return len(command.lo) + len(command.hi)
    if isinstance(command, SidxRangeQueryCmd):
        return len(command.lo) + len(command.hi) + len(command.index_name)
    if isinstance(command, SidxPointQueryCmd):
        return len(command.skey) + len(command.index_name)
    return 0


def command_result_bytes(command: KvCommand, value: object) -> int:
    """Wire size of one command's result, the device->host half.

    GET results are the bare value (the 64-byte CQE frame is not modelled
    for the value path, matching the pre-refactor accounting); batched and
    range results carry keys+values plus the frame; everything else returns
    a bare CQE-sized acknowledgement.
    """
    if isinstance(command, KvGetCmd):
        return len(value)
    if isinstance(command, ListKeyspacesCmd):
        return sum(len(n) for n in value) + 16
    if isinstance(command, KvMultiGetCmd):
        return sum(len(k) + len(v) for k, v in value.items()) + COMMAND_WIRE_BYTES
    if isinstance(command, (RangeQueryCmd, SidxRangeQueryCmd, SidxPointQueryCmd)):
        return sum(len(k) + len(v) for k, v in value) + COMMAND_WIRE_BYTES
    return COMMAND_WIRE_BYTES
