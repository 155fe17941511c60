"""Command-set dispatcher: NVMe-KV commands -> device operations.

The single decode path between the host and the device firmware: every
command the client library posts — and anything an NVMe-oF target or an
alternative client implementation would submit — arrives here as a
declarative :class:`~repro.nvme.kv_commands.KvCommand`, is decoded, and
executed against :class:`~repro.core.device.KvCsdDevice`.  The result is
always an NVMe :class:`~repro.nvme.commands.Completion`; library errors
become error completions (status = the exception's class name, mirroring
NVMe status codes) carrying the original exception so the client's reap
path can re-raise it with full type information.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.core.device import KvCsdDevice
from repro.core.sidx import SidxConfig
from repro.errors import ReproError
from repro.host.threads import ThreadCtx
from repro.nvme.commands import Completion
from repro.nvme.kv_commands import (
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

__all__ = ["KvCommandDispatcher"]


class KvCommandDispatcher:
    """Executes declarative KV commands against one device."""

    def __init__(self, device: KvCsdDevice):
        self.device = device

    def execute(self, command: KvCommand, ctx: ThreadCtx) -> Generator:
        """Run ``command``; returns a :class:`Completion`.

        Library errors become error completions carrying the exception's
        class name as the status, mirroring NVMe status codes.
        """
        try:
            value = yield from self._dispatch(command, ctx)
        except ReproError as exc:
            return Completion(status=type(exc).__name__, value=str(exc), error=exc)
        return Completion(status="OK", value=value)

    def _dispatch(self, command: KvCommand, ctx: ThreadCtx) -> Generator:
        device = self.device
        if isinstance(command, CreateKeyspaceCmd):
            return (yield from device.create_keyspace(command.name, ctx))
        if isinstance(command, OpenKeyspaceCmd):
            return (yield from device.open_keyspace(command.name, ctx))
        if isinstance(command, DeleteKeyspaceCmd):
            return (yield from device.delete_keyspace(command.name, ctx))
        if isinstance(command, ListKeyspacesCmd):
            return device.list_keyspaces()
        if isinstance(command, KeyspaceStatCmd):
            return device.keyspace_stat(command.name)
        if isinstance(command, KvBulkPutCmd):
            return (
                yield from device.bulk_put(
                    command.keyspace, command.keys, command.values,
                    command.payload_bytes(), ctx,
                )
            )
        if isinstance(command, KvDeleteCmd):
            return (
                yield from device.bulk_delete(command.keyspace, [command.key], ctx)
            )
        if isinstance(command, KvBulkDeleteCmd):
            return (
                yield from device.bulk_delete(command.keyspace, list(command.keys), ctx)
            )
        if isinstance(command, KvFsyncCmd):
            return (yield from device.fsync(command.keyspace, ctx))
        if isinstance(command, CompactCmd):
            configs = tuple(
                SidxConfig(name=n, value_offset=o, width=w, dtype=d)
                for (n, o, w, d) in command.sidx
            )
            return (
                yield from device.compact(command.keyspace, ctx, sidx_configs=configs)
            )
        if isinstance(command, WaitCompactionCmd):
            return (yield from device.wait_for_jobs(command.keyspace))
        if isinstance(command, BuildSidxCmd):
            config = SidxConfig(
                name=command.index_name,
                value_offset=command.value_offset,
                width=command.width,
                dtype=command.dtype,
            )
            return (yield from device.build_sidx(command.keyspace, config, ctx))
        if isinstance(command, KvGetCmd):
            return (yield from device.point_query(command.keyspace, command.key, ctx))
        if isinstance(command, KvMultiGetCmd):
            return (
                yield from device.multi_point_query(
                    command.keyspace, list(command.keys), ctx
                )
            )
        if isinstance(command, KvExistCmd):
            from repro.errors import KeyNotFoundError

            try:
                yield from device.point_query(command.keyspace, command.key, ctx)
            except KeyNotFoundError:
                return False
            return True
        if isinstance(command, RangeQueryCmd):
            return (
                yield from device.range_query(
                    command.keyspace, command.lo, command.hi, ctx
                )
            )
        if isinstance(command, SidxPointQueryCmd):
            return (
                yield from device.sidx_point_query(
                    command.keyspace, command.index_name, command.skey, ctx
                )
            )
        if isinstance(command, SidxRangeQueryCmd):
            return (
                yield from device.sidx_range_query(
                    command.keyspace, command.index_name, command.lo, command.hi, ctx
                )
            )
        raise ReproError(f"unsupported KV command {type(command).__name__}")
