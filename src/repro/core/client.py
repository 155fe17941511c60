"""The KV-CSD host client library — the public application API.

"User applications communicate with KV-CSD through a lightweight client
library that exposes a key-value interface similar to that of a software
key-value store" (Section I).  Every public method builds a declarative
:class:`~repro.nvme.kv_commands.KvCommand` and routes it through the
client's :class:`~repro.nvme.queues.KvQueuePair`: the command capsule is
packed on the calling thread, DMA'd over the PCIe link, and executed by the
:class:`~repro.core.dispatch.KvCommandDispatcher` in its own device-side
process; only commands go down and only results come back up — the
data-movement asymmetry the evaluation leans on.

The queue pair is genuinely asynchronous.  Synchronous methods are
``post()`` + ``wait()`` with one command in flight (virtual-time identical
to the pre-async client); the ``*_async`` variants and :meth:`submit_many`
return/reap :class:`~repro.nvme.queues.CommandTicket` futures so a single
host thread can keep up to ``queue_depth`` commands in flight and actually
see the device's internal parallelism.

Every method is a simulation generator taking the calling thread's
:class:`~repro.host.threads.ThreadCtx`, so client-side packing costs land on
the right host core.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from typing import Sequence

from repro.core.costs import ClientCostModel
from repro.core.device import KvCsdDevice
from repro.core.dispatch import KvCommandDispatcher
from repro.core.sidx import SidxConfig
from repro.core.wire import BULK_MESSAGE_BYTES, split_into_messages
from repro.errors import DbError
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
from repro.nvme.queues import CommandTicket, KvQueuePair
from repro.nvme.transport import Link

__all__ = ["KvCsdClient"]


class KvCsdClient:
    """One application's handle to a KV-CSD device."""

    def __init__(
        self,
        device: KvCsdDevice,
        link: Link,
        costs: ClientCostModel | None = None,
        bulk_message_bytes: int = BULK_MESSAGE_BYTES,
        queue_depth: int = 32,
    ):
        if bulk_message_bytes <= 0:
            raise DbError("message size must be positive")
        self.device = device
        self.link = link
        self.costs = costs or ClientCostModel()
        self.bulk_message_bytes = bulk_message_bytes
        self.env = device.env
        self.dispatcher = KvCommandDispatcher(device)
        self.qp = KvQueuePair(
            self.env,
            self.dispatcher,
            link,
            costs=self.costs,
            depth=queue_depth,
        )
        device.register_host_qp(self.qp)

    # ------------------------------------------------------------------ async API
    def submit_async(
        self,
        command: KvCommand,
        ctx: ThreadCtx,
        op: str | None = None,
        **span_args,
    ) -> Generator:
        """Post one command; returns a :class:`CommandTicket` future.

        Blocks only while the submission queue is at full ``queue_depth``.
        Reap with :meth:`wait` (or drain everything ready via
        ``client.qp.poll()``).
        """
        return (
            yield from self.qp.post(command, ctx, op=op, span_args=span_args or None)
        )

    def wait(self, ticket: CommandTicket, ctx: ThreadCtx) -> Generator:
        """Reap one ticket; returns its :class:`Completion`.

        Re-raises the device's original exception for error completions,
        exactly as the synchronous method would have.
        """
        return (yield from self.qp.wait(ticket, ctx))

    def submit_many(
        self, commands: Iterable[KvCommand], ctx: ThreadCtx
    ) -> Generator:
        """Post a batch, then reap every completion; returns them in order.

        The batched QD>1 driver: all commands are posted back-to-back (the
        queue pair pipelines them up to ``queue_depth``), then reaped.
        Error completions are *returned*, not raised — one failing command
        never poisons the batch; check ``completion.ok`` per entry.
        """
        tickets = []
        for command in commands:
            ticket = yield from self.qp.post(command, ctx)
            tickets.append(ticket)
        completions: list[Completion] = []
        for ticket in tickets:
            completion = yield from self.qp.wait(ticket, ctx, raise_on_error=False)
            completions.append(completion)
        return completions

    def _call(self, command: KvCommand, ctx: ThreadCtx, op: str, **span_args):
        """Synchronous path: ``post()`` + ``wait()``, one command in flight."""
        completion = yield from self.qp.submit(command, ctx, op=op, span_args=span_args)
        return completion.value

    # ------------------------------------------------------------------ keyspaces
    def create_keyspace(self, name: str, ctx: ThreadCtx) -> Generator:
        """Create a new (EMPTY) keyspace on the device."""
        yield from self._call(
            CreateKeyspaceCmd(name=name), ctx, "create_keyspace", keyspace=name
        )

    def open_keyspace(self, name: str, ctx: ThreadCtx) -> Generator:
        """Open a keyspace for insertion (EMPTY -> WRITABLE)."""
        yield from self._call(
            OpenKeyspaceCmd(name=name), ctx, "open_keyspace", keyspace=name
        )

    def delete_keyspace(self, name: str, ctx: ThreadCtx) -> Generator:
        """Delete a keyspace and reclaim its zones."""
        yield from self._call(
            DeleteKeyspaceCmd(name=name), ctx, "delete_keyspace", keyspace=name
        )

    def list_keyspaces(self, ctx: ThreadCtx) -> Generator:
        """Names of all live keyspaces."""
        return (yield from self._call(ListKeyspacesCmd(), ctx, "list_keyspaces"))

    def keyspace_stat(self, name: str, ctx: ThreadCtx) -> Generator:
        """State + metadata of one keyspace."""
        return (
            yield from self._call(
                KeyspaceStatCmd(name=name), ctx, "keyspace_stat", keyspace=name
            )
        )

    # ------------------------------------------------------------------ writes
    def put(self, keyspace: str, key: bytes, value: bytes, ctx: ThreadCtx) -> Generator:
        """Store one pair (a degenerate one-pair bulk message)."""
        yield from self.bulk_put(keyspace, [(key, value)], ctx)

    def put_async(
        self, keyspace: str, key: bytes, value: bytes, ctx: ThreadCtx
    ) -> Generator:
        """Post one PUT; returns a ticket to :meth:`wait` on."""
        return (
            yield from self.submit_async(
                KvBulkPutCmd.of(keyspace, [(key, value)]),
                ctx,
                op="bulk_put",
                keyspace=keyspace,
                pairs=1,
            )
        )

    def _messages(
        self, pairs: Sequence[tuple[bytes, bytes]]
    ) -> list[list[tuple[bytes, bytes]]]:
        """Bulk-PUT messages for ``pairs``; one empty message for none."""
        return split_into_messages(list(pairs), self.bulk_message_bytes) or [[]]

    def bulk_put(
        self,
        keyspace: str,
        pairs: Sequence[tuple[bytes, bytes]],
        ctx: ThreadCtx,
    ) -> Generator:
        """Insert pairs using 128 KB bulk-PUT messages (Section V).

        Pairs are chunked into messages; each message is packed on the host,
        DMA'd to the device, and ingested into the keyspace's write buffer.
        No pairs still send one empty message, so the device checks the
        keyspace exactly as it does for a PUT.
        """
        for message in self._messages(pairs):
            yield from self._call(
                KvBulkPutCmd.of(keyspace, message),
                ctx,
                "bulk_put",
                keyspace=keyspace,
                pairs=len(message),
            )

    def bulk_put_async(
        self,
        keyspace: str,
        pairs: Sequence[tuple[bytes, bytes]],
        ctx: ThreadCtx,
    ) -> Generator:
        """Post every bulk-PUT message without waiting; returns the tickets."""
        tickets = []
        for message in self._messages(pairs):
            ticket = yield from self.submit_async(
                KvBulkPutCmd.of(keyspace, message),
                ctx,
                op="bulk_put",
                keyspace=keyspace,
                pairs=len(message),
            )
            tickets.append(ticket)
        return tickets

    def bulk_delete(
        self, keyspace: str, keys: Sequence[bytes], ctx: ThreadCtx
    ) -> Generator:
        """Delete keys (tombstones resolved by compaction)."""
        yield from self._call(
            KvBulkDeleteCmd(keyspace=keyspace, keys=tuple(keys)),
            ctx,
            "bulk_delete",
            keyspace=keyspace,
            keys=len(keys),
        )

    def fsync(self, keyspace: str, ctx: ThreadCtx) -> Generator:
        """Force buffered writes to the device's zones (durability point)."""
        yield from self._call(
            KvFsyncCmd(keyspace=keyspace), ctx, "fsync", keyspace=keyspace
        )

    # ------------------------------------------------------------------ offloaded ops
    def compact(
        self,
        keyspace: str,
        ctx: ThreadCtx,
        secondary_indexes: Sequence[SidxConfig] = (),
    ) -> Generator:
        """Invoke deferred compaction; returns as soon as the device accepts.

        The device runs the compaction asynchronously — the application can
        exit (the paper's insertion benchmark does exactly that).

        ``secondary_indexes`` requests single-pass index construction: the
        device builds those indexes during the compaction, while values are
        still in SoC DRAM, instead of rescanning the keyspace per index
        (the consolidation Section V anticipates as future work).
        """
        command = CompactCmd(
            keyspace=keyspace,
            sidx=tuple(
                (c.name, c.value_offset, c.width, c.dtype) for c in secondary_indexes
            ),
        )
        yield from self._call(
            command, ctx, "compact", keyspace=keyspace, sidx=len(secondary_indexes)
        )

    def build_secondary_index(
        self,
        keyspace: str,
        index_name: str,
        value_offset: int,
        width: int,
        dtype: str = "bytes",
        ctx: ThreadCtx = None,
    ) -> Generator:
        """Configure + kick off asynchronous secondary-index construction."""
        command = BuildSidxCmd(
            keyspace=keyspace,
            index_name=index_name,
            value_offset=value_offset,
            width=width,
            dtype=dtype,
        )
        yield from self._call(
            command, ctx, "build_sidx", keyspace=keyspace, index=index_name
        )

    def wait_for_device(self, keyspace: str, ctx: ThreadCtx) -> Generator:
        """Block until the keyspace's offloaded jobs (compaction, index
        builds) are complete.  Applications use this before querying."""
        yield from self._call(
            WaitCompactionCmd(keyspace=keyspace),
            ctx,
            "wait_for_device",
            keyspace=keyspace,
        )

    # ------------------------------------------------------------------ queries
    def get(self, keyspace: str, key: bytes, ctx: ThreadCtx) -> Generator:
        """Primary-index point query; raises KeyNotFoundError when absent."""
        return (
            yield from self._call(
                KvGetCmd(keyspace=keyspace, key=key), ctx, "get", keyspace=keyspace
            )
        )

    def get_async(self, keyspace: str, key: bytes, ctx: ThreadCtx) -> Generator:
        """Post one GET; returns a ticket whose completion carries the value."""
        return (
            yield from self.submit_async(
                KvGetCmd(keyspace=keyspace, key=key),
                ctx,
                op="get",
                keyspace=keyspace,
            )
        )

    def multi_get(
        self, keyspace: str, keys: Sequence[bytes], ctx: ThreadCtx
    ) -> Generator:
        """Batched point queries in one command; returns {key: value}.

        The device shares PIDX block reads and coalesces value fetches
        across the batch — many GETs for the price of few media reads.
        Missing keys are absent from the result dict.
        """
        return (
            yield from self._call(
                KvMultiGetCmd(keyspace=keyspace, keys=tuple(keys)),
                ctx,
                "multi_get",
                keyspace=keyspace,
                keys=len(keys),
            )
        )

    def multi_get_async(
        self, keyspace: str, keys: Sequence[bytes], ctx: ThreadCtx
    ) -> Generator:
        """Post one batched GET; returns a ticket."""
        return (
            yield from self.submit_async(
                KvMultiGetCmd(keyspace=keyspace, keys=tuple(keys)),
                ctx,
                op="multi_get",
                keyspace=keyspace,
                keys=len(keys),
            )
        )

    def range_query(
        self, keyspace: str, lo: bytes, hi: bytes, ctx: ThreadCtx
    ) -> Generator:
        """Primary-index range query over [lo, hi); returns (key, value) pairs."""
        return (
            yield from self._call(
                RangeQueryCmd(keyspace=keyspace, lo=lo, hi=hi),
                ctx,
                "range_query",
                keyspace=keyspace,
            )
        )

    def range_query_async(
        self, keyspace: str, lo: bytes, hi: bytes, ctx: ThreadCtx
    ) -> Generator:
        """Post one range query; returns a ticket."""
        return (
            yield from self.submit_async(
                RangeQueryCmd(keyspace=keyspace, lo=lo, hi=hi),
                ctx,
                op="range_query",
                keyspace=keyspace,
            )
        )

    def sidx_range_query(
        self,
        keyspace: str,
        index_name: str,
        lo_raw: bytes,
        hi_raw: bytes,
        ctx: ThreadCtx,
    ) -> Generator:
        """Secondary-index range query; returns full (primary key, value)
        records whose secondary key lies in [lo, hi)."""
        return (
            yield from self._call(
                SidxRangeQueryCmd(
                    keyspace=keyspace, index_name=index_name, lo=lo_raw, hi=hi_raw
                ),
                ctx,
                "sidx_range_query",
                keyspace=keyspace,
                index=index_name,
            )
        )

    def sidx_point_query(
        self, keyspace: str, index_name: str, skey_raw: bytes, ctx: ThreadCtx
    ) -> Generator:
        """All records whose secondary key equals ``skey_raw``."""
        return (
            yield from self._call(
                SidxPointQueryCmd(
                    keyspace=keyspace, index_name=index_name, skey=skey_raw
                ),
                ctx,
                "sidx_point_query",
                keyspace=keyspace,
                index=index_name,
            )
        )
