"""NVMe controller: binds a command vocabulary to an SSD model.

The controller executes block commands against a :class:`ConventionalSsd`
and ZNS commands against a :class:`ZnsSsd`, charging a fixed firmware
processing overhead per command on top of the media time the SSD model
accrues.  Storage-level exceptions become error completions, as a real
controller posts error CQEs instead of crashing.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Union

from repro.errors import StorageError
from repro.nvme.commands import (
    Completion,
    NvmeCommand,
    ReadCmd,
    TrimCmd,
    WriteCmd,
    ZoneAppendCmd,
    ZoneFinishCmd,
    ZoneReadCmd,
    ZoneResetCmd,
)
from repro.obs.trace import trace_span
from repro.sim.core import Environment
from repro.ssd.conventional import ConventionalSsd
from repro.ssd.zns import ZnsSsd
from repro.units import usec

__all__ = ["NvmeController"]

#: Firmware time to parse/route one command and post its completion.
DEFAULT_FIRMWARE_OVERHEAD = usec(2)


class NvmeController:
    """Command execution engine for one SSD."""

    def __init__(
        self,
        env: Environment,
        ssd: Union[ZnsSsd, ConventionalSsd],
        firmware_overhead: float = DEFAULT_FIRMWARE_OVERHEAD,
    ):
        self.env = env
        self.ssd = ssd
        self.firmware_overhead = firmware_overhead
        self.commands_executed = 0
        #: commands currently inside :meth:`execute` — with async queue
        #: pairs many run concurrently, bounded by the pair's depth
        self.inflight = 0
        self.max_inflight = 0

    def execute(self, command: NvmeCommand, ctx: object = None) -> Generator:
        """Run one command to completion; returns a :class:`Completion`.

        Re-entrant: an async queue pair spawns one execution process per
        posted command, so up to queue-depth invocations overlap here.
        ``ctx`` (the queue pair's execution context) is unused: controller
        firmware time is not billed to a host or SoC core.
        """
        self.inflight += 1
        self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            with trace_span(self.env, "nvme.firmware", "firmware"):
                yield self.env.timeout(self.firmware_overhead)
            self.commands_executed += 1
            try:
                value = yield from self._dispatch(command)
            except StorageError as exc:
                return Completion(status=type(exc).__name__, value=str(exc), error=exc)
            return Completion(status="OK", value=value)
        finally:
            self.inflight -= 1

    def _dispatch(self, command: NvmeCommand) -> Generator:
        ssd = self.ssd
        if isinstance(command, ReadCmd):
            if isinstance(ssd, ConventionalSsd):
                return (yield from ssd.read(command.offset, command.length))
            raise StorageError("block read on a ZNS namespace")
        if isinstance(command, WriteCmd):
            if isinstance(ssd, ConventionalSsd):
                return (yield from ssd.write(command.offset, command.data))
            raise StorageError("block write on a ZNS namespace")
        if isinstance(command, TrimCmd):
            if isinstance(ssd, ConventionalSsd):
                return (yield from ssd.trim(command.offset, command.length))
            raise StorageError("trim on a ZNS namespace")
        if isinstance(command, ZoneAppendCmd):
            if isinstance(ssd, ZnsSsd):
                return (yield from ssd.append(command.zone_id, command.data))
            raise StorageError("zone append on a conventional namespace")
        if isinstance(command, ZoneReadCmd):
            if isinstance(ssd, ZnsSsd):
                return (
                    yield from ssd.read(command.zone_id, command.offset, command.length)
                )
            raise StorageError("zone read on a conventional namespace")
        if isinstance(command, ZoneResetCmd):
            if isinstance(ssd, ZnsSsd):
                return (yield from ssd.reset_zone(command.zone_id))
            raise StorageError("zone reset on a conventional namespace")
        if isinstance(command, ZoneFinishCmd):
            if isinstance(ssd, ZnsSsd):
                return (yield from ssd.finish_zone(command.zone_id))
            raise StorageError("zone finish on a conventional namespace")
        raise StorageError(f"unsupported command {type(command).__name__}")
