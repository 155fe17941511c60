"""NVMe substrate: command sets, queue pairs, controllers, the host link."""

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
from repro.nvme.controller import NvmeController
from repro.nvme.queues import CommandTicket, KvQueuePair, QueuePair
from repro.nvme.transport import Link, PcieLink

__all__ = [
    "CommandTicket",
    "KvQueuePair",
    "NvmeCommand",
    "Completion",
    "ReadCmd",
    "WriteCmd",
    "TrimCmd",
    "ZoneAppendCmd",
    "ZoneReadCmd",
    "ZoneResetCmd",
    "ZoneFinishCmd",
    "NvmeController",
    "QueuePair",
    "Link",
    "PcieLink",
]
