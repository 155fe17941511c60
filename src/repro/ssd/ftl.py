"""Page-mapping flash translation layer (bookkeeping only, no timing).

This is the structural half of the conventional (non-ZNS) SSD: logical pages
map to physical NAND pages; overwrites invalidate the old physical page;
greedy garbage collection relocates the valid pages of the fullest-of-invalid
block and erases it.  The timing half lives in
:mod:`repro.ssd.conventional`, which charges channel time for the traffic
this class reports.

Pages are allocated round-robin across channels (page-level striping), the
standard controller technique that lets one large sequential write use every
channel — the conventional-SSD counterpart of KV-CSD's zone clusters.

All bookkeeping uses numpy arrays so that multi-hundred-thousand-page
devices stay cheap to simulate (per the HPC guides: vectorise the hot
loops).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OutOfSpaceError, StorageError

__all__ = ["Ftl", "GcWork", "PageAllocation"]

#: l2p / p2l sentinel for "unmapped".
UNMAPPED = -1


@dataclass(frozen=True)
class PageAllocation:
    """Result of allocating physical pages: ppn and channel per page."""

    ppns: np.ndarray  # int64[n]
    channels: np.ndarray  # int64[n]


@dataclass(frozen=True)
class GcWork:
    """Traffic generated by one garbage-collection pass.

    ``moved_pages`` physical page copies (each is a NAND read + program on
    ``channel``) followed by ``erased_blocks`` block erases.
    """

    channel: int
    moved_pages: int
    erased_blocks: int


class Ftl:
    """Greedy page-mapped FTL.

    Parameters
    ----------
    n_logical_pages:
        Pages exposed to the host.
    n_blocks:
        Physical erase blocks; ``n_blocks * pages_per_block`` must exceed
        ``n_logical_pages`` (over-provisioning) or GC could deadlock.
    pages_per_block:
        NAND pages per erase block.
    n_channels:
        Channels across which blocks and page allocation stripe.
    gc_reserve_blocks:
        Per-channel low-watermark of free blocks that triggers GC.
    """

    def __init__(
        self,
        n_logical_pages: int,
        n_blocks: int,
        pages_per_block: int,
        n_channels: int,
        gc_reserve_blocks: int = 2,
    ):
        if n_blocks % n_channels != 0:
            raise StorageError("n_blocks must divide evenly across channels")
        n_phys_pages = n_blocks * pages_per_block
        min_phys = n_logical_pages + 2 * gc_reserve_blocks * pages_per_block * n_channels
        if n_phys_pages < min_phys:
            raise StorageError(
                f"insufficient over-provisioning: {n_phys_pages} physical pages "
                f"for {n_logical_pages} logical (need >= {min_phys})"
            )
        self.n_logical_pages = n_logical_pages
        self.n_blocks = n_blocks
        self.pages_per_block = pages_per_block
        self.n_channels = n_channels
        self.gc_reserve_blocks = gc_reserve_blocks

        self.l2p = np.full(n_logical_pages, UNMAPPED, dtype=np.int64)
        self.p2l = np.full(n_phys_pages, UNMAPPED, dtype=np.int64)
        self.valid_count = np.zeros(n_blocks, dtype=np.int64)
        #: next unwritten page index within each block, == pages_per_block when sealed
        self.write_offset = np.zeros(n_blocks, dtype=np.int64)

        # Blocks stripe across channels: block b belongs to channel b % n_channels.
        self._free_blocks: list[list[int]] = [[] for _ in range(n_channels)]
        for b in range(n_blocks):
            self._free_blocks[b % n_channels].append(b)
        self._active_block: list[int] = [
            self._free_blocks[c].pop(0) for c in range(n_channels)
        ]
        self._next_channel = 0
        #: lifetime counters
        self.total_writes = 0
        self.total_gc_moves = 0
        self.total_erases = 0

    # -- inspection ------------------------------------------------------------
    def mapped_pages(self) -> int:
        return int(np.count_nonzero(self.l2p != UNMAPPED))

    # -- allocation --------------------------------------------------------------
    def _take_page(self, channel: int) -> int:
        """Allocate one physical page on ``channel``, rotating active blocks."""
        block = self._active_block[channel]
        if self.write_offset[block] == self.pages_per_block:
            if not self._free_blocks[channel]:
                raise OutOfSpaceError(f"channel {channel} has no free blocks")
            block = self._free_blocks[channel].pop(0)
            self._active_block[channel] = block
        ppn = block * self.pages_per_block + int(self.write_offset[block])
        self.write_offset[block] += 1
        return ppn

    def gc_needed(self, channel: int) -> bool:
        """True when ``channel`` is at or below its free-block reserve."""
        return len(self._free_blocks[channel]) <= self.gc_reserve_blocks

    def collect(self, channel: int) -> GcWork:
        """Greedy-GC one block on ``channel``; returns the traffic incurred.

        Picks the sealed block with the fewest valid pages, relocates those
        pages within the channel, erases the block and returns it to the free
        list.
        """
        candidates = [
            b
            for b in range(channel, self.n_blocks, self.n_channels)
            if b != self._active_block[channel]
            and self.write_offset[b] == self.pages_per_block
        ]
        if not candidates:
            raise OutOfSpaceError(f"channel {channel}: no GC candidates")
        victim = min(candidates, key=lambda b: (int(self.valid_count[b]), b))
        start = victim * self.pages_per_block
        pages = np.arange(start, start + self.pages_per_block)
        valid_lpns = self.p2l[pages]
        movers = valid_lpns[valid_lpns != UNMAPPED]
        for lpn in movers:
            new_ppn = self._take_page(channel)
            self.l2p[lpn] = new_ppn
            self.p2l[new_ppn] = lpn
            self.valid_count[new_ppn // self.pages_per_block] += 1
        self.p2l[pages] = UNMAPPED
        self.valid_count[victim] = 0
        self.write_offset[victim] = 0
        self._free_blocks[channel].append(victim)
        self.total_gc_moves += len(movers)
        self.total_erases += 1
        return GcWork(channel=channel, moved_pages=int(len(movers)), erased_blocks=1)

    def write_pages(self, lpns: np.ndarray) -> tuple[PageAllocation, list[GcWork]]:
        """Map each logical page in ``lpns`` to a fresh physical page.

        Returns the allocation (striped round-robin over channels) and any GC
        work that had to run to make room.  The caller charges channel time
        for both.
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        if lpns.size and (lpns.min() < 0 or lpns.max() >= self.n_logical_pages):
            raise StorageError("logical page out of range")
        gc_events: list[GcWork] = []
        ppns = np.empty(lpns.size, dtype=np.int64)
        channels = np.empty(lpns.size, dtype=np.int64)
        for i, lpn in enumerate(lpns):
            channel = self._next_channel
            self._next_channel = (self._next_channel + 1) % self.n_channels
            while self.gc_needed(channel):
                gc_events.append(self.collect(channel))
            old = self.l2p[lpn]
            if old != UNMAPPED:
                self.p2l[old] = UNMAPPED
                self.valid_count[old // self.pages_per_block] -= 1
            ppn = self._take_page(channel)
            self.l2p[lpn] = ppn
            self.p2l[ppn] = lpn
            self.valid_count[ppn // self.pages_per_block] += 1
            ppns[i] = ppn
            channels[i] = channel
        self.total_writes += int(lpns.size)
        return PageAllocation(ppns=ppns, channels=channels), gc_events

    def read_channels(self, lpns: np.ndarray) -> np.ndarray:
        """Channel of the physical page backing each mapped logical page.

        Unmapped pages read as channel 0 (the device returns zeroes without
        touching NAND, but we still bill a minimal command).
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        ppns = self.l2p[lpns]
        channels = (ppns // self.pages_per_block) % self.n_channels
        channels[ppns == UNMAPPED] = 0
        return channels

    def trim_pages(self, lpns: np.ndarray) -> None:
        """Invalidate logical pages (host discard/TRIM)."""
        lpns = np.asarray(lpns, dtype=np.int64)
        mapped = lpns[self.l2p[lpns] != UNMAPPED]
        ppns = self.l2p[mapped]
        self.p2l[ppns] = UNMAPPED
        blocks, counts = np.unique(ppns // self.pages_per_block, return_counts=True)
        self.valid_count[blocks] -= counts
        self.l2p[mapped] = UNMAPPED
