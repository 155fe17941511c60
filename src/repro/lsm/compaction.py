"""Compaction execution: merge input tables into new output tables.

One compaction reads every entry of its input tables as stored bytes,
merges them (newest wins, tombstones dropped only at the bottom level), and
writes the result, values unchanged, into new tables capped at
``target_file_bytes``.  All CPU is charged to the executing thread context
(a background worker for auto compaction, or whatever context the caller
supplies for the deferred single pass), and all I/O flows through the
filesystem — so compaction contends with foreground work for both cores
and device channels, which is precisely the interference the paper
measures.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Callable

from repro.host.filesystem import Filesystem
from repro.host.threads import ThreadCtx
from repro.lsm.iterator import count_merge_comparisons, merge_entries
from repro.lsm.options import DbOptions
from repro.lsm.sstable import TOMBSTONE, TableBuilder, TableMeta, TableReader, split_runs
from repro.lsm.version import CompactionTask

__all__ = ["CompactionExecutor", "CompactionResult"]


class CompactionResult:
    """Outputs and traffic accounting of one finished compaction."""

    def __init__(self, outputs: list[TableMeta], entries_in: int, entries_out: int):
        self.outputs = outputs
        self.entries_in = entries_in
        self.entries_out = entries_out


class CompactionExecutor:
    """Stateless helper bound to one DB's filesystem and options."""

    def __init__(
        self,
        fs: Filesystem,
        options: DbOptions,
        reader_for: Callable[[TableMeta], TableReader],
        next_table_id: Callable[[], int],
        table_path: Callable[[int], str],
    ):
        self.fs = fs
        self.options = options
        self._reader_for = reader_for
        self._next_table_id = next_table_id
        self._table_path = table_path

    def run(self, task: CompactionTask, ctx: ThreadCtx) -> Generator:
        """Execute ``task``; returns a :class:`CompactionResult`.

        The caller installs the outputs into the version set and deletes the
        input files.
        """
        merged, entries_in = yield from self._merge_inputs(task, ctx)
        # An output table closes at the first entry that takes it to
        # target_file_bytes, counting each entry's key, stored value and 8.
        outputs: list[TableMeta] = []
        sizes = [len(key) + len(stored) + 8 for key, stored in merged]
        for start, stop in split_runs(sizes, self.options.target_file_bytes):
            table_id = self._next_table_id()
            builder = TableBuilder(
                self.fs,
                self._table_path(table_id),
                table_id,
                self.options,
                expected_keys=len(merged),
            )
            outputs.append((yield from builder.build(merged[start:stop], ctx)))
        return CompactionResult(
            outputs=outputs, entries_in=entries_in, entries_out=len(merged)
        )

    def _merge_inputs(self, task: CompactionTask, ctx: ThreadCtx) -> Generator:
        """Read every input entry as stored and merge them newest-wins;
        returns ``(merged, entries_in)``."""
        streams = []
        # task.inputs are newest-first (L0 order); next-level inputs are older.
        for meta in task.all_inputs:
            streams.append((yield from self._reader_for(meta).all_entries(ctx)))
        entries_in = sum(map(len, streams))
        merged = merge_entries(
            streams, drop_tombstones=task.to_bottom, tombstone=TOMBSTONE
        )
        comparisons = count_merge_comparisons(entries_in, len(streams))
        yield from ctx.execute(self.options.costs.key_compare * comparisons)
        return merged, entries_in
