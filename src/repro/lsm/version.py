"""Level metadata: which tables live where, and what to compact next.

Implements the leveled layout of LevelDB/RocksDB:

* L0 tables may overlap each other (each is one flushed memtable) and are
  searched newest-first;
* L1+ hold non-overlapping tables in key order, searched by binary search;
* the compaction picker scores L0 by file count and deeper levels by size
  relative to their exponentially growing targets.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from repro.errors import DbError
from repro.lsm.options import DbOptions
from repro.lsm.sstable import TableMeta

__all__ = ["VersionSet", "CompactionTask"]


@dataclass(frozen=True)
class CompactionTask:
    """A unit of compaction work chosen by the picker.

    ``to_bottom`` states that no live data exists below ``output_level``
    (so tombstones may be dropped); the output itself always lands on
    ``output_level`` — ordinary compactions go one level down and merge
    with what is there, which is where leveled write amplification comes
    from.
    """

    level: int  #: source level
    inputs: tuple[TableMeta, ...]  #: tables leaving ``level``
    next_level_inputs: tuple[TableMeta, ...]  #: overlapping tables in level+1
    to_bottom: bool  #: no data lives below output_level (drop tombstones)
    output_level: int = 1  #: where the merged tables land

    @property
    def all_inputs(self) -> tuple[TableMeta, ...]:
        return self.inputs + self.next_level_inputs


class VersionSet:
    """Mutable catalog of the DB's levels."""

    def __init__(self, options: DbOptions):
        self.options = options
        #: L0 newest-first; deeper levels sorted by smallest key
        self.levels: list[list[TableMeta]] = [[] for _ in range(options.max_levels)]
        #: tables currently feeding a running compaction (excluded from picking)
        self._compacting: set[int] = set()

    # -- bookkeeping -------------------------------------------------------------
    def add_l0(self, meta: TableMeta) -> None:
        """Register a flush output, keeping L0 newest-first by ``l0_seq``."""
        self.levels[0].append(meta)
        self.levels[0].sort(key=lambda t: -t.l0_seq)

    def install_compaction(
        self, task: CompactionTask, outputs: list[TableMeta], output_level: int
    ) -> None:
        """Atomically swap a compaction's inputs for its outputs."""
        doomed = {t.table_id for t in task.all_inputs}
        for level in range(len(self.levels)):
            self.levels[level] = [
                t for t in self.levels[level] if t.table_id not in doomed
            ]
        merged = self.levels[output_level] + outputs
        if output_level == 0:
            self.levels[0] = merged
        else:
            self.levels[output_level] = sorted(merged, key=lambda t: t.smallest)
        for t in task.all_inputs:
            self._compacting.discard(t.table_id)

    def release_task(self, task: CompactionTask) -> None:
        """Un-reserve a task's inputs (when a compaction is abandoned)."""
        for t in task.all_inputs:
            self._compacting.discard(t.table_id)

    # -- queries --------------------------------------------------------------------
    def level_bytes(self, level: int) -> int:
        return sum(t.file_bytes for t in self.levels[level])

    def n_tables(self) -> int:
        return sum(len(lvl) for lvl in self.levels)

    def total_entries(self) -> int:
        return sum(t.n_entries for lvl in self.levels for t in lvl)

    def l0_count(self) -> int:
        return len(self.levels[0])

    def tables_for_key(self, key: bytes) -> list[TableMeta]:
        """Tables to probe for a point lookup, newest first."""
        out = [t for t in self.levels[0] if t.contains_key(key)]
        for level in range(1, len(self.levels)):
            tables = self.levels[level]
            if not tables:
                continue
            idx = bisect_left([t.largest for t in tables], key)
            if idx < len(tables) and tables[idx].smallest <= key:
                out.append(tables[idx])
        return out

    def tables_overlapping(self, lo: bytes, hi: bytes) -> list[TableMeta]:
        """Tables intersecting [lo, hi), newest level first."""
        out = [t for t in self.levels[0] if t.overlaps(lo, hi)]
        for level in range(1, len(self.levels)):
            out.extend(t for t in self.levels[level] if t.overlaps(lo, hi))
        return out

    def all_tables(self) -> list[TableMeta]:
        """Every live table, newest first (L0 order, then L1..Ln)."""
        out = list(self.levels[0])
        for level in range(1, len(self.levels)):
            out.extend(self.levels[level])
        return out

    # -- compaction picking ------------------------------------------------------------
    def compaction_score(self, level: int) -> float:
        """Score >= 1.0 means the level needs compaction."""
        if level == 0:
            eligible = [
                t for t in self.levels[0] if t.table_id not in self._compacting
            ]
            return len(eligible) / self.options.l0_compaction_trigger
        target = self.options.level_target_bytes(level)
        size = sum(
            t.file_bytes
            for t in self.levels[level]
            if t.table_id not in self._compacting
        )
        return size / target

    def compaction_needed(self) -> bool:
        """Whether any level currently scores at or above 1.0."""
        return any(
            self.compaction_score(level) >= 1.0
            for level in range(len(self.levels) - 1)
        )

    def pick_compaction(self) -> Optional[CompactionTask]:
        """Choose the highest-score level needing work, or None.

        The chosen inputs are reserved so concurrent workers don't pick the
        same tables.
        """
        best_level = -1
        best_score = 1.0
        for level in range(len(self.levels) - 1):
            score = self.compaction_score(level)
            if score >= best_score:
                best_level, best_score = level, score
        if best_level < 0:
            return None
        if best_level == 0:
            inputs = [
                t for t in self.levels[0] if t.table_id not in self._compacting
            ]
            if not inputs:
                return None
        else:
            candidates = [
                t
                for t in self.levels[best_level]
                if t.table_id not in self._compacting
            ]
            if not candidates:
                return None
            # Rotate through the key space: pick the largest file (greedy,
            # maximises reclaimed score per job).
            inputs = [max(candidates, key=lambda t: (t.file_bytes, t.table_id))]
        lo = min(t.smallest for t in inputs)
        hi = max(t.largest for t in inputs)
        next_level = best_level + 1
        next_inputs = [
            t
            for t in self.levels[next_level]
            if t.smallest <= hi and t.largest >= lo
            and t.table_id not in self._compacting
        ]
        task = CompactionTask(
            level=best_level,
            inputs=tuple(inputs),
            next_level_inputs=tuple(next_inputs),
            to_bottom=self._is_bottom(next_level),
            output_level=next_level,
        )
        for t in task.all_inputs:
            self._compacting.add(t.table_id)
        return task

    def _is_bottom(self, level: int) -> bool:
        """No data lives below ``level``."""
        return all(not self.levels[deeper] for deeper in range(level + 1, len(self.levels)))

    def pick_full_compaction(self) -> Optional[CompactionTask]:
        """One single-pass merge of *everything* into the bottom level.

        This is the paper's "deferred compaction" RocksDB mode: compaction is
        held until after the load and then done in one pass, minimising total
        data movement.
        """
        tables = self.all_tables()
        if not tables:
            return None
        if len(tables) == 1 and self.levels[-1]:
            return None  # already fully compacted
        for t in tables:
            if t.table_id in self._compacting:
                raise DbError("full compaction with other compactions running")
            self._compacting.add(t.table_id)
        l0 = tuple(self.levels[0])
        rest = tuple(t for lvl in self.levels[1:] for t in lvl)
        return CompactionTask(
            level=0,
            inputs=l0,
            next_level_inputs=rest,
            to_bottom=True,
            output_level=len(self.levels) - 1,
        )
