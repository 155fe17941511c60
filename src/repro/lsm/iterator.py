"""Newest-wins merge of entry streams.

Both compaction and range scans need to merge several sources where the
same user key may appear in multiple sources; the entry from the *newest*
source wins, and tombstones either propagate (intermediate compactions,
scans over partial data) or are dropped (bottom-level compaction).
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["merge_entries", "count_merge_comparisons"]

Entry = tuple[bytes, Optional[bytes]]


def merge_entries(
    streams: list[Iterable[Entry]],
    drop_tombstones: bool,
    tombstone: Optional[bytes] = None,
) -> list[Entry]:
    """Merge streams; ``streams[0]`` is newest, last is oldest.

    Keys must be unique within a stream.  Returns a sorted,
    key-deduplicated list.  Values pass through unchanged: decoded ones
    mark a deletion with ``None``, stored ones (compaction input) with
    ``tombstone=b"\\x00"``.  When ``drop_tombstones`` the surviving entry
    is omitted if it is a tombstone (safe only when no older data exists
    below the merge output).
    """
    newest: dict[bytes, Optional[bytes]] = {}
    for stream in reversed(streams):  # oldest first: newer streams overwrite
        newest.update(stream)
    if drop_tombstones:
        return sorted(entry for entry in newest.items() if entry[1] != tombstone)
    return sorted(newest.items())


def count_merge_comparisons(total_entries: int, n_streams: int) -> int:
    """Comparator invocations a heap-based k-way merge performs.

    Used to charge CPU for the merge: ~log2(k) comparisons per entry, what
    RocksDB's merging iterator spends, whichever way this code merges.
    """
    if total_entries <= 0 or n_streams <= 1:
        return total_entries
    k = max(2, n_streams)
    log_k = k.bit_length()
    return total_entries * log_k
