"""Value-log layout: stripe groups and the gather that reorders them.

Values travel to flash in *stripe groups* of at most one stripe unit: the
membuf flush packs the values of one flush into VLOG groups, and compaction
gathers the live values in key order and repacks them into SORTED_VALUES
groups the same way.  Both sides hold the values as one concatenated buffer
plus a length column, so a group is a byte range of that buffer and a
value's place is ``(group index, offset in group)`` — two integer columns
that turn into KLOG / PIDX pointer fields by arithmetic on the pointers the
group appends return.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.zone_manager import ZonePointer
from repro.errors import DbError
from repro.units import KiB

__all__ = ["FLUSH_GROUP_BYTES", "gather_values", "pointer_columns", "stripe_groups"]

#: Zone-append group size for VLOG/KLOG/PIDX/SIDX flushes: one stripe unit.
FLUSH_GROUP_BYTES = 48 * KiB

#: Below this many values the gather slices each one out of its zone: the
#: windowed fancy-index costs ~80 us up front (joining the zone contents,
#: building the window) and ~0.03 us a value, the slice loop ~0.3 us a value
#: with nothing up front, and the two meet near 300 values.  The loop also
#: serves mixed value lengths, which have no fixed window.
_VECTOR_MIN_VALUES = 256


def stripe_groups(
    blob: bytes, lengths: np.ndarray
) -> tuple[list[bytes], np.ndarray, np.ndarray]:
    """Cut concatenated values into stripe groups.

    Greedy packing: a group closes before the value that would push it past
    :data:`FLUSH_GROUP_BYTES` (a larger value gets a group to itself).
    Returns ``(groups, group_index, offset_in_group)`` with one index and
    offset per value.
    """
    n = len(lengths)
    width = int(lengths[0]) if n else 0
    if width and bool((lengths == width).all()):
        # Uniform values (the common case): the greedy packing puts a fixed
        # count in every group, so grouping collapses to slicing.
        per = max(1, FLUSH_GROUP_BYTES // width)
        index = np.arange(n)
        step = per * width
        groups = [blob[i : i + step] for i in range(0, len(blob), step)]
        return groups, index // per, (index % per) * width
    starts = [0]
    group_index = []
    offsets = []
    held = used = 0
    for length in lengths.tolist():
        if held and used + length > FLUSH_GROUP_BYTES:
            starts.append(starts[-1] + used)
            held = used = 0
        group_index.append(len(starts) - 1)
        offsets.append(used)
        held += 1
        used += length
    groups = [blob[a:b] for a, b in zip(starts, starts[1:] + [len(blob)])] if n else []
    return groups, np.array(group_index, dtype=np.int64), np.array(offsets, dtype=np.int64)


def pointer_columns(pointers: list[ZonePointer]) -> tuple[np.ndarray, np.ndarray]:
    """``(zone, offset)`` columns of the pointers group appends returned."""
    fields = np.array(pointers, dtype=np.int64).reshape(-1, 3)
    return fields[:, 0], fields[:, 1]


def gather_values(
    zone_blobs: dict[int, bytes], zone: np.ndarray, off: np.ndarray, vlen: np.ndarray
) -> bytes:
    """The values the pointer columns name, concatenated in column order.

    Equal-length values come out of one fancy-index over a sliding window on
    the concatenated zone contents.
    """
    n = len(zone)
    width = int(vlen[0]) if n else 0
    if n < _VECTOR_MIN_VALUES or not width or not bool((vlen == width).all()):
        return b"".join(
            [
                zone_blobs[z][o : o + length]
                for z, o, length in zip(zone.tolist(), off.tolist(), vlen.tolist())
            ]
        )
    top = max(max(zone_blobs, default=0), int(zone.max())) + 1
    sizes = np.zeros(top, dtype=np.int64)
    sizes[list(zone_blobs)] = [len(blob) for blob in zone_blobs.values()]
    starts = np.cumsum(sizes) - sizes
    off = off.astype(np.int64)
    if bool((off + width > sizes[zone]).any()):
        raise DbError("KLOG value pointer reaches past its VLOG zone's contents")
    buf = np.frombuffer(
        b"".join(zone_blobs[z] for z in sorted(zone_blobs)), dtype=np.uint8
    )
    return sliding_window_view(buf, width)[starts[zone] + off].tobytes()
