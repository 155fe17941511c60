"""Wall-clock self-profiling: cProfile aggregated per subsystem.

The simulator's *virtual* time is deterministic, but its *wall-clock* cost
is what bounds experiment scale (ROADMAP item 5).  This module wraps
``cProfile`` around any workload callable and folds the flat per-function
stats into per-subsystem rows — ``sim`` (the event kernel), ``core``
(device logic), ``nvme``, ``ssd``, ``host``, ``soc``, ``obs``,
``workloads``, ``bench`` — so "where do the cycles go" has a first-class
answer before any fast-path work starts.

Only the standard library is used; there is no dependency on the sampling
timeline (which measures *virtual*-time behavior, not interpreter cost).
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any, Callable, Optional

__all__ = [
    "profile_call",
    "subsystem_rows",
    "format_profile",
]


def profile_call(fn: Callable[..., Any], *args: Any, **kwargs: Any):
    """Run ``fn(*args, **kwargs)`` under cProfile.

    Returns ``(result, stats)`` where ``stats`` is a ``pstats.Stats``.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    return result, pstats.Stats(profiler)


def _subsystem_of(filename: str) -> str:
    """Map a stats filename to its repro subsystem (or interpreter bucket)."""
    if not filename or filename.startswith("<"):
        return "interpreter"
    normalized = filename.replace("\\", "/")
    marker = "/repro/"
    idx = normalized.rfind(marker)
    if idx < 0:
        return "stdlib/other"
    rest = normalized[idx + len(marker):]
    if "/" in rest:
        return rest.split("/", 1)[0]
    return "repro (top-level)"


def subsystem_rows(stats: pstats.Stats) -> list[dict[str, Any]]:
    """Fold flat cProfile stats into per-subsystem totals.

    Each row: ``subsystem``, ``calls`` (primitive call count), and
    ``tottime`` (exclusive seconds — time in the subsystem's own frames, so
    rows sum to the run's total interpreter time without double counting).
    Sorted by ``tottime`` descending.
    """
    groups: dict[str, dict[str, Any]] = {}
    for (filename, _lineno, _name), entry in stats.stats.items():  # type: ignore[attr-defined]
        _cc, ncalls, tottime, _cumtime, _callers = entry
        subsystem = _subsystem_of(filename)
        row = groups.setdefault(
            subsystem, {"subsystem": subsystem, "calls": 0, "tottime": 0.0}
        )
        row["calls"] += ncalls
        row["tottime"] += tottime
    return sorted(groups.values(), key=lambda r: -r["tottime"])


def format_profile(
    rows: list[dict[str, Any]], total: Optional[float] = None
) -> str:
    """Fixed-width table of :func:`subsystem_rows` output."""
    if total is None:
        total = sum(r["tottime"] for r in rows) or 1.0
    headers = ["subsystem", "calls", "tottime_s", "share"]
    table = [headers]
    for row in rows:
        table.append(
            [
                row["subsystem"],
                str(row["calls"]),
                f"{row['tottime']:.4f}",
                f"{row['tottime'] / total * 100:5.1f}%",
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append(
            "  ".join(
                cell.ljust(w) if j == 0 else cell.rjust(w)
                for j, (cell, w) in enumerate(zip(row, widths))
            )
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
