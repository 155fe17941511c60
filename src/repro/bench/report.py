"""Result tables and shape checks for the benchmark harness.

We do not expect to match the paper's absolute seconds (our substrate is a
simulator, not LANL's testbed); what must hold is the *shape* — who wins, by
roughly what factor, and where crossovers fall.  ``ShapeCheck`` records each
such criterion with its observed value so the harness output reads like the
paper's evaluation section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = [
    "ResultTable",
    "ShapeCheck",
    "require_ascending",
    "speedup",
    "unobserved",
]


def speedup(baseline_seconds: float, ours_seconds: float) -> float:
    """How many times faster "ours" is than the baseline."""
    if ours_seconds <= 0:
        return float("inf")
    return baseline_seconds / ours_seconds


def unobserved(testbed) -> None:
    """A scenario's default ``observe`` hook: installs nothing."""


def require_ascending(name: str, values: tuple) -> None:
    """Reject a sweep axis that is empty, unsorted or repeats a value.

    Sweeps take their baseline from the first value and their headline
    from the last, so either mistake would only surface after the run.
    """
    if not values or any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(
            f"{name} must be non-empty and strictly ascending, got {values!r}"
        )


@dataclass
class ShapeCheck:
    """One qualitative criterion from the paper and whether we reproduce it."""

    description: str
    passed: bool
    observed: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" ({self.observed})" if self.observed else ""
        return f"[{mark}] {self.description}{extra}"


@dataclass
class ResultTable:
    """A printable result grid, one row per configuration."""

    title: str
    columns: Sequence[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            if value != value:  # NaN: undefined ratio (e.g. no lookups yet)
                return "n/a"
            if value == float("inf"):
                return "inf"
            if abs(value) >= 100:
                return f"{value:.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            if abs(value) >= 1e-4 or value == 0:
                return f"{value:.4f}"
            return f"{value:.3g}"
        return str(value)

    def render(self) -> str:
        cells = [[self._fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(str(col)), *(len(r[i]) for r in cells)) if cells else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def to_dict(self) -> dict:
        """Machine-readable form (for JSON export / plotting scripts).

        NaN cells become 0.0 so the export is always valid strict JSON.
        """
        from repro.sim.stats import nan_to_zero

        def scrub(value: Any) -> Any:
            return nan_to_zero(value) if isinstance(value, float) else value

        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [[scrub(v) for v in row] for row in self.rows],
            "notes": list(self.notes),
        }

    def to_csv(self) -> str:
        """CSV rendering (header + rows; notes as trailing comments)."""
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        for note in self.notes:
            buf.write(f"# {note}\r\n")
        return buf.getvalue()
