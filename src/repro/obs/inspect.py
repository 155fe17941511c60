"""Device introspection: versioned full-state snapshots.

Every stateful component exposes an ``introspect()`` dict (keyspaces,
sketches, membufs, zone manager, ZNS zone table, SoC DRAM budget, block
cache, fault plan);  :func:`device_snapshot` aggregates them
into one JSON-ready document stamped with :data:`SNAPSHOT_SCHEMA_VERSION`
and the virtual clock.  :func:`format_snapshot` renders the same document
as a human-readable tree for ``repro inspect``.

Snapshots are pure state reads — no simulation events, no device time — so
taking one mid-run cannot perturb the workload being observed.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.device import KvCsdDevice

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "device_snapshot",
    "snapshot_json",
    "format_snapshot",
]

#: Bump when a key is renamed/removed or its meaning changes; adding new
#: keys is backward-compatible and does not require a bump.
SNAPSHOT_SCHEMA_VERSION = 3


def device_snapshot(device: "KvCsdDevice") -> dict[str, Any]:
    """One full-device snapshot: firmware state + journal accounting.

    The top-level keys are stable under :data:`SNAPSHOT_SCHEMA_VERSION`:
    ``schema_version``, ``time``, ``device`` (the component tree from
    :meth:`KvCsdDevice.introspect`) and ``journal`` (the installed
    journal's :meth:`summary`, or ``None``).
    """
    journal = device.env.journal
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "time": device.env.now,
        "device": device.introspect(),
        "journal": journal.summary() if journal is not None else None,
    }


def snapshot_json(device: "KvCsdDevice", indent: int = 2) -> str:
    """The snapshot serialised as deterministic JSON."""
    return json.dumps(device_snapshot(device), indent=indent, sort_keys=True)


def _render(value: Any, label: str, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(value, dict):
        if not value:
            lines.append(f"{pad}{label}: {{}}")
            return
        lines.append(f"{pad}{label}:")
        for key, child in value.items():
            _render(child, str(key), lines, depth + 1)
    elif isinstance(value, list):
        if not value:
            lines.append(f"{pad}{label}: []")
            return
        if all(not isinstance(item, (dict, list)) for item in value):
            lines.append(f"{pad}{label}: {value}")
            return
        lines.append(f"{pad}{label}:")
        for idx, item in enumerate(value):
            _render(item, f"[{idx}]", lines, depth + 1)
    else:
        lines.append(f"{pad}{label}: {value}")


def format_snapshot(snapshot: dict[str, Any]) -> str:
    """Render a snapshot as an indented tree, one field per line.

    Stable against schema-compatible additions: unknown keys render like
    any other, so the formatter never needs to track the schema.
    """
    lines = [
        f"kv-csd snapshot (schema v{snapshot['schema_version']}, "
        f"t={snapshot['time']:.6f}s)"
    ]
    for key, value in snapshot["device"].items():
        _render(value, str(key), lines, 1)
    _render(snapshot.get("journal"), "journal", lines, 1)
    return "\n".join(lines) + "\n"
