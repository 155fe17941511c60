"""Structured event journal: a bounded ring of typed lifecycle events.

Where span tracing (:mod:`repro.obs.trace`) records *how long* things took,
the journal records *what happened to device state*: keyspace lifecycle
transitions, zone-cluster allocation and release, membuf flushes, compaction
phase boundaries, index-sketch builds, block-cache invalidations, metadata
checkpoints and injected media faults.  Every event is stamped from the
simulation's virtual clock and, when a tracer is installed, correlated to
the span that was current when the event fired — so a journal line can be
joined back to the exact command or background job in the trace timeline.

The journal follows the same zero-cost contract as tracing:
``Environment.probe`` defaults to ``None`` and every emission site goes
through :func:`journal_event` (or ``probe.event`` where the site already
holds the probe), which is a single attribute check when disabled.
Recording creates **no simulation events** either way, so journaled runs
are byte-identical to bare runs.

The event ring is bounded (``capacity`` events); once full, the oldest
events are dropped and counted, which keeps long soak runs at a fixed
memory footprint while the tail — what the invariant auditor attaches to
violations — stays fresh.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

__all__ = [
    "EVENT_TYPES",
    "JournalEvent",
    "EventJournal",
    "install_journal",
    "journal_event",
]

#: The closed event taxonomy.  Emission of an unknown type raises — an event
#: name typo should fail loudly in tests, not silently fork the vocabulary.
EVENT_TYPES = frozenset(
    {
        # keyspace lifecycle (the paper's 4-state machine)
        "keyspace.create",
        "keyspace.open",
        "keyspace.compaction_begin",
        "keyspace.compaction_end",
        "keyspace.delete",
        "keyspace.recover",
        # zone management
        "cluster.allocate",
        "cluster.release",
        "cluster.reserve",
        # write path
        "membuf.flush",
        "metadata.checkpoint",
        # offloaded jobs
        "compact.phase_begin",
        "compact.phase_end",
        "sidx.build_begin",
        "sidx.build_end",
        "sketch.build",
        # query offload
        "query.admit",
        "query.dispatch",
        # host I/O path (KV queue pair submission/reap)
        "sq.post",
        "cq.reap",
        # caching / faults / auditing
        "cache.invalidate",
        "fault.trip",
        "audit.run",
        # durability: power loss + staged mount pipeline
        "power.cut",
        "mount.stage_begin",
        "mount.stage_end",
        "zone.orphan_reclaim",
        "sketch.reload",
        # SLO watchdog (timeline alert transitions)
        "slo.alert_fire",
        "slo.alert_clear",
        # cluster router: ring changes + online keyspace migration
        "ring.change_begin",
        "ring.change_end",
        "migrate.slice_begin",
        "migrate.slice_end",
        "migrate.cutover",
    }
)


@dataclass(frozen=True)
class JournalEvent:
    """One recorded lifecycle event."""

    seq: int  #: monotonically increasing, never reused (survives ring drops)
    time: float  #: virtual-clock timestamp
    type: str  #: member of :data:`EVENT_TYPES`
    span_id: Optional[int]  #: current tracer span at emission, if any
    fields: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "seq": self.seq,
            "time": self.time,
            "type": self.type,
        }
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.fields:
            out["fields"] = self.fields
        return out


class EventJournal:
    """Bounded ring of lifecycle events and its query/export surface.

    The probe is the ring's only writer (:meth:`repro.obs.probe.Probe.event`
    appends ``(seq, time, type, span_id, fields)`` rows and keeps the
    counters); :class:`JournalEvent` objects are built when events are read.
    """

    def __init__(self, env: "Environment", capacity: int = 4096):
        if capacity < 1:
            raise SimulationError("journal capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.ring: deque[tuple] = deque(maxlen=capacity)
        self.total_recorded = 0
        self.dropped = 0
        #: optional observer called with every recorded event *after* it is
        #: appended.  Crash harnesses hook :meth:`FaultPlan.observe_event`
        #: here to cut power at an exact journal sequence number; the hook
        #: may raise to abort the simulation at that point.
        self.on_record = None

    @property
    def events(self) -> list[JournalEvent]:
        """The retained events, oldest first."""
        return [JournalEvent(*row) for row in self.ring]

    def __len__(self) -> int:
        return len(self.ring)

    def record(self, type_: str, **fields: Any) -> JournalEvent:
        """Append one event, stamping virtual time and the current span."""
        self.env.probe.event(type_, fields)
        return JournalEvent(*self.ring[-1])

    # -- queries -------------------------------------------------------------
    def tail(self, n: int = 16) -> list[JournalEvent]:
        """The most recent ``n`` events, oldest first."""
        if n <= 0:
            return []
        return [JournalEvent(*row) for row in list(self.ring)[-n:]]

    def of_type(self, type_: str) -> list[JournalEvent]:
        """All retained events of one type, in order."""
        return [JournalEvent(*row) for row in self.ring if row[2] == type_]

    # -- export --------------------------------------------------------------
    def as_dicts(self) -> list[dict[str, Any]]:
        return [e.as_dict() for e in self.events]

    def to_jsonl(self) -> str:
        """One JSON object per line, oldest first (trailing newline)."""
        lines = [json.dumps(e, sort_keys=True) for e in self.as_dicts()]
        return "\n".join(lines) + ("\n" if lines else "")

    def summary(self) -> dict[str, Any]:
        """Counts per event type plus ring accounting, for snapshots."""
        by_type: dict[str, int] = {}
        for row in self.ring:
            by_type[row[2]] = by_type.get(row[2], 0) + 1
        return {
            "capacity": self.capacity,
            "retained": len(self),
            "total_recorded": self.total_recorded,
            "dropped": self.dropped,
            "by_type": dict(sorted(by_type.items())),
        }


def install_journal(env: "Environment", capacity: int = 4096) -> EventJournal:
    """Start journalling on ``env`` into a fresh :class:`EventJournal`."""
    from repro.obs.probe import get_probe  # probe imports this module

    journal = get_probe(env).journal = EventJournal(env, capacity)
    return journal


def journal_event(env: "Environment", type_: str, **fields: Any) -> None:
    """Record one event when a journal is installed; no-op (one attribute
    check) otherwise.  Mirrors :func:`repro.obs.trace.trace_span`'s contract:
    emission sites cost nothing in the default, probe-off configuration."""
    probe = env.probe
    if probe is not None:
        probe.event(type_, fields)
