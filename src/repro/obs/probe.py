"""The one recorder every instrumentation site talks to.

``Environment.probe`` is ``None`` until an observer is installed, so a site
costs one attribute read when nothing observes.  Once installed, the probe
is the single object behind every observer: it owns the current-span state,
the span records and the blocked-by holder registry, is the only writer of
the journal ring and the edge list, and sites call it directly — no subscriber list is walked per event.
:class:`~repro.obs.trace.Tracer`, :class:`~repro.obs.journal.EventJournal`,
:class:`~repro.obs.critpath.CritPathObserver` and
:class:`~repro.obs.timeline.TimelineRecorder` are the install/query/export
surfaces over it; each ``install_*`` switches its own part on and the parts
stay independent (a journal-only run records no spans, a tracer-only run no
edges).  Recording is pure bookkeeping — no simulation event, no yield — so
the virtual clock is bit-identical with the probe on or off.

Live versus materialised: the *current span* is an attribute of the running
:class:`~repro.sim.core.Process` (nothing is keyed by process, so finished
processes are garbage); a :class:`SpanRecord` lives from ``span_begin`` to
``span_end`` and is all a span allocates with ``retain_spans=False``; with
``retain_spans=True`` each span also appends one row to the span columns,
from which ``tracer.spans`` builds ``Span`` trees when read; journal events
are tuples in the journal's bounded deque until they are read.  DESIGN.md §8 has
the measured costs.
"""

from __future__ import annotations

from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from math import nan
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import SimulationError
from repro.obs.journal import EVENT_TYPES, JournalEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

__all__ = ["BlockedEdge", "Probe", "SpanRecord", "TraceContext", "get_probe"]

#: Holder snapshots are capped so a single edge can't balloon the report.
HOLDER_CAP = 16


class SpanRecord:
    """One live span, and its ``with`` scope (leaving finishes it, stamping
    ``error`` when an exception passes through).

    ``root`` makes the op a span serves one attribute read away; ``token``
    is that op's holder-registry identity, set on root records only.
    """

    __slots__ = ("span_id", "name", "category", "start", "parent", "root",
                 "lane", "args", "token", "_probe")

    def __enter__(self) -> "SpanRecord":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._probe.span_end(self)


#: shared no-op scope standing in for a span when tracing is off (yields None)
NULL_SCOPE = nullcontext()


class TraceContext:
    """A captured current span, for explicit handoff between processes.

    ``yield from`` chains and ``env.process`` spawns propagate the current
    span implicitly.  When work crosses processes through a data structure
    instead (items in a :class:`~repro.sim.sync.BoundedQueue`, a ticket
    reaped by its poster), the producer captures a context and the consumer
    activates it while processing, so its spans parent under the producer's.
    """

    __slots__ = ("probe", "span", "_prev")

    def __init__(self, probe: "Probe", span: Optional[SpanRecord]):
        self.probe = probe
        self.span = span

    def activate(self) -> "TraceContext":
        """Context manager making :attr:`span` current for this process."""
        return self

    def __enter__(self) -> Optional[SpanRecord]:
        self._prev = self.probe.current()
        self.probe.set_current(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.probe.set_current(self._prev)


@dataclass(slots=True, eq=False)
class BlockedEdge:
    """One realised wait: ``waiter_op`` blocked on ``resource`` [start, end).

    ``holders`` is the snapshot of holder tokens (``"op.name#root_span_id"``)
    taken when the wait *began* — the work the waiter was actually stuck
    behind, not whoever happened to hold the resource at grant time.
    """

    resource: str
    kind: str
    start: float
    end: float
    waiter_op: str
    waiter_root: Optional[int]
    holders: tuple[str, ...] = ()


class Probe:
    """Span, journal and blocked-by recorder of one environment.

    ``tracer`` / ``journal`` / ``critpath`` / ``timeline`` are the installed
    surfaces (what ``env.tracer`` etc. read through); each being set is
    what switches that part of the recording on.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.tracer: Any = None
        self.journal: Any = None
        self.timeline: Any = None
        self.critpath: Any = None
        self.reset_spans(None, False)
        self.edges: list[BlockedEdge] = []
        self.holding: dict[str, dict[str, int]] = {}  # resource -> token -> units

    def on_run(self) -> None:
        """``Environment.run`` hook: re-arm a parked timeline sampler."""
        if self.timeline is not None:
            self.timeline.on_run()

    # -- spans ---------------------------------------------------------------
    def reset_spans(self, hub: Any, retain: bool) -> None:
        """Drop every span record; the next span gets id 1."""
        #: receives every finished command/job latency (``observe_op``)
        self.hub = hub
        self.retain = retain
        #: current span of code running outside any process
        self.main_span: Optional[SpanRecord] = None
        self.spans_started = 0
        # the retained columns, one row per span (row ``span_id - 1``)
        self.col_parent = array("q")  # parent span id, 0 for roots
        self.col_start = array("d")
        self.col_end = array("d")  # NaN while the span is open
        self.col_name: list[str] = []
        self.col_category: list[str] = []
        self.col_lane: list[Optional[str]] = []
        self.col_args: list[dict[str, Any]] = []

    def current(self) -> Optional[SpanRecord]:
        """The active process's current span."""
        proc = self.env._active_process
        return proc.span if proc is not None else self.main_span

    def set_current(self, span: Optional[SpanRecord]) -> None:
        """Make ``span`` the active process's current span.

        Split-phase operations need this: ``post()`` opens a command span,
        hands it to a ticket, spawns the device-side process (which starts
        under that span), and then restores the poster's *previous* span —
        so back-to-back posts become siblings instead of nesting under each
        other's still-open spans.
        """
        proc = self.env._active_process
        if proc is not None:
            proc.span = span
        else:
            self.main_span = span

    def capture(self) -> Optional[TraceContext]:
        """The current span as a :class:`TraceContext` (``None`` untraced)."""
        return TraceContext(self, self.current()) if self.tracer is not None else None

    def span_begin(
        self,
        name: str,
        category: str,
        lane: Optional[str] = None,
        args: Optional[dict[str, Any]] = None,
        nests: bool = True,
    ) -> Optional[SpanRecord]:
        """Open a span under the current one; ``None`` when tracing is off.

        ``args`` is kept as passed (not copied) and is what the site
        annotates afterwards (``span.args["wait"] = ...``).  A site that
        runs no instrumented code inside the span — a CPU slice, a channel
        or link occupancy, a bare wait — passes ``nests=False``: such a leaf
        never becomes the current span (nothing could see it there), and
        when spans are not retained it is not recorded at all beyond taking
        its id, so ``None`` comes back.
        """
        if self.tracer is None:
            return None
        span_id = self.spans_started = self.spans_started + 1
        if not (nests or self.retain):
            return None
        env = self.env
        proc = env._active_process
        parent = proc.span if proc is not None else self.main_span
        if args is None:
            args = {}
        span = SpanRecord()
        span._probe = self
        span.span_id = span_id
        span.name = name
        span.category = category
        span.start = env._now
        span.parent = parent
        span.lane = lane
        span.args = args
        if parent is None:
            span.root = span
            span.token = None
        else:
            span.root = parent.root
        if nests:
            if proc is not None:
                proc.span = span
            else:
                self.main_span = span
        if self.retain:
            self.col_parent.append(0 if parent is None else parent.span_id)
            self.col_start.append(span.start)
            self.col_end.append(nan)
            self.col_name.append(name)
            self.col_category.append(category)
            self.col_lane.append(lane)
            self.col_args.append(args)
        return span

    def span(self, name, category, lane=None, args=None, nests=True):
        """:meth:`span_begin` as a ``with`` scope that also works when no
        record comes back (then it yields ``None``)."""
        return self.span_begin(name, category, lane, args, nests) or NULL_SCOPE

    def set_lane(self, span: SpanRecord, lane: str) -> None:
        """Assign the lane of a span opened before its resource was known."""
        span.lane = lane
        if self.retain:
            self.col_lane[span.span_id - 1] = lane

    def span_end(self, span: SpanRecord) -> None:
        """Close ``span`` at the current virtual time."""
        env = self.env
        now = env._now
        proc = env._active_process
        if proc is not None:
            if proc.span is span:
                proc.span = span.parent
        elif self.main_span is span:
            self.main_span = span.parent
        if self.retain:
            self.col_end[span.span_id - 1] = now
        category = span.category
        if (category == "command" or category == "job") and self.hub is not None:
            self.hub.observe_op(span.name, now - span.start)

    # -- journal -------------------------------------------------------------
    def event(self, type_: str, fields: dict[str, Any]) -> None:
        """Append one lifecycle event, stamped with virtual time and the
        current span's id; a no-op when no journal is installed."""
        journal = self.journal
        if journal is None:
            return
        if type_ not in EVENT_TYPES:
            raise SimulationError(f"unknown journal event type {type_!r}")
        span = self.current() if self.tracer is not None else None
        ring = journal.ring
        if len(ring) == ring.maxlen:
            journal.dropped += 1
        row = (
            journal.total_recorded, self.env._now, type_,
            span.span_id if span is not None else None, fields,
        )
        ring.append(row)
        journal.total_recorded += 1
        if journal.on_record is not None:
            journal.on_record(JournalEvent(*row))

    # -- blocked-by edges and holders ----------------------------------------
    def actor(self) -> tuple[str, Optional[int]]:
        """(op name, root span id) of the work the active process serves.

        The root of the current span (the ``cmd.*``/``job.*`` span), so
        every wait and hold is attributed to a client-visible op.  Without
        a tracer the process name is the best identity available.
        """
        if self.tracer is not None:
            span = self.current()
            if span is not None:
                return span.root.name, span.root.span_id
        proc = self.env._active_process
        if proc is not None and proc.name:
            return f"proc.{proc.name}", None
        return "main", None

    def token(self) -> Optional[str]:
        """Holder-registry identity of the current actor: ``"name#root_id"``
        (built once per root) or the bare name; ``None`` with no
        critical-path observer installed."""
        if self.critpath is None:
            return None
        if self.tracer is not None:
            proc = self.env._active_process
            span = proc.span if proc is not None else self.main_span
            if span is not None:
                root = span.root
                if root.token is None:
                    root.token = f"{root.name}#{root.span_id}"
                return root.token
        return self.actor()[0]

    def acquire(self, resource: str, token: Optional[str]) -> None:
        """Record that ``token`` now holds one unit of ``resource``."""
        if token is None:
            return
        held = self.holding.get(resource)
        if held is None:
            held = self.holding[resource] = {}
        held[token] = held.get(token, 0) + 1

    def release(self, resource: str, token: Optional[str]) -> None:
        """Drop one unit; tolerant of unmatched releases (e.g. a DRAM
        reservation released by a different op than reserved it)."""
        held = self.holding.get(resource)
        count = held.get(token) if held is not None else None
        if count is None:
            return
        if count <= 1:
            del held[token]
        else:
            held[token] = count - 1

    def holders(self, resource: str, cap: int = HOLDER_CAP) -> tuple[str, ...]:
        """Snapshot of current holder tokens (insertion order, capped)."""
        held = self.holding.get(resource)
        return tuple(islice(held, cap)) if held else ()

    def wait_edge(
        self,
        resource: str,
        kind: str,
        start: float,
        holders: tuple[str, ...],
        actor: Optional[tuple[str, Optional[int]]] = None,
    ) -> None:
        """Record a wait on ``resource`` from ``start`` until now.

        ``holders`` is the :meth:`holders` snapshot taken when the wait
        began.  The waiter is the current actor unless ``actor`` names the
        op the wait belongs to (a worker finishing a wait that the
        submitting command began).  Waits of zero virtual duration record
        nothing.
        """
        observer = self.critpath
        now = self.env._now
        if observer is None or now <= start:
            return
        if len(self.edges) >= observer.max_edges:
            observer.dropped_edges += 1
            return
        op, root = actor if actor is not None else self.actor()
        self.edges.append(BlockedEdge(resource, kind, start, now, op, root, holders))


def get_probe(env: "Environment") -> Probe:
    """``env.probe``, created on first use (the ``install_*`` entry point)."""
    if env.probe is None:
        env.probe = Probe(env)
    return env.probe
