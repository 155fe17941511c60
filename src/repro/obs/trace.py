"""Hierarchical span tracing stamped from the simulation's virtual clock.

Every traced operation — an NVMe command, a CPU slice, a flash-channel
occupancy, a background compaction shard — becomes a span with a start/end
taken from ``Environment.now``.  Spans nest: because an entire
client->device->SSD call chain runs inside one simulation :class:`Process`
as a ``yield from`` chain, the *current* span is an attribute of the running
process and new spans implicitly parent under it.  Processes spawned with
``env.process(...)`` start under the spawner's current span, so fan-out work
— compaction shards, striped zone appends, pipelined materialisation stages
— stays attached to the job that started it.

Recording is the probe's job (:mod:`repro.obs.probe`): sites open and close
``SpanRecord`` objects (:mod:`repro.obs.probe`) through ``env.probe``.  This module
is the tracing *surface*: :func:`install_tracer` switches span recording on,
:class:`Tracer` materialises the recorded columns into :class:`Span` trees
for exporters, ``explain`` and tests, and :func:`trace_span` /
:func:`trace_wait` are the site helpers for code that does not hold the
probe.

Zero cost when disabled: ``Environment.probe`` defaults to ``None`` and the
helpers reduce to a shared no-op context manager / a bare ``yield``.  No
simulation events are created either way, so virtual time is bit-identical
with tracing on or off.
"""

from __future__ import annotations

from math import isnan
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.obs.probe import NULL_SCOPE, Probe, SpanRecord, TraceContext, get_probe

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment, Event

__all__ = [
    "CAT_COMMAND",
    "CAT_JOB",
    "CAT_STAGE",
    "CAT_QUEUE",
    "CAT_TRANSPORT",
    "CAT_CPU",
    "CAT_FLASH",
    "CAT_FIRMWARE",
    "Span",
    "TraceContext",
    "Tracer",
    "install_tracer",
    "trace_span",
    "trace_wait",
]

# Span categories, used by the attribution exporter to bucket self-time.
CAT_COMMAND = "command"  #: a client-visible operation (root of a span tree)
CAT_JOB = "job"  #: an offloaded background job (compaction, SIDX build)
CAT_STAGE = "stage"  #: an internal phase of a command or job
CAT_QUEUE = "queue"  #: time spent waiting for a slot/lock/queue
CAT_TRANSPORT = "transport"  #: PCIe / NVMe-oF byte movement
CAT_CPU = "cpu"  #: core occupancy (args carry the wait/run split)
CAT_FLASH = "flash"  #: NAND channel occupancy (args carry wait vs busy)
CAT_FIRMWARE = "firmware"  #: fixed-function controller/dispatch overhead


class Span:
    """One timed operation; a node in a per-command/per-job tree."""

    __slots__ = ("span_id", "name", "category", "start", "end", "parent", "lane",
                 "args", "children")

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        start: float,
        parent: Optional["Span"] = None,
        lane: Optional[str] = None,
        args: Optional[dict[str, Any]] = None,
    ):
        self.span_id = span_id
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.lane = lane
        self.args: dict[str, Any] = args if args is not None else {}
        self.children: list[Span] = []

    @property
    def finished(self) -> bool:
        return self.end is not None

    def duration(self, now: Optional[float] = None) -> float:
        """Span length; open spans are clamped to ``now`` (or their start)."""
        end = self.end if self.end is not None else (now if now is not None else self.start)
        return max(0.0, end - self.start)

    def iter_tree(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def self_time(self, now: Optional[float] = None) -> float:
        """Duration not covered by this span's direct children."""
        covered = union_length(
            [(c.start, c.start + c.duration(now)) for c in self.children],
            clip=(self.start, self.start + self.duration(now)),
        )
        return max(0.0, self.duration(now) - covered)

    def coverage(self, now: Optional[float] = None) -> float:
        """Fraction of this span's duration accounted for by descendants.

        The union of every descendant interval, clipped to this span's own
        interval, over this span's duration.  1.0 for a span with no
        duration (nothing to attribute).
        """
        total = self.duration(now)
        if total <= 0.0:
            return 1.0
        intervals = [
            (s.start, s.start + s.duration(now))
            for s in self.iter_tree()
            if s is not self
        ]
        covered = union_length(intervals, clip=(self.start, self.start + total))
        return covered / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:.6f}" if self.end is not None else "..."
        return f"<Span {self.name} [{self.category}] {self.start:.6f}-{end}>"


def union_length(
    intervals: list[tuple[float, float]],
    clip: Optional[tuple[float, float]] = None,
) -> float:
    """Total length of the union of ``intervals``, optionally clipped."""
    if clip is not None:
        lo, hi = clip
        intervals = [(max(a, lo), min(b, hi)) for a, b in intervals]
    intervals = sorted((a, b) for a, b in intervals if b > a)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in intervals:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """The span surface of one environment's probe.

    ``hub``, when given, receives a latency observation for every finished
    command/job span so per-op-type histograms accumulate as the run
    progresses.  With ``retain_spans=False`` nothing is kept for trace
    export — the hub/timeline latency feed still works and long scale-bench
    runs hold O(live spans) memory.
    """

    def __init__(self, probe: Probe):
        self.env = probe.env
        self.hub = probe.hub
        self._probe = probe
        self._spans: list[Span] = []
        self._open: list[Span] = []  # materialised while still unfinished

    # -- propagation ---------------------------------------------------------
    def current(self) -> Optional[SpanRecord]:
        """The active process's current span."""
        return self._probe.current()

    def capture(self) -> TraceContext:
        """Snapshot the current span for explicit cross-process handoff."""
        return self._probe.capture()

    def span(
        self,
        name: str,
        category: str,
        lane: Optional[str] = None,
        **args: Any,
    ) -> SpanRecord:
        """``with``-scope that opens now and finishes on exit."""
        return self._probe.span_begin(name, category, lane, args)

    # -- queries -------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Every retained span in start order, as linked :class:`Span` trees.

        Built from the probe's columns on first read and extended on later
        reads, so a span keeps its identity across reads.
        """
        probe = self._probe
        ends, lanes = probe.col_end, probe.col_lane
        spans = self._spans
        for row in range(len(spans), len(ends)):
            parent_id = probe.col_parent[row]
            parent = spans[parent_id - 1] if parent_id else None
            span = Span(
                row + 1, probe.col_name[row], probe.col_category[row],
                probe.col_start[row], parent, lanes[row], probe.col_args[row],
            )
            if parent is not None:
                parent.children.append(span)
            spans.append(span)
            self._open.append(span)
        for span in self._open:  # new, or unfinished at the last read
            row = span.span_id - 1
            span.lane = lanes[row]
            if not isnan(ends[row]):
                span.end = ends[row]
        self._open = [span for span in self._open if span.end is None]
        return spans

    def roots(self) -> list[Span]:
        """All spans without a parent, in start order."""
        return [s for s in self.spans if s.parent is None]

    def command_roots(self) -> list[Span]:
        """Root spans of client-visible commands (coverage is judged here)."""
        return [s for s in self.roots() if s.category == CAT_COMMAND]


def install_tracer(
    env: "Environment",
    hub: Optional[Any] = None,
    retain_spans: bool = True,
) -> Tracer:
    """Start span recording on ``env`` (from span id 1) and return the tracer."""
    probe = get_probe(env)
    probe.reset_spans(hub, retain_spans)
    probe.tracer = Tracer(probe)
    return probe.tracer


def trace_span(
    env: "Environment",
    name: str,
    category: str,
    lane: Optional[str] = None,
    **args: Any,
):
    """A span scope when ``env`` is being traced, else a shared no-op scope.

    The disabled path costs one attribute read and returns a singleton, so
    instrumented code can use a single body for both modes::

        with trace_span(self.env, "dev.bulk_put", CAT_STAGE) as span:
            ...  # span is None when tracing is disabled
    """
    probe = env.probe
    if probe is None:
        return NULL_SCOPE
    return probe.span_begin(name, category, lane, args) or NULL_SCOPE


def trace_wait(env: "Environment", event: "Event", name: str,
               category: str = CAT_QUEUE):
    """Yield ``event`` wrapped in a span (generator; bare yield if disabled).

    Used for slot/lock acquisitions where the wait itself is the interesting
    quantity: ``yield from trace_wait(env, slot, "dev.inflight")``.
    """
    probe = env.probe
    if probe is None:
        value = yield event
        return value
    with probe.span(name, category, nests=False):
        value = yield event
    return value
