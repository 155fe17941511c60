"""Causal critical-path and contention attribution over spans + blocked-by edges.

PR 7's timeline answers *when* p99 spiked; this module answers *why one op
was slow*.  The simulator's contended waits — CPU-core claims, NVMe queue
pair slots, ``DramBudget`` reservations, BoundedQueue puts/gets, the query
scheduler's admission queue — are instrumented to record a
:class:`BlockedEdge` every time a process actually blocks: who waited
(``waiter_op``, resolved to the root command/job span), on which resource,
for how long, and who *held* the resource when the wait began.  Holder
identity is kept in a per-resource registry updated at grant/release time,
so an edge can say "GET #412 blocked 62% behind compaction job 3's DRAM
hold".  Edges and holders are recorded by the probe
(:mod:`repro.obs.probe`: ``holders`` / ``wait_edge`` / ``acquire`` /
``release``); this module installs that part of it and analyses the result.

Zero cost when disabled: ``Environment.probe`` defaults to ``None`` and
every instrumentation site costs one attribute check.  The registry is pure
bookkeeping — it creates no simulation events even when installed, so the
virtual clock stays bit-identical with the observer on, off, or constructed
but never installed (pinned by the golden-clock tests).

From the span trees plus these edges, :func:`op_segments` decomposes each
op's latency into typed segments that *exactly tile* the op's interval
(no gaps, no overlaps — ``scripts/validate_trace.py`` checks this):
deepest-wins over the span tree (background job subtrees pruned, structural
stage spans classified as ``service``), with blocked-by edges overlaid on
top so wait time carries its resource and holders.  :func:`explain_report`
aggregates instances into p50/p99 percentile cohorts per op name to answer
"what makes the slow ops slow", :func:`explain_to_folded` emits
folded-stack flamegraph lines, and :func:`diff_explain` turns two captures
into "what changed" hints for the bench regression gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.obs.probe import BlockedEdge, get_probe
from repro.obs.trace import (
    CAT_COMMAND,
    CAT_CPU,
    CAT_FIRMWARE,
    CAT_FLASH,
    CAT_JOB,
    CAT_QUEUE,
    CAT_STAGE,
    CAT_TRANSPORT,
    Span,
    Tracer,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

__all__ = [
    "BlockedEdge",
    "CritPathObserver",
    "install_critpath",
    "op_segments",
    "explain_report",
    "format_explain",
    "explain_to_folded",
    "diff_explain",
]

#: Edges always win the deepest-wins sweep over span-derived intervals: a
#: blocked wait is more specific than any enclosing span.
_EDGE_DEPTH = 1 << 20


@dataclass(slots=True, eq=False)
class CritPathObserver:
    """Query surface over the probe's blocked-by edges.

    Constructing one touches nothing: the instrumented sites only record
    once :func:`install_critpath` hands it to the probe — the
    constructed-but-uninstalled case is part of the golden-clock
    byte-identity contract.
    """

    env: "Environment"
    #: the tracer whose spans the edges refer to (always ``env.tracer``:
    #: waiters are resolved through the probe's own span state)
    tracer: Optional[Tracer] = None
    max_edges: int = 200_000
    #: the probe appends here once installed, and counts what it drops
    edges: list[BlockedEdge] = field(default_factory=list)
    dropped_edges: int = 0

    def edges_by_root(self) -> dict[int, list[BlockedEdge]]:
        """Edges grouped by the root span id of their waiter."""
        grouped: dict[int, list[BlockedEdge]] = {}
        for edge in self.edges:
            if edge.waiter_root is not None:
                grouped.setdefault(edge.waiter_root, []).append(edge)
        return grouped


def install_critpath(
    env: "Environment", tracer: Optional[Tracer] = None
) -> CritPathObserver:
    """Start recording blocked-by edges and holders on ``env``."""
    observer = CritPathObserver(env, tracer=tracer)
    probe = get_probe(env)
    probe.critpath = observer
    probe.edges = observer.edges
    probe.holding = {}
    return observer


# -- segment decomposition ---------------------------------------------------
def _span_kind(span: Span) -> Optional[str]:
    """Typed-segment kind for a span, or None for unclassified categories.

    Structural spans (stages, nested commands) classify as ``service`` so
    orchestration time between leaf work is typed rather than unattributed;
    leaf spans sit deeper in the tree and win the deepest-wins sweep.
    """
    category = span.category
    if category == CAT_CPU:
        return "soc_cpu" if span.args.get("pool") == "soc" else "host_cpu"
    if category == CAT_FLASH:
        return "flash"
    if category == CAT_TRANSPORT:
        return "transport"
    if category == CAT_FIRMWARE:
        return "firmware"
    if category == CAT_QUEUE:
        return "wait.queue"
    if category == CAT_STAGE or category == CAT_COMMAND:
        return "service"
    return None


def op_segments(
    root: Span,
    edges: Iterable[BlockedEdge] = (),
    now: Optional[float] = None,
) -> list[dict[str, Any]]:
    """Decompose one op span into typed segments that exactly tile it.

    Every instant in ``[root.start, root.end]`` is claimed by exactly one
    segment: the deepest covering item wins, where items are the op's
    descendant spans (background ``CAT_JOB`` subtrees pruned — their cost
    belongs to the job, not the command that spawned it) plus the op's
    blocked-by edges (always deepest: a realised wait is more specific than
    any span that contains it).  Instants claimed by nothing become
    ``unattributed`` segments, so the tiling is exact by construction and
    ``sum(segment widths) == root duration``.
    """
    r0 = root.start
    r1 = root.start + root.duration(now)
    if r1 <= r0:
        return []
    # (start, end, depth, kind, resource, holders)
    items: list[tuple[float, float, int, str, Optional[str], tuple]] = []
    stack: list[tuple[Span, int]] = [(root, 0)]
    while stack:
        span, depth = stack.pop()
        if span is not root:
            kind = _span_kind(span)
            if kind is not None:
                s = span.start if span.start > r0 else r0
                e = span.start + span.duration(now)
                if e > r1:
                    e = r1
                if e > s:
                    items.append((s, e, depth, kind, span.name, ()))
        for child in span.children:
            if child.category != CAT_JOB:
                stack.append((child, depth + 1))
    for edge in edges:
        s = edge.start if edge.start > r0 else r0
        e = edge.end if edge.end < r1 else r1
        if e > s:
            items.append(
                (s, e, _EDGE_DEPTH, "wait." + edge.kind, edge.resource,
                 edge.holders)
            )

    bounds = {r0, r1}
    for item in items:
        bounds.add(item[0])
        bounds.add(item[1])
    cuts = sorted(bounds)
    segments: list[dict[str, Any]] = []
    for a, b in zip(cuts, cuts[1:]):
        best = None
        for item in items:
            if (
                item[0] <= a
                and item[1] >= b
                and (best is None or (item[2], item[0]) > (best[2], best[0]))
            ):
                best = item
        if best is None:
            kind, resource, holders = "unattributed", None, ()
        else:
            kind, resource, holders = best[3], best[4], best[5]
        prev = segments[-1] if segments else None
        if (
            prev is not None
            and prev["kind"] == kind
            and prev["resource"] == resource
            and prev["holders"] == holders
        ):
            prev["end"] = b
        else:
            segments.append(
                {"start": a, "end": b, "kind": kind, "resource": resource,
                 "holders": holders}
            )
    return segments


# -- percentile-cohort report ------------------------------------------------
def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile over an already-sorted list (0.0 if empty)."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    rank = min(n - 1, max(0, math.ceil(p * n / 100.0) - 1))
    return sorted_values[rank]


def _holder_op(token: str) -> str:
    """Strip the ``#root_id`` instance suffix off a holder token."""
    return token.split("#", 1)[0]


def _cohort_summary(members: list[dict[str, Any]]) -> dict[str, Any]:
    seconds_by_kind: dict[str, float] = {}
    blockers: dict[tuple[str, str], float] = {}
    total = 0.0
    for inst in members:
        total += inst["duration"]
        for seg in inst["segments"]:
            width = seg["end"] - seg["start"]
            kind = seg["kind"]
            seconds_by_kind[kind] = seconds_by_kind.get(kind, 0.0) + width
            if kind.startswith("wait."):
                resource = seg["resource"] or "?"
                holders = seg["holders"]
                if holders:
                    share = width / len(holders)
                    for token in holders:
                        key = (resource, _holder_op(token))
                        blockers[key] = blockers.get(key, 0.0) + share
                else:
                    key = (resource, "")
                    blockers[key] = blockers.get(key, 0.0) + width
    ranked = sorted(blockers.items(), key=lambda kv: -kv[1])
    blocker_rows = [
        {"resource": resource, "holder_op": holder, "seconds": secs}
        for (resource, holder), secs in ranked[:8]
    ]
    return {
        "count": len(members),
        "total_seconds": total,
        "seconds_by_kind": dict(
            sorted(seconds_by_kind.items(), key=lambda kv: -kv[1])
        ),
        "blockers": blocker_rows,
        "dominant_blocker": blocker_rows[0] if blocker_rows else None,
    }


def explain_report(
    tracer: Tracer,
    critpath: Optional[CritPathObserver] = None,
    now: Optional[float] = None,
    max_samples: int = 32,
) -> dict[str, Any]:
    """Per-op percentile-cohort latency decomposition as a JSON-able dict.

    For every command/job span instance, computes the typed-segment tiling
    (:func:`op_segments`), then groups instances by op name into a p50
    cohort (duration <= p50) and a p99 cohort (duration >= p99) with
    segment-seconds by kind and blocked-behind attribution by
    ``(resource, holder op)``.  The slowest ``max_samples`` instances per op
    are serialised in full (including their segment lists, which
    ``scripts/validate_trace.py`` re-checks for exact tiling);
    ``min_attributed`` is the worst attributed fraction over all sampled
    instances — the CI gate requires it >= 0.95.
    """
    env_now = now if now is not None else tracer.env.now
    grouped = critpath.edges_by_root() if critpath is not None else {}
    instances: dict[str, list[dict[str, Any]]] = {}
    for top in tracer.roots():
        for span in top.iter_tree():
            if span.category != CAT_COMMAND and span.category != CAT_JOB:
                continue
            duration = span.duration(env_now)
            segments = op_segments(span, grouped.get(span.span_id, ()), env_now)
            unattributed = sum(
                seg["end"] - seg["start"]
                for seg in segments
                if seg["kind"] == "unattributed"
            )
            attributed = (
                1.0 if duration <= 0.0 else max(0.0, 1.0 - unattributed / duration)
            )
            instances.setdefault(span.name, []).append(
                {
                    "span": span,
                    "duration": duration,
                    "attributed": attributed,
                    "segments": segments,
                }
            )

    ops: dict[str, Any] = {}
    min_attributed = 1.0
    for name in sorted(instances):
        members = instances[name]
        durations = sorted(inst["duration"] for inst in members)
        p50 = _percentile(durations, 50)
        p99 = _percentile(durations, 99)
        cohorts = {
            "p50": _cohort_summary(
                [inst for inst in members if inst["duration"] <= p50]
            ),
            "p99": _cohort_summary(
                [inst for inst in members if inst["duration"] >= p99]
            ),
        }
        cohorts["p50"]["threshold_seconds"] = p50
        cohorts["p99"]["threshold_seconds"] = p99
        sampled = sorted(members, key=lambda inst: -inst["duration"])
        sampled = sampled[:max_samples]
        samples = []
        for inst in sampled:
            span = inst["span"]
            min_attributed = min(min_attributed, inst["attributed"])
            samples.append(
                {
                    "span_id": span.span_id,
                    "start": span.start,
                    "end": span.start + inst["duration"],
                    "duration": inst["duration"],
                    "attributed": inst["attributed"],
                    "segments": [
                        {
                            "start": seg["start"],
                            "end": seg["end"],
                            "kind": seg["kind"],
                            "resource": seg["resource"],
                            "holders": list(seg["holders"]),
                        }
                        for seg in inst["segments"]
                    ],
                }
            )
        ops[name] = {
            "count": len(members),
            "p50_seconds": p50,
            "p99_seconds": p99,
            "mean_seconds": sum(durations) / len(durations),
            "max_seconds": durations[-1],
            "attributed_min": min(inst["attributed"] for inst in members),
            "cohorts": cohorts,
            "samples": samples,
        }

    report: dict[str, Any] = {
        "schema": 1,
        "generated_at": env_now,
        "ops": ops,
        "min_attributed": min_attributed,
        "edges": 0,
        "dropped_edges": 0,
    }
    if critpath is not None:
        report["edges"] = len(critpath.edges)
        report["dropped_edges"] = critpath.dropped_edges
    return report


# -- renderers ---------------------------------------------------------------
def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.1f}us"


def format_explain(report: dict[str, Any]) -> str:
    """Human-readable cohort diagnosis, one block per op name."""
    lines = [
        f"critical-path explain: {len(report['ops'])} ops, "
        f"{report['edges']} blocked-by edges, min sampled attribution "
        f"{report['min_attributed']:.1%}"
    ]
    for name, op in report["ops"].items():
        lines.append(
            f"{name}: n={op['count']} p50={_fmt_seconds(op['p50_seconds'])} "
            f"p99={_fmt_seconds(op['p99_seconds'])} "
            f"max={_fmt_seconds(op['max_seconds'])} "
            f"attributed>={op['attributed_min']:.1%}"
        )
        for label in ("p50", "p99"):
            cohort = op["cohorts"][label]
            total = cohort["total_seconds"]
            if total <= 0.0:
                lines.append(f"  {label} cohort (n={cohort['count']}): idle")
                continue
            kinds = ", ".join(
                f"{kind} {secs / total:.0%}"
                for kind, secs in list(cohort["seconds_by_kind"].items())[:4]
            )
            line = f"  {label} cohort (n={cohort['count']}): {kinds}"
            dominant = cohort["dominant_blocker"]
            if dominant is not None:
                behind = dominant["holder_op"] or "(empty queue slot)"
                line += (
                    f" | blocked {dominant['seconds'] / total:.0%} on "
                    f"{dominant['resource']} behind {behind}"
                )
            lines.append(line)
    return "\n".join(lines)


def explain_to_folded(report: dict[str, Any]) -> str:
    """Folded-stack flamegraph lines (``op;kind;resource;behind:op value``).

    Values are integer nanoseconds aggregated over the report's samples —
    feed the output straight to ``flamegraph.pl`` or speedscope.
    """
    agg: dict[str, float] = {}
    for name, op in report["ops"].items():
        for sample in op["samples"]:
            for seg in sample["segments"]:
                frames = [name, seg["kind"]]
                if seg.get("resource"):
                    frames.append(seg["resource"])
                holders = seg.get("holders") or ()
                if holders:
                    frames.append("behind:" + _holder_op(holders[0]))
                stack = ";".join(frames)
                agg[stack] = agg.get(stack, 0.0) + (seg["end"] - seg["start"])
    lines = [
        f"{stack} {int(round(seconds * 1e9))}"
        for stack, seconds in sorted(agg.items(), key=lambda kv: -kv[1])
        if seconds > 0.0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def diff_explain(
    before: dict[str, Any], after: dict[str, Any]
) -> list[dict[str, Any]]:
    """"What changed" hints between two explain reports.

    Rows compare per-op p99 latency and the p99 cohort's per-instance
    segment seconds by kind, sorted by absolute delta — the first rows name
    the resource/kind whose movement explains a latency shift.  Context
    only: callers (the bench regression gate) print these but never fail
    on them.
    """
    rows: list[dict[str, Any]] = []
    before_ops = before.get("ops", {})
    after_ops = after.get("ops", {})
    for name in sorted(set(before_ops) | set(after_ops)):
        b = before_ops.get(name)
        a = after_ops.get(name)
        if b is None or a is None:
            rows.append(
                {
                    "op": name,
                    "metric": "present",
                    "before": b is not None,
                    "after": a is not None,
                    "delta": None,
                }
            )
            continue
        rows.append(
            {
                "op": name,
                "metric": "p99_seconds",
                "before": b["p99_seconds"],
                "after": a["p99_seconds"],
                "delta": a["p99_seconds"] - b["p99_seconds"],
            }
        )
        b_cohort = b["cohorts"]["p99"]
        a_cohort = a["cohorts"]["p99"]
        b_n = max(1, b_cohort["count"])
        a_n = max(1, a_cohort["count"])
        kinds = set(b_cohort["seconds_by_kind"]) | set(
            a_cohort["seconds_by_kind"]
        )
        for kind in sorted(kinds):
            b_per = b_cohort["seconds_by_kind"].get(kind, 0.0) / b_n
            a_per = a_cohort["seconds_by_kind"].get(kind, 0.0) / a_n
            if b_per == 0.0 and a_per == 0.0:
                continue
            rows.append(
                {
                    "op": name,
                    "metric": f"p99_cohort.{kind}_seconds_per_op",
                    "before": b_per,
                    "after": a_per,
                    "delta": a_per - b_per,
                }
            )
    rows.sort(key=lambda row: -(abs(row["delta"]) if row["delta"] else 0.0))
    return rows
