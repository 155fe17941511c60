"""The one renderer of run documents (``repro run`` and ``repro show``).

A ``repro run`` document carries the checks and every observer's JSON-able
report: latency attribution, the timeline, the explain report, the journal
summary and tail, the audit reports and the device snapshot.
:func:`render` turns any such document into the text ``repro run`` prints
after its tables, so a saved document reads exactly like the live run.
:func:`render_diff` compares two documents' explain reports.
"""

from __future__ import annotations

from typing import Any

from repro.bench.report import ShapeCheck
from repro.obs.audit import format_audit_report
from repro.obs.critpath import diff_explain, format_explain
from repro.obs.export import format_attribution
from repro.obs.inspect import format_snapshot
from repro.obs.timeline import sparkline

__all__ = ["render", "render_diff"]

#: busiest timeline series drawn as sparklines, and their width
SPARK_ROWS, SPARK_WIDTH = 16, 48
#: explain-diff rows printed
DIFF_ROWS = 16


def _timeline(timeline: dict) -> list[str]:
    series = timeline["series"]

    def spread(key: str) -> float:
        values = series[key]["values"]
        return (max(values) - min(values)) if values else 0.0

    keys = sorted(series, key=lambda k: (-spread(k), k))[:SPARK_ROWS]
    lines = [
        f"timeline: {timeline['ticks']} samples, {len(series)} series "
        f"(interval {timeline['config']['interval']:g}s)"
    ]
    width = max((len(k) for k in keys), default=0)
    for key in keys:
        values = series[key]["values"]
        if values:
            lines.append(
                f"  {key.ljust(width)}  {sparkline(values, SPARK_WIDTH)}  "
                f"min={min(values):g} max={max(values):g} last={values[-1]:g}"
            )
    if not timeline["alerts"]:
        lines.append("slo: no alerts fired")
    for alert in timeline["alerts"]:
        cleared = (
            f" cleared at t={alert['cleared_at']:.6f}s"
            if "cleared_at" in alert else " (still firing)"
        )
        lines.append(
            f"slo ALERT {alert['rule']}: {alert['condition']} — "
            f"{alert['series']}={alert['value']:g} at "
            f"t={alert['fired_at']:.6f}s{cleared}"
        )
    return lines


def _journal(journal: dict) -> list[str]:
    lines = []
    for event in journal["tail"]:
        fields = " ".join(
            f"{k}={v}" for k, v in sorted(event.get("fields", {}).items())
        )
        span = f" span={event['span_id']}" if "span_id" in event else ""
        lines.append(
            f"#{event['seq']} t={event['time']:.6f}s {event['type']}{span} {fields}"
        )
    summary = journal["summary"]
    lines.append(
        f"journal: {summary['total_recorded']} events recorded, "
        f"{summary['retained']} retained, {summary['dropped']} dropped"
    )
    return lines


def _audit(audit: dict) -> list[str]:
    reports = audit["reports"]
    # every failed pass, then the final one
    shown = [r for r in reports[:-1] if not r["ok"]] + reports[-1:]
    lines = [format_audit_report(r).rstrip("\n") for r in shown]
    summary = audit["summary"]
    lines.append(
        f"audit summary: {summary['runs']} run(s) at level "
        f"{summary['level']!r}, {summary['failed_runs']} failed, "
        f"{summary['total_violations']} total violation(s)"
    )
    return lines


def render(doc: dict[str, Any]) -> str:
    """A run document's checks and observer reports, as text."""
    lines = [str(ShapeCheck(**check)) for check in doc.get("checks", ())]
    if "attribution" in doc:
        lines.append(format_attribution(doc["attribution"]))
    if "timeline" in doc:
        lines += _timeline(doc["timeline"])
    if "explain" in doc:
        lines.append(format_explain(doc["explain"]))
    if "journal" in doc:
        lines += _journal(doc["journal"])
    if "audit" in doc:
        lines += _audit(doc["audit"])
    if "snapshot" in doc:
        lines.append(format_snapshot(doc["snapshot"]).rstrip("\n"))
    return "\n".join(lines)


def _explain_of(doc: dict, name: str) -> dict:
    """The explain report in a run document, or the document itself when
    it is a bare explain report; ``ValueError`` when it has none."""
    if "ops" not in doc and isinstance(doc.get("explain"), dict):
        doc = doc["explain"]
    if "ops" not in doc:
        raise ValueError(f"{name} carries no explain report (run with --explain)")
    return doc


def render_diff(before: dict, after: dict, names=("before", "after")) -> str:
    """What changed between two documents' explain reports."""
    rows = diff_explain(_explain_of(before, names[0]), _explain_of(after, names[1]))
    if not rows:
        return "explain diff: no ops in either report"
    lines = [f"explain diff: {names[0]} -> {names[1]}"]
    for row in rows[:DIFF_ROWS]:
        if row["delta"] is None:
            state = "appeared" if row["after"] else "disappeared"
            lines.append(f"  {row['op']}: {state}")
            continue
        lines.append(
            f"  {row['op']} {row['metric']}: "
            f"{row['before']:.6f} -> {row['after']:.6f} ({row['delta']:+.6f}s)"
        )
    return "\n".join(lines)
