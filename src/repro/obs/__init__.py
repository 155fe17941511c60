"""Observability: tracing, metrics, event journal, snapshots, auditing.

Spans are stamped from the simulation's virtual clock and organised into
per-command / per-job trees (:mod:`repro.obs.trace`); a :class:`MetricsHub`
is the one registry of component counters, SSD I/O stats, link and queue
counters, gauges and per-op latency summaries (:mod:`repro.obs.metrics`);
exporters render a Chrome-trace
timeline, a Prometheus text dump and a latency-attribution table
(:mod:`repro.obs.export`).  The structured event journal records typed
lifecycle events correlated to spans (:mod:`repro.obs.journal`); versioned
full-device snapshots aggregate every component's ``introspect()`` state
(:mod:`repro.obs.inspect`); and the invariant auditor runs cross-structure
consistency checks on demand or at flush/phase boundaries
(:mod:`repro.obs.audit`).

Every layer follows the same zero-cost contract: nothing is installed by
default, each instrumentation site is a single ``env.probe is None`` check
when off, and the one recorder behind all of them (:mod:`repro.obs.probe`)
creates no simulation events when on — virtual time is identical either way.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.critpath import (
    BlockedEdge,
    CritPathObserver,
    diff_explain,
    explain_report,
    explain_to_folded,
    format_explain,
    install_critpath,
    op_segments,
)
from repro.obs.export import (
    attribution_rows,
    format_attribution,
    min_command_coverage,
    to_chrome_trace,
)
from repro.obs.journal import (
    EVENT_TYPES,
    EventJournal,
    JournalEvent,
    install_journal,
    journal_event,
)
from repro.obs.metrics import SUMMARY, MetricsHub
from repro.obs.timeline import (
    DEFAULT_RULES,
    Alert,
    AlertRule,
    LatencyWindow,
    TimelineConfig,
    TimelineRecorder,
    install_timeline,
    sparkline,
    timeline_to_csv,
)
from repro.obs.trace import (
    Span,
    TraceContext,
    Tracer,
    install_tracer,
    trace_span,
    trace_wait,
)

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "MetricsHub",
    "install_tracer",
    "install_observability",
    "install_cluster_observability",
    "register_device_metrics",
    "trace_span",
    "trace_wait",
    "DEFAULT_RULES",
    "Alert",
    "AlertRule",
    "LatencyWindow",
    "TimelineConfig",
    "TimelineRecorder",
    "install_timeline",
    "sparkline",
    "timeline_to_csv",
    "to_chrome_trace",
    "attribution_rows",
    "format_attribution",
    "min_command_coverage",
    "BlockedEdge",
    "CritPathObserver",
    "install_critpath",
    "op_segments",
    "explain_report",
    "format_explain",
    "explain_to_folded",
    "diff_explain",
    "EVENT_TYPES",
    "EventJournal",
    "JournalEvent",
    "install_journal",
    "journal_event",
    "SNAPSHOT_SCHEMA_VERSION",
    "device_snapshot",
    "snapshot_json",
    "format_snapshot",
    "AuditReport",
    "InvariantAuditor",
    "Violation",
    "attach_auditor",
]

#: Symbols resolved on first access (PEP 562).  ``repro.obs.audit`` and
#: ``repro.obs.inspect`` import ``repro.core`` modules, which themselves
#: import ``repro.obs.journal`` — importing them eagerly here would close
#: a cycle through this package's own initialisation.
_LAZY_EXPORTS = {
    "AuditReport": "repro.obs.audit",
    "InvariantAuditor": "repro.obs.audit",
    "Violation": "repro.obs.audit",
    "attach_auditor": "repro.obs.audit",
    "SNAPSHOT_SCHEMA_VERSION": "repro.obs.inspect",
    "device_snapshot": "repro.obs.inspect",
    "snapshot_json": "repro.obs.inspect",
    "format_snapshot": "repro.obs.inspect",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def register_device_metrics(
    hub: MetricsHub,
    device: Optional[Any] = None,
    ssd: Optional[Any] = None,
    link: Optional[Any] = None,
    prefix: str = "",
) -> None:
    """Register one device's rows on ``hub`` under ``prefix``.

    ``prefix`` scopes every registration name (``dev0.`` gives
    ``dev0.kvcsd``, ``dev0.host-kv``, ``dev0.soc.query_queue_depth``, ...)
    so N-device cluster runs never collide on the hub's keys — a collision
    silently replaces the earlier row.  The default empty prefix keeps
    single-device names what they always were.  SSD and link rows are
    labelled with the component's own ``name`` (cluster testbeds already
    name those per device), not the prefix.
    """
    if device is not None:
        hub.register_registry(f"{prefix}kvcsd", device.stats)
        if device.block_cache is not None:
            hub.register_registry(f"{prefix}block_cache", device.block_cache.stats)
        for i, qp in enumerate(device.host_qps):
            hub.register_queue_pair(
                f"{prefix}host-kv" if i == 0 else f"{prefix}host-kv-{i}", qp
            )
        for name, fn in device.metric_gauges().items():
            hub.register_gauge(f"{prefix}{name}", fn)
        if device.query_scheduler is not None:
            hub.add(f"{prefix}soc.query_admit_depth", SUMMARY,
                    device.query_scheduler.admit_depth.summary)
    if ssd is not None:
        hub.register_ssd(ssd)
    if link is not None:
        hub.register_link(link.name, link)


def _install(env: Any, hub: MetricsHub, retain_spans: bool) -> tuple[Tracer, MetricsHub]:
    """Add the simulation kernel's own gauges, then start tracing into ``hub``."""
    for name, fn in env.metric_gauges().items():
        hub.register_gauge(name, fn)
    return install_tracer(env, hub=hub, retain_spans=retain_spans), hub


def install_observability(
    env: Any,
    device: Optional[Any] = None,
    ssd: Optional[Any] = None,
    link: Optional[Any] = None,
    retain_spans: bool = True,
    prefix: str = "",
) -> tuple[Tracer, MetricsHub]:
    """Wire a tracer + hub onto one testbed's components.

    Registers the device's counters (and its block cache's, when present),
    the SSD's I/O, channel-busy and fault-trip counters, the host link's
    byte counters, the host KV queue pairs registered on the device, the
    device's gauges (scheduler queue depth, DRAM budget pressure, zone-pool
    occupancy, mount stages), the admission queue-depth summary and the kernel's
    self-telemetry (``sim.*``: events scheduled, heap and immediate-queue
    depth, timeout pool), then installs a tracer feeding per-op latency
    summaries into the hub.  ``prefix`` scopes the registration names (see
    :func:`register_device_metrics`).
    """
    hub = MetricsHub()
    register_device_metrics(hub, device=device, ssd=ssd, link=link, prefix=prefix)
    return _install(env, hub, retain_spans)


def install_cluster_observability(
    env: Any,
    nodes: Any,
    router: Optional[Any] = None,
    retain_spans: bool = True,
) -> tuple[Tracer, MetricsHub]:
    """One tracer + hub spanning every device of a cluster testbed.

    ``nodes`` is an iterable of objects with ``name``/``device``/``ssd``/
    ``link`` attributes (the cluster testbed's per-device nodes).  Each
    node's registrations are scoped by ``f"{node.name}."`` so eight
    devices publish eight distinct ``devN.host-kv`` queue gauges instead
    of silently overwriting one.  When ``router`` is given its ring/
    migration gauges are registered unprefixed (they are cluster-level,
    not per-device), like the kernel's ``sim.*`` gauges.
    """
    hub = MetricsHub()
    for node in nodes:
        register_device_metrics(
            hub,
            device=node.device,
            ssd=node.ssd,
            link=node.link,
            prefix=f"{node.name}.",
        )
    if router is not None:
        for name, fn in router.metric_gauges().items():
            hub.register_gauge(name, fn)
    return _install(env, hub, retain_spans)
