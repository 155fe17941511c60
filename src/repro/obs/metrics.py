"""The one metrics registry, and its Prometheus text export.

A :class:`MetricsHub` holds every metric of one testbed as rows of
``(name, labels, kind, read)``: component counters (one row per counter of
each registered :class:`~repro.sim.stats.StatsRegistry`, bound as it
appears), SSD :class:`~repro.ssd.metrics.IoStats` and fault-plan trips,
link byte counters, NVMe queue-pair accounting, the components'
``metric_gauges()`` and the per-op latency summaries the tracer feeds.
Each row has one flat key, ``name{label=value,...}`` — the key the
timeline samples it under and alert rules match — and one kind:
``counter`` (only grows), ``gauge`` (instantaneous) or ``summary``
(``read()`` returns a :meth:`~repro.sim.stats.Histogram.summary` dict).

:meth:`MetricsHub.as_dict`, :meth:`MetricsHub.to_prometheus` and the
timeline's sampling plan are each one loop over :meth:`MetricsHub.rows`.
Prometheus rendering sanitises the name, adds the ``repro_`` prefix,
appends ``_total`` to counters and writes each family's samples under one
``# TYPE`` line.  Every value is read from the simulation's state at
render time.
"""

from __future__ import annotations

import math
import re
from functools import partial
from typing import Any, Callable, NamedTuple, Optional

from repro.sim.stats import Histogram, StatsRegistry, nan_to_zero, series_key

__all__ = [
    "COUNTER",
    "GAUGE",
    "SUMMARY",
    "Metric",
    "MetricsHub",
    "sanitize_metric_name",
]

COUNTER, GAUGE, SUMMARY = "counter", "gauge", "summary"
#: the section of :meth:`MetricsHub.as_dict` each kind lands in
_SECTIONS = {COUNTER: "counters", GAUGE: "gauges", SUMMARY: "summaries"}
_QUANTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"))
_IO_FIELDS = ("bytes_read", "bytes_written", "read_ops", "write_ops",
              "erase_ops", "gc_bytes_copied")

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str) -> str:
    """Make ``name`` a legal Prometheus metric name component."""
    cleaned = _NAME_RE.sub("_", name).strip("_")
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned or "unnamed"


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return repr(float(value))


class Metric(NamedTuple):
    """One registered row of the hub."""

    key: str  #: ``name{label=value,...}``, labels sorted
    name: str
    labels: Optional[dict[str, str]]
    kind: str  #: COUNTER, GAUGE or SUMMARY
    read: Callable[[], Any]


def _row(
    name: str, kind: str, read: Callable[[], Any],
    labels: Optional[dict[str, str]] = None,
) -> Metric:
    labels = dict(labels) if labels else None
    return Metric(series_key(name, labels), name, labels, kind, read)


def _fault_trips(ssd: Any, op: str) -> int:
    plan = ssd.faults  # armed after install, so read through the SSD
    return 0 if plan is None else getattr(plan, f"trips_{op}")


class MetricsHub:
    """The registry of every metric source in one testbed."""

    def __init__(self, namespace: str = "repro"):
        self.namespace = namespace
        self._rows: dict[str, Metric] = {}
        #: (live counter dict, labels) of each registered StatsRegistry
        self._registries: list[tuple[dict, dict[str, str]]] = []
        #: per-op-type latency histograms fed by Tracer.finish
        self.op_latency: dict[str, Histogram] = {}
        #: attached :class:`~repro.obs.timeline.TimelineRecorder`, if any
        self.timeline: Any = None
        self._registrations = 0

    @property
    def version(self) -> int:
        """Grows whenever a row appears — a registration, a component's
        first increment of a counter, an op's first latency — so a sampler
        that compiled :meth:`rows` into a plan knows when to recompile."""
        return (
            self._registrations
            + len(self.op_latency)
            + sum(len(counters) for counters, _labels in self._registries)
        )

    # -- registration --------------------------------------------------------
    def add(
        self,
        name: str,
        kind: str,
        read: Callable[[], Any],
        labels: Optional[dict[str, str]] = None,
    ) -> None:
        """Register one row; a later row with the same key replaces it.

        Rows cost nothing until read: exporters and timeline ticks call
        ``read()``; nothing is recorded at registration.
        """
        row = _row(name, kind, read, labels)
        self._rows[row.key] = row
        self._registrations += 1

    def register_gauge(
        self,
        name: str,
        fn: Callable[[], float],
        labels: Optional[dict[str, str]] = None,
    ) -> None:
        """Expose an instantaneous value (queue depth, DRAM pressure, ...)."""
        self.add(name, GAUGE, fn, labels)

    def register_registry(self, name: str, registry: StatsRegistry) -> None:
        """Expose a component's counters, labelled ``registry=name``."""
        self._registries.append((registry.counters, {"registry": name}))
        self._registrations += 1

    def register_queue_pair(self, name: str, qp: Any) -> None:
        """Expose a queue pair's accounting, labelled ``qp=name``.

        ``qp.depth`` is the configured capacity; the occupancy signals are
        ``qp.inflight`` slots and ``qp.unreaped`` completions.
        """
        labels = {"qp": name}
        for field in ("submitted", "completed", "reaped", "errors"):
            self.add(f"qp.{field}", COUNTER, partial(getattr, qp, field), labels)
        for field in ("depth", "inflight", "unreaped"):
            self.add(f"qp.{field}", GAUGE, partial(getattr, qp, field), labels)

    def register_ssd(self, ssd: Any) -> None:
        """Expose an SSD's I/O counters, per-channel busy seconds and
        fault-plan state, labelled ``device=ssd.name``."""
        labels = {"device": ssd.name}
        io = ssd.stats
        for field in _IO_FIELDS:
            self.add(f"io.{field}", COUNTER, partial(getattr, io, field), labels)
        for channel in range(ssd.geometry.n_channels):
            self.add(
                "io.channel_busy_seconds", COUNTER,
                partial(io.channel_busy.get, channel, 0.0),
                {**labels, "channel": str(channel)},
            )
        for op in ("read", "write"):
            self.add(
                "fault.trips", COUNTER, partial(_fault_trips, ssd, op),
                {**labels, "op": op},
            )
        self.add(
            "fault.plan_armed", GAUGE, lambda: float(ssd.faults is not None), labels
        )

    def register_link(self, name: str, link: Any) -> None:
        """Expose a transport link's byte counters, labelled ``link=name``."""
        for field in ("bytes_tx", "bytes_rx"):
            self.add(f"link.{field}", COUNTER, partial(getattr, link, field),
                     {"link": name})

    def attach_timeline(self, recorder: Any) -> None:
        """Bind a timeline recorder so op latencies feed its windows."""
        self.timeline = recorder

    # -- tracer feed ---------------------------------------------------------
    def observe_op(self, op: str, seconds: float) -> None:
        """Record one finished command/job latency (called by the tracer)."""
        hist = self.op_latency.get(op)
        if hist is None:
            hist = self.op_latency[op] = Histogram(op)
        hist.record(seconds)
        if self.timeline is not None:
            self.timeline.observe_latency(op, seconds)

    # -- the one walk --------------------------------------------------------
    def rows(self) -> list[Metric]:
        """Every row, sorted by key."""
        rows = dict(self._rows)
        for counters, labels in self._registries:
            for name, counter in counters.items():
                row = _row(name, COUNTER, partial(getattr, counter, "value"), labels)
                rows[row.key] = row
        for op, hist in self.op_latency.items():
            row = _row("op_latency_seconds", SUMMARY, hist.summary, {"op": op})
            rows[row.key] = row
        return [rows[key] for key in sorted(rows)]

    def as_dict(self) -> dict[str, dict[str, Any]]:
        """JSON-ready ``{"counters"|"gauges"|"summaries": {key: value}}``."""
        out: dict[str, dict[str, Any]] = {section: {} for section in _SECTIONS.values()}
        for row in self.rows():
            value = row.read()
            out[_SECTIONS[row.kind]][row.key] = (
                {k: nan_to_zero(v) for k, v in value.items()}
                if row.kind == SUMMARY
                else float(value)
            )
        return out

    def to_prometheus(self) -> str:
        """Every row in Prometheus text format, one block per family."""
        ns = sanitize_metric_name(self.namespace)
        families: dict[str, tuple[str, list[str]]] = {}
        for row in self.rows():
            family = f"{ns}_{sanitize_metric_name(row.name)}"
            if row.kind == COUNTER:
                family += "_total"
            labels = [
                f'{sanitize_metric_name(k)}="{v}"'
                for k, v in sorted((row.labels or {}).items())
            ]
            lines = families.setdefault(family, (row.kind, []))[1]
            value = row.read()
            if row.kind != SUMMARY:
                lines.append(f"{family}{_braces(labels)} {_fmt(value)}")
                continue
            for q, key in _QUANTILES:
                quantile = labels + [f'quantile="{q}"']
                lines.append(f"{family}{_braces(quantile)} {_fmt(value[key])}")
            count = value["count"]
            lines.append(
                f"{family}_sum{_braces(labels)} "
                f"{_fmt(value['mean'] * count if count else 0.0)}"
            )
            lines.append(f"{family}_count{_braces(labels)} {_fmt(count)}")
        out: list[str] = []
        for family in sorted(families):
            kind, lines = families[family]
            out.append(f"# TYPE {family} {kind}")
            out.extend(lines)
        return "\n".join(out) + "\n"


def _braces(labels: list[str]) -> str:
    return "{" + ",".join(labels) + "}" if labels else ""
