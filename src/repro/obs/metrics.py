"""Metrics aggregation and Prometheus-style text export.

A :class:`MetricsHub` is the single place observability consumers look:
component :class:`~repro.sim.stats.StatsRegistry` instances, SSD
:class:`~repro.ssd.metrics.IoStats` (so channel-busy time shows up in the
dump), link byte counters, and the per-op-type latency histograms fed by the
tracer (one :class:`~repro.sim.stats.Histogram` per command/job name).

The text format follows the Prometheus exposition conventions: ``# TYPE``
lines, ``_total`` suffixes on counters, label pairs for per-channel and
per-op series, and summaries with ``quantile`` labels for histograms.  All
values are taken from the simulation's virtual clock/state at render time.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Optional

from repro.sim.stats import Histogram, StatsRegistry, series_key

__all__ = ["MetricsHub", "OP_LATENCY_MAX_SAMPLES", "sanitize_metric_name"]

#: Reservoir bound for per-op latency histograms.  Count/sum/min/max stay
#: exact; percentiles come from a uniform sample of this many values, so a
#: 1M-key scale-bench run holds ~8k floats per op instead of one per command.
OP_LATENCY_MAX_SAMPLES = 8192

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


class MetricsHub:
    """Registry of every metric source in one testbed."""

    def __init__(self, namespace: str = "repro"):
        self.namespace = namespace
        self.registries: dict[str, StatsRegistry] = {}
        self.io_stats: dict[str, Any] = {}
        self.links: dict[str, Any] = {}
        #: devices whose ``.faults`` attribute may hold a FaultPlan
        self.fault_sources: dict[str, Any] = {}
        #: per-op-type latency histograms fed by Tracer.finish
        self.op_latency: dict[str, Histogram] = {}
        #: NVMe queue pairs (host KV + SoC block), for in-flight depth gauges
        self.queue_pairs: dict[str, Any] = {}
        #: flat series key -> (name, zero-arg read fn, labels); the timeline
        #: samples every entry each tick, the one-shot dump reads them once
        self.gauges: dict[
            str, tuple[str, Callable[[], float], Optional[dict[str, str]]]
        ] = {}
        #: attached :class:`~repro.obs.timeline.TimelineRecorder`, if any
        self.timeline: Any = None
        #: bumped by every ``register_*`` call, so a sampler that compiled
        #: the sources into a plan knows when to recompile
        self.version = 0

    # -- registration --------------------------------------------------------
    def register_registry(self, name: str, registry: StatsRegistry) -> None:
        """Expose a component's counters/ratios/histograms in the dump."""
        self.registries[name] = registry
        self.version += 1

    def register_io(self, name: str, stats: Any) -> None:
        """Expose an SSD's :class:`IoStats`, including channel-busy time."""
        self.io_stats[name] = stats
        self.version += 1

    def register_link(self, name: str, link: Any) -> None:
        """Expose a transport link's byte counters."""
        self.links[name] = link
        self.version += 1

    def register_queue_pair(self, name: str, qp: Any) -> None:
        """Expose a queue pair's depth/in-flight/submitted/completed gauges."""
        self.queue_pairs[name] = qp
        self.version += 1

    def register_faults(self, name: str, holder: Any) -> None:
        """Expose fault-injection trip counts for a device.

        ``holder`` is the device whose ``faults`` attribute carries the
        current :class:`~repro.ssd.faults.FaultPlan` (or ``None``).  Plans
        are typically armed *after* observability install, so the hub reads
        through the holder at render time rather than capturing the plan.
        """
        self.fault_sources[name] = holder
        self.version += 1

    def register_gauge(
        self,
        name: str,
        fn: Callable[[], float],
        labels: Optional[dict[str, str]] = None,
    ) -> None:
        """Expose an instantaneous value (queue depth, DRAM pressure, ...).

        Gauges cost nothing until read: the one-shot dump and each timeline
        tick call ``fn()``; nothing is recorded at registration.  Entries
        are keyed by the flat series key, so one metric name may carry many
        label sets (e.g. ``qp.inflight`` per queue pair).
        """
        labels = dict(labels) if labels else None
        self.gauges[series_key(name, labels)] = (name, fn, labels)
        self.version += 1

    def attach_timeline(self, recorder: Any) -> None:
        """Bind a timeline recorder so op latencies feed its windows."""
        self.timeline = recorder

    # -- tracer feed ---------------------------------------------------------
    def observe_op(self, op: str, seconds: float) -> None:
        """Record one finished command/job latency (called by the tracer)."""
        hist = self.op_latency.get(op)
        if hist is None:
            hist = Histogram(op, max_samples=OP_LATENCY_MAX_SAMPLES)
            self.op_latency[op] = hist
        hist.record(seconds)
        if self.timeline is not None:
            self.timeline.observe_latency(op, seconds)

    def op_summaries(self) -> dict[str, dict[str, float]]:
        """Per-op latency summaries with percentiles, for results JSON."""
        return {op: h.summary() for op, h in sorted(self.op_latency.items())}

    # -- export --------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Nested JSON-safe view of everything registered."""
        out: dict[str, Any] = {
            "registries": {
                name: reg.as_dict() for name, reg in sorted(self.registries.items())
            },
            "op_latency": self.op_summaries(),
        }
        if self.io_stats:
            out["io"] = {
                name: {
                    "bytes_read": io.bytes_read,
                    "bytes_written": io.bytes_written,
                    "read_ops": io.read_ops,
                    "write_ops": io.write_ops,
                    "erase_ops": io.erase_ops,
                    "gc_bytes_copied": io.gc_bytes_copied,
                    "channel_busy_seconds": dict(sorted(io.channel_busy.items())),
                }
                for name, io in sorted(self.io_stats.items())
            }
        if self.links:
            out["links"] = {
                name: {"bytes_tx": link.bytes_tx, "bytes_rx": link.bytes_rx}
                for name, link in sorted(self.links.items())
            }
        if self.fault_sources:
            out["faults"] = {
                name: self._fault_state(holder)
                for name, holder in sorted(self.fault_sources.items())
            }
        if self.queue_pairs:
            out["queues"] = {
                name: qp.introspect()
                for name, qp in sorted(self.queue_pairs.items())
            }
        if self.gauges:
            out["gauges"] = {
                key: float(fn())
                for key, (_name, fn, _labels) in sorted(self.gauges.items())
            }
        if self.timeline is not None:
            out["slo"] = {
                "alert_counts": self.timeline.alert_counts(),
                "firing": self.timeline.firing(),
                "alerts": [a.as_dict() for a in self.timeline.alerts],
            }
        return out

    @staticmethod
    def _fault_state(holder: Any) -> dict[str, Any]:
        plan = getattr(holder, "faults", None)
        if plan is None:
            return {"armed": False, "trips_read": 0, "trips_write": 0}
        return {
            "armed": True,
            "trips_read": plan.trips_read,
            "trips_write": plan.trips_write,
            "exhausted": plan.exhausted,
        }

    def to_prometheus(self) -> str:
        """Render every registered source in Prometheus text format."""
        ns = sanitize_metric_name(self.namespace)
        lines: list[str] = []

        for reg_name, registry in sorted(self.registries.items()):
            data = registry.as_dict()
            base = f"{ns}_{sanitize_metric_name(reg_name)}"
            for name, value in sorted(data["counters"].items()):
                metric = f"{base}_{sanitize_metric_name(name)}_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {_fmt(value)}")
            for name, pair in sorted(data["hit_ratios"].items()):
                metric = f"{base}_{sanitize_metric_name(name)}"
                lines.append(f"# TYPE {metric}_hits_total counter")
                lines.append(f"{metric}_hits_total {_fmt(pair['hits'])}")
                lines.append(f"# TYPE {metric}_misses_total counter")
                lines.append(f"{metric}_misses_total {_fmt(pair['misses'])}")
                lines.append(f"# TYPE {metric}_hit_ratio gauge")
                lines.append(f"{metric}_hit_ratio {_fmt(pair['hit_ratio'])}")
            for name, summary in sorted(data["histograms"].items()):
                metric = f"{base}_{sanitize_metric_name(name)}"
                lines.extend(_summary_lines(metric, summary))

        for dev_name, io in sorted(self.io_stats.items()):
            base = f"{ns}_ssd"
            label = f'device="{dev_name}"'
            for field in ("bytes_read", "bytes_written", "read_ops",
                          "write_ops", "erase_ops", "gc_bytes_copied"):
                metric = f"{base}_{field}_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric}{{{label}}} {_fmt(getattr(io, field))}")
            metric = f"{base}_channel_busy_seconds_total"
            lines.append(f"# TYPE {metric} counter")
            for channel, busy in sorted(io.channel_busy.items()):
                lines.append(f'{metric}{{{label},channel="{channel}"}} {_fmt(busy)}')

        for link_name, link in sorted(self.links.items()):
            base = f"{ns}_link"
            label = f'link="{link_name}"'
            for field in ("bytes_tx", "bytes_rx"):
                metric = f"{base}_{field}_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric}{{{label}}} {_fmt(getattr(link, field))}")

        for dev_name, holder in sorted(self.fault_sources.items()):
            state = self._fault_state(holder)
            label = f'device="{dev_name}"'
            metric = f"{ns}_fault_trips_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f'{metric}{{{label},op="read"}} {_fmt(state["trips_read"])}')
            lines.append(f'{metric}{{{label},op="write"}} {_fmt(state["trips_write"])}')
            metric = f"{ns}_fault_plan_armed"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric}{{{label}}} {_fmt(1 if state['armed'] else 0)}")

        for qp_name, qp in sorted(self.queue_pairs.items()):
            state = qp.introspect()
            label = f'qp="{qp_name}"'
            for field in ("submitted", "completed"):
                metric = f"{ns}_qp_{field}_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric}{{{label}}} {_fmt(state[field])}")
            for field in ("depth", "inflight"):
                metric = f"{ns}_qp_{field}"
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric}{{{label}}} {_fmt(state[field])}")

        for _key, (gauge_name, fn, labels) in sorted(self.gauges.items()):
            metric = f"{ns}_{sanitize_metric_name(gauge_name)}"
            lines.append(f"# TYPE {metric} gauge")
            if labels:
                inner = ",".join(
                    f'{sanitize_metric_name(k)}="{v}"'
                    for k, v in sorted(labels.items())
                )
                lines.append(f"{metric}{{{inner}}} {_fmt(fn())}")
            else:
                lines.append(f"{metric} {_fmt(fn())}")

        if self.op_latency:
            metric = f"{ns}_op_latency_seconds"
            lines.append(f"# TYPE {metric} summary")
            for op, hist in sorted(self.op_latency.items()):
                label = f'op="{op}"'
                for q, p in ((0.5, 50), (0.95, 95), (0.99, 99)):
                    lines.append(
                        f'{metric}{{{label},quantile="{q}"}} '
                        f"{_fmt(hist.percentile(p))}"
                    )
                lines.append(f"{metric}_sum{{{label}}} {_fmt(hist.mean * hist.count)}")
                lines.append(f"{metric}_count{{{label}}} {_fmt(hist.count)}")

        if self.timeline is not None:
            recorder = self.timeline
            firing = set(recorder.firing())
            metric = f"{ns}_slo_alerts_fired_total"
            lines.append(f"# TYPE {metric} counter")
            for rule, count in recorder.alert_counts().items():
                lines.append(f'{metric}{{rule="{rule}"}} {_fmt(count)}')
            metric = f"{ns}_slo_alert_firing"
            lines.append(f"# TYPE {metric} gauge")
            for rule in recorder.alert_counts():
                lines.append(
                    f'{metric}{{rule="{rule}"}} {_fmt(1 if rule in firing else 0)}'
                )
            now = recorder.env.now
            windowed = {
                op: recorder.windows[op].summary(now)
                for op in sorted(recorder.windows)
            }
            windowed = {op: s for op, s in windowed.items() if s is not None}
            if windowed:
                metric = f"{ns}_op_latency_windowed_seconds"
                lines.append(f"# TYPE {metric} summary")
                for op, summary in windowed.items():
                    label = f'op="{op}"'
                    for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                        lines.append(
                            f'{metric}{{{label},quantile="{q}"}} '
                            f"{_fmt(summary[key])}"
                        )
                    lines.append(
                        f"{metric}_count{{{label}}} {_fmt(summary['count'])}"
                    )

        return "\n".join(lines) + "\n"


def _summary_lines(metric: str, summary: dict[str, float]) -> list[str]:
    lines = [f"# TYPE {metric} summary"]
    for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
        lines.append(f'{metric}{{quantile="{q}"}} {_fmt(summary[key])}')
    count = summary["count"]
    mean = summary["mean"]
    total = 0.0 if count == 0 else mean * count
    lines.append(f"{metric}_sum {_fmt(total)}")
    lines.append(f"{metric}_count {_fmt(count)}")
    return lines
