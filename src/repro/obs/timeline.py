"""Continuous telemetry timeline: virtual-time sampling + SLO watchdog.

Where :mod:`repro.obs.metrics` answers "what were the totals when the run
ended", the timeline answers "how did the system evolve *during* the run":
queue depths, compaction backlog, DRAM pressure, and windowed tail latency
become labeled :class:`~repro.sim.stats.Series` sampled on a fixed
virtual-clock cadence.

The sampler is a self-rescheduling simulation event (a plain
``env.timeout`` with a callback — no process, no generator frame).  Two
properties keep it deterministic and unobtrusive:

* **Pure reads.**  A tick reads gauges/counters and appends floats; it
  never touches simulated resources, so interleaving tick events with
  workload events cannot move the virtual clock or reorder outcomes.
* **Parking.**  When a tick finds no other scheduled event, the sampler
  parks instead of rescheduling — otherwise ``env.run()`` would never
  drain.  The next ``env.run`` segment re-arms it (via the one attribute
  check ``Environment.run`` performs), so multi-phase benchmarks keep a
  continuous cadence without per-phase wiring.

A tick is compiled: the hub's counter and gauge rows are resolved once into
an ordered plan of ``(series, reader)`` slots (rebuilt only when a row or a
latency window appears), alert rules are matched to slot indices when the
plan is built, and a tick is one pass of reader calls appended to a flat
``array('d')``.  :class:`Series` objects are built from those rows when the
series are read (export, ``recorder.series``) or decimated.

Zero-cost contract (PR 2's): nothing here is installed by default; with no
recorder attached the simulation schedules **zero** extra events and the
golden-clock digests are byte-identical.  Enabling the timeline adds tick
events, but ticks are pure reads, so every workload outcome (clocks
included) still matches the untimed run.

The **SLO watchdog** evaluates declarative :class:`AlertRule`\\ s against
each tick's sampled values.  A rule holds a comparison (``series > 12``)
and an optional duration (``for_seconds``): the condition must hold
continuously that long before the alert fires.  Fire/clear transitions
emit ``slo.alert_fire`` / ``slo.alert_clear`` journal events; each rule's
fire count and firing state are hub rows (``slo.alerts_fired{rule=...}``,
``slo.alert_firing{rule=...}``), so they reach the Prometheus dump and are
sampled like any other row — a tick reads them before it evaluates the
rules, so their series trail the watchdog by one tick.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from fnmatch import fnmatchcase
from functools import partial
from math import isnan, nan
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.journal import journal_event
from repro.obs.metrics import COUNTER, GAUGE, SUMMARY
from repro.obs.probe import get_probe
from repro.sim.stats import Series, nan_to_zero, series_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsHub
    from repro.sim.core import Environment

__all__ = [
    "DEFAULT_RULES",
    "AlertRule",
    "Alert",
    "LatencyWindow",
    "TimelineConfig",
    "TimelineRecorder",
    "install_timeline",
    "sparkline",
    "timeline_to_csv",
]

#: Comparison operators an :class:`AlertRule` may use.
_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


class LatencyWindow:
    """Sliding-window latency percentiles for one op type.

    Holds ``(time, latency)`` pairs fed by ``Tracer.finish`` (through the
    hub) and prunes to the trailing ``window`` seconds of *virtual* time at
    read, so a tick's p50/p95/p99 reflect recent operations, not the whole
    run.  Memory is bounded by the op rate times the window, not run length.
    """

    __slots__ = ("op", "window", "_samples", "_sorted", "_stale", "_quantiles")

    def __init__(self, op: str, window: float):
        if window <= 0:
            raise SimulationError("latency window must be positive")
        self.op = op
        self.window = window
        self._samples: deque[tuple[float, float]] = deque()
        self._sorted: list[float] = []  # the window's latencies, ascending
        self._stale = False  # a sample arrived or left since _quantiles was made
        self._quantiles: Optional[tuple[float, ...]] = None

    def observe(self, time: float, seconds: float) -> None:
        self._samples.append((time, seconds))
        insort(self._sorted, seconds)
        self._stale = True

    def __len__(self) -> int:
        return len(self._samples)

    def quantiles(self, now: float) -> Optional[tuple[float, ...]]:
        """``(count, p50, p95, p99)`` over the trailing window; None when empty.

        The latencies are kept sorted as they arrive and leave, and the
        tuple is rebuilt only when one did since the last call.
        """
        cutoff = now - self.window
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            del self._sorted[bisect_left(self._sorted, samples.popleft()[1])]
            self._stale = True
        if self._stale:
            self._stale = False
            values = self._sorted
            n = len(values)
            # nearest-rank: ceil(p/100 * n) - 1, which lies in [0, n-1] for
            # every n >= 1, so no percentile can index past a tiny window
            self._quantiles = (
                (float(n), *(values[-(-p * n // 100) - 1] for p in (50, 95, 99)))
                if n
                else None
            )
        return self._quantiles

    def summary(self, now: float) -> Optional[dict[str, float]]:
        """:meth:`quantiles` as a ``count/p50/p95/p99`` dict."""
        row = self.quantiles(now)
        return row and dict(zip(("count", "p50", "p95", "p99"), row))


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO condition, evaluated at every sample tick.

    ``series`` is matched against flat series keys (``fnmatch`` patterns
    allowed, so ``op_latency_p99{op=cmd.get*}`` covers sync and async
    GETs).  The comparison must hold continuously for ``for_seconds`` of
    virtual time before the alert fires; it clears on the first tick the
    condition stops holding on every matched series.
    """

    name: str
    series: str
    op: str
    threshold: float
    for_seconds: float = 0.0
    description: str = ""

    def __post_init__(self):
        if self.op not in _OPS:
            raise SimulationError(
                f"alert rule {self.name!r}: unknown comparison {self.op!r}"
            )
        if self.for_seconds < 0:
            raise SimulationError(
                f"alert rule {self.name!r}: negative for_seconds"
            )

    def violated(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    def condition(self) -> str:
        cond = f"{self.series} {self.op} {self.threshold:g}"
        if self.for_seconds > 0:
            cond += f" for {self.for_seconds:g}s"
        return cond


#: The stock watchdog: device-side saturation signals every testbed exposes.
DEFAULT_RULES: tuple[AlertRule, ...] = (
    AlertRule(
        "query-queue-saturated",
        "soc.query_queue_depth",
        ">",
        12.0,
        for_seconds=5e-3,
        description="SoC query admission queue deeper than 12 for 5ms",
    ),
    AlertRule(
        "dram-pressure",
        "dram.budget_used_frac",
        ">",
        0.9,
        description="SoC DRAM budget over 90% reserved",
    ),
    AlertRule(
        "qp-backlog",
        "qp.inflight{qp=host-kv*}",
        ">=",
        48.0,
        for_seconds=5e-3,
        description="host KV queue pair nearly at full depth for 5ms",
    ),
)


@dataclass
class Alert:
    """One fire/clear episode of a rule (cleared_at None while firing)."""

    rule: str
    condition: str
    series: str  #: the flat key of the series that tripped the rule
    value: float  #: the sampled value at fire time
    fired_at: float
    cleared_at: Optional[float] = None

    def as_dict(self) -> dict[str, Any]:
        out = {
            "rule": self.rule,
            "condition": self.condition,
            "series": self.series,
            "value": nan_to_zero(self.value),
            "fired_at": self.fired_at,
        }
        if self.cleared_at is not None:
            out["cleared_at"] = self.cleared_at
        return out


@dataclass(frozen=True)
class TimelineConfig:
    """Sampling cadence, percentile window, memory bound, and alert rules."""

    #: virtual seconds between samples (0.1ms suits the micro benches,
    #: whose phases run single-digit virtual milliseconds to ~100ms)
    interval: float = 1e-4
    #: trailing window for op-latency percentiles
    window: float = 5e-3
    #: tick-count bound: when reached, every series is decimated 2x and the
    #: effective cadence doubles, so arbitrarily long runs stay bounded
    max_ticks: int = 4096
    rules: tuple[AlertRule, ...] = DEFAULT_RULES

    def __post_init__(self):
        if self.interval <= 0:
            raise SimulationError("timeline interval must be positive")
        if self.window <= 0:
            raise SimulationError("timeline window must be positive")
        if self.max_ticks < 4:
            raise SimulationError("timeline max_ticks must be >= 4")


class _RuleState:
    """Watchdog bookkeeping for one rule."""

    __slots__ = ("violated_since", "fired_count", "current")

    def __init__(self):
        self.violated_since: Optional[float] = None
        self.fired_count = 0
        self.current: Optional[Alert] = None  #: the episode firing now, if any

    def firing(self) -> float:
        return float(self.current is not None)


#: the four series one latency window feeds, in :meth:`LatencyWindow.quantiles` order
_WINDOW_SERIES = ("op_latency_rate", "op_latency_p50", "op_latency_p95", "op_latency_p99")
_NO_QUANTILES = (nan,) * len(_WINDOW_SERIES)


class _Plan:
    """One compiled tick: ordered series slots, their readers, the alert
    rules' slot indices — and the rows sampled while it was current."""

    __slots__ = ("slots", "readers", "windows", "rule_slots", "times", "rows")

    def __init__(self, recorder: "TimelineRecorder"):
        #: (series key, name, labels), one per value of a row
        self.slots: list[tuple[str, str, Optional[dict[str, str]]]] = []
        #: zero-arg reads filling the leading slots of a row: every counter
        #: and gauge row of the hub (summaries are the windows' business)
        self.readers: list[Callable[[], float]] = []
        for row in recorder.hub.rows():
            if row.kind != SUMMARY:
                self.slots.append((row.key, row.name, row.labels))
                self.readers.append(row.read)
        #: the trailing slots: four per latency window, NaN while it is empty
        self.windows = [w for _op, w in sorted(recorder.windows.items())]
        for window in self.windows:
            labels = {"op": window.op}
            for name in _WINDOW_SERIES:
                self.slots.append((series_key(name, labels), name, labels))
        #: per rule: the slot indices its series pattern matches, in order
        self.rule_slots = [
            (
                rule,
                recorder._rule_states[rule.name],
                [
                    i for i, (key, _n, _l) in enumerate(self.slots)
                    if key == rule.series or fnmatchcase(key, rule.series)
                ],
            )
            for rule in recorder.config.rules
        ]
        self.times = array("d")
        self.rows = array("d")  # len(slots) values per tick, flat


class TimelineRecorder:
    """Samples every hub metric source on a virtual-clock cadence.

    Construction is free (no events); :meth:`start` arms the sampler and
    registers the recorder on the hub so finished command/job latencies
    feed the sliding windows.  ``install_timeline`` is the usual entry
    point.
    """

    def __init__(
        self,
        env: "Environment",
        hub: "MetricsHub",
        config: TimelineConfig = TimelineConfig(),
    ):
        self.env = env
        self.hub = hub
        self.config = config
        self.windows: dict[str, LatencyWindow] = {}
        self.alerts: list[Alert] = []
        self.ticks = 0  #: samples taken (survives decimation)
        self.started = False
        self._interval = config.interval  # doubles on decimation
        self._retained = 0  # ticks since start, halved by each decimation
        self._rule_states = {rule.name: _RuleState() for rule in config.rules}
        self._pending = None  # the armed timeout, if any
        self._series: dict[str, Series] = {}
        self._plans: list[_Plan] = []  # rows not yet folded into _series
        self._plan_stamp = -1  # hub rows + windows the current plan was built at

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "TimelineRecorder":
        """Attach to the hub, take the t=now sample, arm the sampler."""
        if self.started:
            return self
        self.started = True
        get_probe(self.env).timeline = self
        self.hub.attach_timeline(self)
        for name, state in self._rule_states.items():
            labels = {"rule": name}
            self.hub.add("slo.alerts_fired", COUNTER,
                         partial(getattr, state, "fired_count"), labels)
            self.hub.add("slo.alert_firing", GAUGE, state.firing, labels)
        self.sample()
        self._arm()
        return self

    def stop(self) -> None:
        """Park the sampler; recorded series stay readable."""
        self.started = False
        if self._pending is not None:
            try:
                self._pending.callbacks.remove(self._tick)
            except ValueError:
                pass
            self._pending = None
        if self.env.timeline is self:
            self.env.probe.timeline = None

    def on_run(self) -> None:
        """``Environment.run`` hook: re-arm a parked sampler."""
        if self.started and self._pending is None:
            self._arm()

    def _arm(self) -> None:
        self._pending = self.env.timeout(self._interval)
        self._pending.callbacks.append(self._tick)

    def _tick(self, _event) -> None:
        self._pending = None
        if not self.started:
            return
        self.sample()
        # Reschedule only while the simulation has other work: a perpetual
        # sampler would keep env.run() from ever draining.  A later run
        # segment re-arms via on_run().
        if self.env._imm or self.env._queue:
            self._arm()

    # -- tracer feed ---------------------------------------------------------
    def observe_latency(self, op: str, seconds: float) -> None:
        """One finished command/job latency (forwarded by the hub)."""
        window = self.windows.get(op)
        if window is None:
            window = LatencyWindow(op, self.config.window)
            self.windows[op] = window
        window.observe(self.env.now, seconds)

    # -- sampling ------------------------------------------------------------
    def sample(self) -> None:
        """One tick: read every slot, append the row, run the watchdog.

        Pure state reads — no simulation events, no resource usage.
        """
        stamp = self.hub.version + len(self.windows)  # grows as rows appear
        if stamp != self._plan_stamp:
            self._plan_stamp = stamp
            self._plans.append(_Plan(self))
        plan = self._plans[-1]
        now = self.env.now
        values = [read() for read in plan.readers]
        for window in plan.windows:
            values += window.quantiles(now) or _NO_QUANTILES
        row = array("d", values)
        plan.times.append(now)
        plan.rows.extend(row)
        self.ticks += 1
        self._retained += 1
        self._evaluate_rules(now, plan, row)
        if self._retained >= self.config.max_ticks:
            self._decimate()

    @property
    def series(self) -> dict[str, Series]:
        """Every sampled series by flat key (rows folded in on read)."""
        for plan in self._plans:
            width = len(plan.slots)
            first_window = len(plan.readers)
            times = plan.times.tolist()
            for i, (key, name, labels) in enumerate(plan.slots):
                slot_times, values = times, plan.rows[i::width].tolist()
                if i >= first_window:  # an empty window sampled nothing
                    kept = [j for j, v in enumerate(values) if not isnan(v)]
                    slot_times = [times[j] for j in kept]
                    values = [values[j] for j in kept]
                if not values:
                    continue
                series = self._series.get(key)
                if series is None:
                    series = self._series[key] = Series(name, labels)
                series.times += slot_times
                series.values += values
        # the current plan keeps sampling into fresh rows
        current = self._plans[-1:]
        for plan in current:
            plan.times = array("d")
            plan.rows = array("d")
        self._plans = current
        return self._series

    def _decimate(self) -> None:
        """Halve retention and double the cadence (memory bound)."""
        for series in self.series.values():
            series.decimate()
        self._retained = (self._retained + 1) // 2
        self._interval *= 2

    # -- watchdog ------------------------------------------------------------
    def _evaluate_rules(self, now: float, plan: _Plan, row: array) -> None:
        for rule, state, slots in plan.rule_slots:
            violated = _OPS[rule.op]
            worst: Optional[tuple[str, float]] = None
            for i in slots:
                value = row[i]
                if violated(value, rule.threshold):
                    # "worst" follows the rule's own direction: the value
                    # furthest past the threshold (first match wins ties).
                    if worst is None or violated(value, worst[1]):
                        worst = (plan.slots[i][0], value)
            if worst is None:
                if state.current is not None:
                    state.current.cleared_at = now
                    state.current = None
                    journal_event(
                        self.env, "slo.alert_clear",
                        rule=rule.name, condition=rule.condition(),
                    )
                state.violated_since = None
                continue
            if state.violated_since is None:
                state.violated_since = now
            if state.current is None and now - state.violated_since >= rule.for_seconds:
                state.fired_count += 1
                state.current = Alert(
                    rule=rule.name,
                    condition=rule.condition(),
                    series=worst[0],
                    value=worst[1],
                    fired_at=now,
                )
                self.alerts.append(state.current)
                journal_event(
                    self.env, "slo.alert_fire",
                    rule=rule.name, condition=rule.condition(),
                    series=worst[0], value=worst[1],
                )

    # -- watchdog state for exports ------------------------------------------
    def firing(self) -> list[str]:
        """Names of rules currently in the firing state."""
        return [
            name for name, state in sorted(self._rule_states.items())
            if state.current is not None
        ]

    def alert_counts(self) -> dict[str, int]:
        """rule name -> times fired, for every configured rule."""
        return {
            name: state.fired_count
            for name, state in sorted(self._rule_states.items())
        }

    # -- exports -------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """The whole timeline as one JSON-safe document."""
        return {
            "config": {
                "interval": self.config.interval,
                "effective_interval": self._interval,
                "window": self.config.window,
                "max_ticks": self.config.max_ticks,
                "rules": [
                    {
                        "name": r.name,
                        "condition": r.condition(),
                        "description": r.description,
                    }
                    for r in self.config.rules
                ],
            },
            "ticks": self.ticks,
            "series": {
                key: series.as_dict()
                for key, series in sorted(self.series.items())
            },
            "alerts": [a.as_dict() for a in self.alerts],
            "alert_counts": self.alert_counts(),
            "firing": self.firing(),
        }

    def counter_track_events(self) -> list[dict[str, Any]]:
        """Chrome-trace counter (``ph: "C"``) events, one track per series.

        Merged into :func:`repro.obs.export.to_chrome_trace` output so
        saturation curves render directly under the span timeline in
        Perfetto, on the same microsecond virtual clock.
        """
        events: list[dict[str, Any]] = []
        for key, series in sorted(self.series.items()):
            for t, v in zip(series.times, series.values):
                events.append(
                    {
                        "name": key,
                        "ph": "C",
                        "ts": t * 1e6,
                        "pid": 1,
                        "args": {"value": nan_to_zero(v)},
                    }
                )
        return events


def timeline_to_csv(recorder_or_doc) -> str:
    """Long-form CSV (``time,series,value``) of a recorder or its to_json."""
    if isinstance(recorder_or_doc, TimelineRecorder):
        doc = recorder_or_doc.to_json()
    else:
        doc = recorder_or_doc
    lines = ["time,series,value"]
    for key in sorted(doc["series"]):
        entry = doc["series"][key]
        for t, v in zip(entry["times"], entry["values"]):
            lines.append(f"{t!r},{key},{v!r}")
    return "\n".join(lines) + "\n"


def install_timeline(
    env: "Environment",
    hub: "MetricsHub",
    config: TimelineConfig = TimelineConfig(),
) -> TimelineRecorder:
    """Create, attach and start a :class:`TimelineRecorder`."""
    return TimelineRecorder(env, hub, config).start()


#: Eight-level unicode bars, lowest to highest.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 48) -> str:
    """Render a series as a fixed-width unicode sparkline.

    Values are bucketed to ``width`` columns (bucket mean) and normalised
    min..max; a flat series renders as a run of the lowest block.
    """
    if not values:
        return ""
    if len(values) > width:
        per = len(values) / width
        buckets = []
        for i in range(width):
            lo, hi = int(i * per), max(int((i + 1) * per), int(i * per) + 1)
            chunk = values[lo:hi]
            buckets.append(sum(chunk) / len(chunk))
    else:
        buckets = list(values)
    lo, hi = min(buckets), max(buckets)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(buckets)
    out = []
    for v in buckets:
        idx = int((v - lo) / span * (len(_SPARK_BLOCKS) - 1))
        out.append(_SPARK_BLOCKS[idx])
    return "".join(out)
