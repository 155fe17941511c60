"""Tests for the continuous telemetry timeline and SLO watchdog.

Covers the sampler lifecycle (cadence, parking, re-arm across run
segments, zero-cost when idle), the sliding latency windows, the alert
state machine (fire after ``for_seconds``, clear, journal events), the
exporters (JSON, CSV, Chrome counter tracks), decimation, sparklines,
and the bounded-reservoir histogram the hub feeds from.
"""

import json
import math

import pytest

from repro.errors import SimulationError
from repro.obs.journal import install_journal
from repro.obs.metrics import MetricsHub
from repro.obs.timeline import (
    DEFAULT_RULES,
    AlertRule,
    LatencyWindow,
    TimelineConfig,
    TimelineRecorder,
    install_timeline,
    sparkline,
    timeline_to_csv,
)
from repro.sim.core import Environment
from repro.sim.stats import Histogram


def _hub_with_gauge(read):
    hub = MetricsHub()
    hub.register_gauge("test.gauge", read)
    return hub


def _busy(env, seconds, step=1e-4):
    """A process that keeps the simulation busy for ``seconds``."""

    def body():
        elapsed = 0.0
        while elapsed < seconds:
            yield env.timeout(step)
            elapsed += step

    return env.process(body())


# -- sampler lifecycle --------------------------------------------------------
def test_sampling_cadence_and_series():
    env = Environment()
    state = {"v": 0.0}
    hub = _hub_with_gauge(lambda: state["v"])
    recorder = install_timeline(env, hub, TimelineConfig(interval=1e-3))

    _busy(env, 10e-3, step=1e-3)
    env.run()

    # t=0 sample at start() plus one per interval while the workload ran.
    assert recorder.ticks >= 10
    series = recorder.series["test.gauge"]
    times = list(series.times)
    assert times[0] == 0.0
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert all(abs(d - 1e-3) < 1e-12 for d in deltas)


def test_sampler_parks_and_rearms_across_run_segments():
    env = Environment()
    hub = _hub_with_gauge(lambda: 1.0)
    recorder = install_timeline(env, hub, TimelineConfig(interval=1e-3))

    _busy(env, 5e-3, step=1e-3)
    env.run()  # drains: the sampler must park, not spin forever
    ticks_after_first = recorder.ticks

    _busy(env, 5e-3, step=1e-3)
    env.run()  # on_run() re-arms the parked sampler
    assert recorder.ticks > ticks_after_first


def test_constructed_but_unstarted_recorder_schedules_nothing():
    env = Environment()
    hub = _hub_with_gauge(lambda: 1.0)
    before = env._counter
    TimelineRecorder(env, hub, TimelineConfig())
    assert env._counter == before
    assert env.timeline is None

    _busy(env, 2e-3, step=1e-3)
    env.run()
    assert env._counter > before  # the workload itself made events


def test_stop_parks_the_sampler():
    env = Environment()
    hub = _hub_with_gauge(lambda: 1.0)
    recorder = install_timeline(env, hub, TimelineConfig(interval=1e-3))
    _busy(env, 3e-3, step=1e-3)
    env.run()
    recorder.stop()
    assert env.timeline is None
    ticks = recorder.ticks
    _busy(env, 3e-3, step=1e-3)
    env.run()
    assert recorder.ticks == ticks  # stopped: no further samples


def test_counters_queue_pairs_and_gauges_all_sampled():
    from repro.sim.stats import StatsRegistry

    env = Environment()
    hub = _hub_with_gauge(lambda: 2.5)
    reg = StatsRegistry("dev")
    reg.counter("ops").add(7)
    hub.register_registry("dev", reg)

    class _Qp:
        depth, inflight, unreaped = 32, 3, 1
        submitted, completed, reaped, errors = 9, 6, 5, 0

    hub.register_queue_pair("host-kv", _Qp())
    recorder = TimelineRecorder(env, hub, TimelineConfig())
    recorder.start()  # takes the t=now sample
    sampled = {key: series.last() for key, series in recorder.series.items()}
    assert sampled["test.gauge"] == 2.5
    assert sampled["ops{registry=dev}"] == 7.0
    assert sampled["qp.inflight{qp=host-kv}"] == 3.0
    assert sampled["qp.unreaped{qp=host-kv}"] == 1.0
    assert sampled["qp.submitted{qp=host-kv}"] == 9.0
    # the watchdog's own state is a row too
    assert sampled["slo.alert_firing{rule=dram-pressure}"] == 0.0


# -- latency windows ----------------------------------------------------------
def test_latency_window_prunes_and_summarises():
    w = LatencyWindow("cmd.get", window=1.0)
    for i in range(100):
        w.observe(float(i) / 100.0, seconds=float(i + 1) / 1000.0)
    s = w.summary(now=1.0)
    assert s["count"] == 100.0
    assert s["p50"] == 0.050
    assert s["p99"] == 0.099
    # Window slides: at t=1.5 only samples from t>=0.5 remain.
    s = w.summary(now=1.5)
    assert s["count"] == 50.0
    assert s["p50"] == pytest.approx(0.075)
    # Far future: everything pruned.
    assert w.summary(now=10.0) is None
    assert len(w) == 0


def test_latency_window_rejects_bad_window():
    with pytest.raises(SimulationError):
        LatencyWindow("x", window=0.0)


def test_latency_window_empty_returns_none():
    w = LatencyWindow("cmd.get", window=1.0)
    assert w.summary(now=0.0) is None
    # Observed then fully pruned is empty again, not a stale snapshot.
    w.observe(0.0, seconds=1e-3)
    assert w.summary(now=5.0) is None


def test_latency_window_single_sample_percentiles():
    w = LatencyWindow("cmd.get", window=1.0)
    w.observe(0.5, seconds=2e-3)
    s = w.summary(now=1.0)
    assert s == {"count": 1.0, "p50": 2e-3, "p95": 2e-3, "p99": 2e-3}


def test_latency_window_two_sample_percentiles():
    w = LatencyWindow("cmd.get", window=1.0)
    w.observe(0.4, seconds=1e-3)
    w.observe(0.5, seconds=3e-3)
    s = w.summary(now=1.0)
    # Nearest-rank over n=2: p50 is the first value, p95/p99 clamp to the
    # last — never an index past the sample count.
    assert s["count"] == 2.0
    assert s["p50"] == 1e-3
    assert s["p95"] == 3e-3
    assert s["p99"] == 3e-3


def test_windowed_percentiles_appear_as_series():
    env = Environment()
    hub = MetricsHub()
    recorder = install_timeline(env, hub, TimelineConfig(interval=1e-3))

    def body():
        for i in range(10):
            yield env.timeout(1e-3)
            hub.observe_op("cmd.get", 1e-4 * (i + 1))

    env.run(env.process(body()))
    key = "op_latency_p99{op=cmd.get}"
    assert key in recorder.series
    assert "op_latency_rate{op=cmd.get}" in recorder.series
    assert max(recorder.series[key].values) > 0


# -- alert rules --------------------------------------------------------------
def test_alert_rule_validation():
    with pytest.raises(SimulationError):
        AlertRule("bad", "x", "!=", 1.0)
    with pytest.raises(SimulationError):
        AlertRule("bad", "x", ">", 1.0, for_seconds=-1.0)
    rule = AlertRule("ok", "x", ">=", 2.0, for_seconds=1e-3)
    assert rule.violated(2.0) and not rule.violated(1.9)
    assert rule.condition() == "x >= 2 for 0.001s"


def test_alert_fires_after_hold_and_clears():
    env = Environment()
    state = {"v": 0.0}
    hub = _hub_with_gauge(lambda: state["v"])
    install_journal(env)
    rule = AlertRule("hot", "test.gauge", ">", 5.0, for_seconds=3e-3)
    recorder = install_timeline(
        env, hub, TimelineConfig(interval=1e-3, rules=(rule,))
    )

    def body():
        yield env.timeout(2e-3)
        state["v"] = 9.0  # violation starts being observed at t=3ms
        yield env.timeout(2e-3)
        # held only 1ms by t=4ms: must NOT have fired yet
        assert recorder.alert_counts() == {"hot": 0}
        yield env.timeout(3e-3)  # held >= 3ms by t=6ms: fired
        assert recorder.firing() == ["hot"]
        state["v"] = 0.0
        yield env.timeout(2e-3)
        assert recorder.firing() == []

    env.run(env.process(body()))
    assert recorder.alert_counts() == {"hot": 1}
    (alert,) = recorder.alerts
    assert alert.rule == "hot"
    assert alert.series == "test.gauge"
    assert alert.value == 9.0
    assert alert.cleared_at is not None
    assert alert.cleared_at > alert.fired_at
    fires = env.journal.of_type("slo.alert_fire")
    clears = env.journal.of_type("slo.alert_clear")
    assert len(fires) == 1 and len(clears) == 1
    assert fires[0].fields["rule"] == "hot"


def test_alert_hold_resets_when_condition_breaks():
    env = Environment()
    state = {"v": 0.0}
    hub = _hub_with_gauge(lambda: state["v"])
    rule = AlertRule("hot", "test.gauge", ">", 5.0, for_seconds=4e-3)
    recorder = install_timeline(
        env, hub, TimelineConfig(interval=1e-3, rules=(rule,))
    )

    def body():
        # Oscillate: never continuously violated for 4ms.
        for _ in range(6):
            state["v"] = 9.0
            yield env.timeout(2e-3)
            state["v"] = 0.0
            yield env.timeout(2e-3)

    env.run(env.process(body()))
    assert recorder.alert_counts() == {"hot": 0}
    assert not recorder.alerts


def test_alert_rule_glob_matches_labeled_series():
    env = Environment()
    hub = MetricsHub()
    hub.register_gauge("qp.inflight", lambda: 60.0, labels={"qp": "host-kv"})
    hub.register_gauge("qp.inflight", lambda: 1.0, labels={"qp": "soc-blk"})
    rule = AlertRule("backlog", "qp.inflight{qp=host-kv*}", ">=", 48.0)
    recorder = TimelineRecorder(
        env, hub, TimelineConfig(interval=1e-3, rules=(rule,))
    )
    recorder.start()
    assert recorder.firing() == ["backlog"]
    (alert,) = recorder.alerts
    assert alert.series == "qp.inflight{qp=host-kv}"
    assert alert.value == 60.0


def test_default_rules_are_valid():
    names = [r.name for r in DEFAULT_RULES]
    assert len(names) == len(set(names))
    for rule in DEFAULT_RULES:
        assert rule.condition()  # constructs without error


# -- exporters ----------------------------------------------------------------
def _ramped_recorder():
    env = Environment()
    state = {"v": 0.0}
    hub = _hub_with_gauge(lambda: state["v"])
    recorder = install_timeline(env, hub, TimelineConfig(interval=1e-3))

    def body():
        for i in range(8):
            state["v"] = float(i)
            yield env.timeout(1e-3)

    env.run(env.process(body()))
    return recorder


def test_to_json_round_trips():
    recorder = _ramped_recorder()
    doc = json.loads(json.dumps(recorder.to_json(), allow_nan=False))
    assert doc["ticks"] == recorder.ticks
    assert doc["config"]["interval"] == 1e-3
    entry = doc["series"]["test.gauge"]
    assert entry["name"] == "test.gauge"
    assert len(entry["times"]) == len(entry["values"]) == recorder.ticks
    assert doc["alert_counts"] == {r.name: 0 for r in DEFAULT_RULES}


def test_csv_export_matches_series():
    recorder = _ramped_recorder()
    lines = timeline_to_csv(recorder).strip().splitlines()
    assert lines[0] == "time,series,value"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[1] for r in rows} == set(recorder.series)
    rows = [r for r in rows if r[1] == "test.gauge"]
    assert len(rows) == recorder.ticks
    times = [float(r[0]) for r in rows]
    assert times == sorted(times)
    # The doc form exports identically.
    assert timeline_to_csv(recorder.to_json()) == timeline_to_csv(recorder)


def test_counter_track_events_are_well_formed():
    recorder = _ramped_recorder()
    events = recorder.counter_track_events()
    assert events, "ramped run must produce counter samples"
    per_name: dict[str, list[float]] = {}
    for e in events:
        assert e["ph"] == "C"
        assert isinstance(e["args"]["value"], float)
        assert not math.isnan(e["args"]["value"])
        per_name.setdefault(e["name"], []).append(e["ts"])
    for ts_list in per_name.values():
        assert ts_list == sorted(ts_list)  # monotonic per track
    # Microsecond clock: last sample lands at ~8ms = ~8000us.
    assert max(per_name["test.gauge"]) == pytest.approx(8000.0)


def test_chrome_trace_merges_counter_tracks():
    from repro.obs.export import to_chrome_trace
    from repro.obs.trace import install_tracer

    env = Environment()
    hub = _hub_with_gauge(lambda: 1.0)
    tracer = install_tracer(env, hub=hub)
    recorder = install_timeline(env, hub, TimelineConfig(interval=1e-3))

    def body():
        with tracer.span("cmd.get", "cmd", lane="host0"):
            yield env.timeout(2e-3)

    env.run(env.process(body()))
    trace = to_chrome_trace(tracer, timeline=recorder)["traceEvents"]
    phases = {e.get("ph") for e in trace}
    assert "C" in phases and "X" in phases
    # Counter timestamps and span timestamps share the same clock.
    spans = [e for e in trace if e.get("ph") == "X"]
    counters = [e for e in trace if e.get("ph") == "C"]
    assert max(c["ts"] for c in counters) <= (
        max(s["ts"] + s["dur"] for s in spans) + 1e-6
    )


# -- decimation ---------------------------------------------------------------
def test_decimation_bounds_memory_and_doubles_cadence():
    env = Environment()
    hub = _hub_with_gauge(lambda: 1.0)
    config = TimelineConfig(interval=1e-4, max_ticks=16)
    recorder = install_timeline(env, hub, config)
    _busy(env, 100 * 1e-4, step=1e-4)
    env.run()
    # Decimation halves retention and doubles the cadence, so the tick
    # counter keeps growing past max_ticks while retained points stay bounded.
    assert recorder.ticks >= config.max_ticks
    assert len(recorder.series["test.gauge"].times) <= config.max_ticks
    assert recorder._interval > config.interval
    assert recorder.to_json()["config"]["effective_interval"] == recorder._interval


def test_config_validation():
    with pytest.raises(SimulationError):
        TimelineConfig(interval=0.0)
    with pytest.raises(SimulationError):
        TimelineConfig(window=-1.0)
    with pytest.raises(SimulationError):
        TimelineConfig(max_ticks=2)


# -- sparklines ---------------------------------------------------------------
def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"
    ramp = sparkline([0.0, 1.0, 2.0, 3.0])
    assert ramp[0] == "▁" and ramp[-1] == "█"
    wide = sparkline([float(i) for i in range(1000)], width=10)
    assert len(wide) == 10
    assert wide[0] == "▁" and wide[-1] == "█"


# -- bounded histograms -------------------------------------------------------
def test_reservoir_histogram_bounds_samples_exactly():
    h = Histogram("lat", max_samples=64)
    for i in range(10_000):
        h.record(float(i))
    s = h.summary()
    assert s["count"] == 10_000.0
    assert s["mean"] == pytest.approx(4999.5)
    assert s["min"] == 0.0 and s["max"] == 9999.0
    assert len(h._sorted) == 64
    # Percentiles come from the reservoir: plausible, not exact.
    assert 2000.0 < s["p50"] < 8000.0


def test_reservoir_histogram_is_deterministic_per_name():
    def fill(name):
        h = Histogram(name, max_samples=32)
        for i in range(1000):
            h.record(float(i))
        return sorted(h._sorted)

    assert fill("cmd.get") == fill("cmd.get")  # crc32-seeded reservoir


# -- the observed runs ---------------------------------------------------------
def test_timed_selftest_records_device_series(observed_run):
    recorder = observed_run("obs_selftest", "trace", "timeline").testbed.env.timeline
    assert recorder.ticks > 10
    assert "soc.query_queue_depth" in recorder.series
    assert "dram.budget_used_frac" in recorder.series
    assert any(k.startswith("op_latency_p99{") for k in recorder.series)
    json.dumps(recorder.to_json(), allow_nan=False)


def test_saturated_workload_trips_the_watchdog(observed_run):
    kv = observed_run("obs_saturate", "timeline").testbed
    recorder = kv.env.timeline
    assert recorder.alert_counts()["query-queue-saturated"] >= 1
    fires = kv.env.journal.of_type("slo.alert_fire")
    assert any(e.fields["rule"] == "query-queue-saturated" for e in fires)
    # Saturation subsided by run end: the alert cleared.
    assert "query-queue-saturated" not in recorder.firing()
    clears = kv.env.journal.of_type("slo.alert_clear")
    assert any(e.fields["rule"] == "query-queue-saturated" for e in clears)
