"""Tests for the metrics hub: its rows, JSON view and Prometheus export."""

import json
from types import SimpleNamespace

from repro.obs.metrics import SUMMARY, MetricsHub, sanitize_metric_name
from repro.sim.stats import Histogram, StatsRegistry
from repro.ssd.metrics import IoStats


def test_registry_as_dict_is_json_safe():
    hub = MetricsHub()
    reg = StatsRegistry("kvcsd")
    reg.counter("puts").add(5)
    hub.register_registry("kvcsd", reg)
    hub.add("lat", SUMMARY, Histogram("lat").summary)  # empty: exports 0.0
    hist = Histogram("lat2")
    hist.record(2.0)
    hub.add("lat2", SUMMARY, hist.summary)

    data = hub.as_dict()
    json.dumps(data, allow_nan=False)  # raises if any NaN leaked
    assert data["counters"] == {"puts{registry=kvcsd}": 5.0}
    assert data["summaries"]["lat"]["mean"] == 0.0
    h = data["summaries"]["lat2"]
    assert (h["p50"], h["p95"], h["p99"]) == (2.0, 2.0, 2.0)


def test_sanitize_metric_name():
    assert sanitize_metric_name("cmd.bulk_put") == "cmd_bulk_put"
    assert sanitize_metric_name("9lives") == "_9lives"
    assert sanitize_metric_name("///") == "unnamed"


_FAKE_SSD = SimpleNamespace(
    name="zns0",
    faults=None,
    geometry=SimpleNamespace(n_channels=3),
    stats=IoStats(
        bytes_read=100, bytes_written=200, read_ops=3, write_ops=4,
        erase_ops=1, gc_bytes_copied=50, channel_busy={0: 0.5, 1: 0.25},
    ),
)


def _sample_hub() -> MetricsHub:
    hub = MetricsHub()
    reg = StatsRegistry("kvcsd")
    reg.counter("pairs_inserted").add(7)
    hub.register_registry("kvcsd", reg)
    hub.register_ssd(_FAKE_SSD)
    hub.register_link("pcie", SimpleNamespace(bytes_tx=1000, bytes_rx=2000))
    hub.observe_op("cmd.get", 0.002)
    hub.observe_op("cmd.get", 0.004)
    return hub


def test_hub_as_dict():
    data = _sample_hub().as_dict()
    json.dumps(data, allow_nan=False)
    counters = data["counters"]
    assert counters["pairs_inserted{registry=kvcsd}"] == 7.0
    assert counters["io.erase_ops{device=zns0}"] == 1.0
    # every channel has a row, busy or not
    assert counters["io.channel_busy_seconds{channel=0,device=zns0}"] == 0.5
    assert counters["io.channel_busy_seconds{channel=2,device=zns0}"] == 0.0
    assert counters["fault.trips{device=zns0,op=read}"] == 0.0
    assert counters["link.bytes_tx{link=pcie}"] == 1000.0
    assert data["gauges"] == {"fault.plan_armed{device=zns0}": 0.0}
    assert data["summaries"]["op_latency_seconds{op=cmd.get}"]["count"] == 2.0


def test_counters_appear_as_components_create_them():
    hub = MetricsHub()
    reg = StatsRegistry("kvcsd")
    hub.register_registry("kvcsd", reg)
    version = hub.version
    assert hub.rows() == []
    reg.counter("compactions").add()
    assert hub.version > version
    assert [row.key for row in hub.rows()] == ["compactions{registry=kvcsd}"]


def test_prometheus_exposition():
    text = _sample_hub().to_prometheus()
    assert "# TYPE repro_pairs_inserted_total counter" in text
    assert 'repro_pairs_inserted_total{registry="kvcsd"} 7.0' in text
    assert 'repro_io_bytes_read_total{device="zns0"} 100.0' in text
    assert 'repro_io_erase_ops_total{device="zns0"} 1.0' in text
    assert (
        'repro_io_channel_busy_seconds_total{channel="0",device="zns0"} 0.5'
        in text
    )
    assert 'repro_fault_trips_total{device="zns0",op="write"} 0.0' in text
    assert 'repro_link_bytes_rx_total{link="pcie"} 2000.0' in text
    assert 'repro_op_latency_seconds{op="cmd.get",quantile="0.5"} 0.002' in text
    assert 'repro_op_latency_seconds_count{op="cmd.get"} 2.0' in text
    # every non-comment line is "name{labels} value" with a float value
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        assert name
        float(value)
