"""Cluster observability: device-scoped names in one shared hub/trace."""

from __future__ import annotations

import pytest

from repro.cluster import build_cluster_testbed
from repro.nvme.kv_commands import KvGetCmd
from repro.obs import min_command_coverage, to_chrome_trace
from repro.obs.critpath import explain_report, install_critpath
from repro.obs.journal import install_journal
from repro.workloads import SyntheticSpec, generate_pairs, load_phase


@pytest.fixture(scope="module")
def traced():
    """A traced + journaled 2-device cluster that served a small workload."""
    tb = build_cluster_testbed(n_devices=2, seed=29)
    install_journal(tb.env)
    tracer, hub = tb.enable_tracing()
    install_critpath(tb.env, tracer=tracer)
    pairs = generate_pairs(
        SyntheticSpec(n_pairs=512, key_bytes=16, value_bytes=32, seed=29)
    )
    load_phase(tb.env, tb.adapter, [("obs", pairs, tb.thread_ctx(0))])

    def ready():
        yield from tb.adapter.prepare_queries("obs", tb.thread_ctx(0))

    tb.env.run(tb.env.process(ready()))

    def traffic():
        ctx = tb.thread_ctx(1)
        commands = [
            KvGetCmd(keyspace="obs", key=k) for k, _ in pairs[::11]
        ]
        yield from tb.router.submit_many(commands, ctx)
        yield from tb.router.range_query("obs", b"", b"\xff" * 17, ctx)

    tb.env.run(tb.env.process(traffic()))
    return tb, tracer, hub


class TestHubScoping:
    def test_every_device_owns_prefixed_series(self, traced):
        _tb, _tracer, hub = traced
        counters = hub.as_dict()["counters"]
        for dev in ("dev0", "dev1"):
            for key in (
                f"pairs_inserted{{registry={dev}.kvcsd}}",
                f"qp.submitted{{qp={dev}.host-kv}}",
                f"io.bytes_written{{device={dev}.zns}}",
                f"link.bytes_tx{{link={dev}.fabric}}",
            ):
                assert counters[key] > 0, key

    def test_host_queue_pairs_scoped_by_device(self, traced):
        _tb, _tracer, hub = traced
        gauges = hub.as_dict()["gauges"]
        assert "qp.inflight{qp=dev0.host-kv}" in gauges
        assert "qp.inflight{qp=dev1.host-kv}" in gauges

    def test_router_gauges_ride_unprefixed(self, traced):
        _tb, _tracer, hub = traced
        gauges = hub.as_dict()["gauges"]
        assert "cluster.ring.devices" in gauges
        assert gauges["cluster.ring.devices"] == 2
        assert "cluster.migration.active" in gauges


class TestJournalAttribution:
    def test_device_events_carry_device_identity(self, traced):
        tb, _tracer, _hub = traced
        events = list(tb.env.journal.tail(0)) or list(tb.env.journal.events)
        devs = {
            e.fields.get("dev")
            for e in events
            if "dev" in e.fields
        }
        assert {"dev0", "dev1"} <= devs


class TestSpanParenting:
    def test_fanout_spans_parent_under_router_span(self, traced):
        _tb, tracer, _hub = traced
        doc = to_chrome_trace(tracer)
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        by_id = {e["args"]["span_id"]: e for e in events if "span_id" in e.get("args", {})}
        fanned = [
            e for e in events
            if e["name"].startswith("cmd.") and "dev" in e.get("args", {})
        ]
        assert fanned, "no fanned-out per-device command spans recorded"
        bad = []
        for e in fanned:
            parent = by_id.get(e["args"].get("parent_id"))
            if parent is None or not (
                parent["name"].startswith("cluster.")
                or parent["name"].startswith("migrate.")
            ):
                bad.append(e["name"])
        assert not bad, bad

    def test_command_coverage_stays_high(self, traced):
        _tb, tracer, _hub = traced
        assert min_command_coverage(tracer) >= 0.95


class TestExplain:
    def test_explain_attributes_cluster_latency(self, traced):
        tb, tracer, _hub = traced
        report = explain_report(tracer, tb.env.critpath, now=tb.env.now)
        assert report["min_attributed"] >= 0.95
