"""End-to-end observability tests against the real KV-CSD testbed."""

import pytest

from repro.bench import build_kvcsd_testbed
from repro.obs import min_command_coverage, to_chrome_trace
from repro.workloads import SyntheticSpec, generate_pairs, load_phase

N_PAIRS = 2000


def _run_workload(kv, n_pairs=N_PAIRS, queries=True):
    pairs = generate_pairs(SyntheticSpec(n_pairs=n_pairs, seed=0))
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])

    def wait():
        yield from kv.device.wait_for_jobs("ks")

    kv.env.run(kv.env.process(wait()))
    if not queries:
        return
    keys = [k for k, _ in pairs[::100]]

    def run_queries():
        ctx = kv.thread_ctx(0)
        yield from kv.adapter.prepare_queries("ks", ctx)
        for key in keys:
            yield from kv.client.get("ks", key, ctx)

    kv.env.run(kv.env.process(run_queries()))


@pytest.fixture(scope="module")
def traced_testbed():
    kv = build_kvcsd_testbed(seed=0, compaction_shards=4)
    tracer, hub = kv.enable_tracing()
    _run_workload(kv)
    return kv, tracer, hub


def test_tracing_does_not_perturb_virtual_time(traced_testbed):
    kv, _tracer, _hub = traced_testbed
    plain = build_kvcsd_testbed(seed=0, compaction_shards=4)
    _run_workload(plain)
    assert plain.env.now == kv.env.now
    assert plain.io_snapshot() == kv.io_snapshot()


def test_every_span_is_finished_and_well_ordered(traced_testbed):
    _kv, tracer, _hub = traced_testbed
    now = tracer.env.now
    for span in tracer.spans:
        assert span.finished, span
        assert 0.0 <= span.start <= span.end <= now
        for child in span.children:
            assert child.parent is span
            assert span.start <= child.start


def test_command_coverage_is_at_least_95_percent(traced_testbed):
    _kv, tracer, _hub = traced_testbed
    assert tracer.command_roots(), "no traced commands"
    assert min_command_coverage(tracer) >= 0.95


def test_shard_spans_parent_under_the_sort_stage(traced_testbed):
    """Context propagates across the parallel compaction shard processes."""
    _kv, tracer, _hub = traced_testbed
    sort_stage = next(s for s in tracer.spans if s.name == "compact.sort")
    shards = [s for s in tracer.spans if s.name == "sort.shard"]
    assert len(shards) == 4
    assert all(s.parent is sort_stage for s in shards)
    job = sort_stage.parent
    assert job.name == "job.compaction" and job.category == "job"


def test_pipelined_materialize_spans_share_the_stage(traced_testbed):
    """The value-writer/PIDX-builder pair (a BoundedQueue handoff) nests."""
    _kv, tracer, _hub = traced_testbed
    stage = next(s for s in tracer.spans if s.name == "compact.materialize")
    names = {c.name for c in stage.children}
    assert {"materialize.value_writer", "materialize.pidx_builder"} <= names


def test_chrome_export_of_a_real_run_is_valid(traced_testbed):
    _kv, tracer, _hub = traced_testbed
    doc = to_chrome_trace(tracer)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == len(tracer.spans)
    order = [(e["ts"], e["tid"]) for e in spans]
    assert order == sorted(order)
    assert all(e["dur"] >= 0 for e in spans)


def test_hub_sees_ssd_and_link_traffic(traced_testbed):
    _kv, _tracer, hub = traced_testbed
    text = hub.to_prometheus()
    assert 'repro_pairs_inserted_total{registry="kvcsd"}' in text
    assert 'repro_io_channel_busy_seconds_total{channel="0",device="zns0"}' in text
    assert 'repro_link_bytes_tx_total{link="pcie"}' in text
    assert 'repro_op_latency_seconds{op="cmd.bulk_put"' in text
