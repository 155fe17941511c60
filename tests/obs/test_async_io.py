"""Observability of the async host I/O path: journal, gauges, attribution.

Every KV command posted to the host queue pair must leave an ``sq.post``
journal event at submission and a ``cq.reap`` event at reaping — with the
queue-wait vs execution latency split — and the queue pair's accounting
must surface as in-flight depth gauges through the MetricsHub.
"""

from repro.bench import build_kvcsd_testbed
from repro.bench.registry import Observe
from repro.workloads import SyntheticSpec, generate_pairs


def _run_commands(kv, n_pairs=400):
    pairs = generate_pairs(SyntheticSpec(n_pairs=n_pairs, seed=0))

    def workload():
        ctx = kv.thread_ctx(0)
        yield from kv.client.create_keyspace("ks", ctx)
        yield from kv.client.open_keyspace("ks", ctx)
        yield from kv.client.bulk_put("ks", pairs, ctx)
        yield from kv.client.compact("ks", ctx)
        yield from kv.client.wait_for_device("ks", ctx)
        for key, _ in pairs[:5]:
            yield from kv.client.get("ks", key, ctx)

    kv.env.run(kv.env.process(workload()))
    return pairs


def test_every_reap_pairs_with_a_post():
    kv = build_kvcsd_testbed(seed=0)
    Observe(["journal"])(kv)
    _run_commands(kv)
    posts = kv.env.journal.of_type("sq.post")
    reaps = kv.env.journal.of_type("cq.reap")
    assert posts, "client commands must journal sq.post"
    assert len(posts) == len(reaps)
    posted = {e.fields["cid"]: e for e in posts}
    for reap in reaps:
        post = posted[reap.fields["cid"]]
        assert post.fields["op"] == reap.fields["op"]
        assert post.time <= reap.time
    # submission attribution: the posting thread is recorded
    assert {e.fields["thread"] for e in posts} == {"core0"}


def test_reap_records_queue_wait_vs_execution_split():
    kv = build_kvcsd_testbed(seed=0)
    Observe(["journal"])(kv)
    _run_commands(kv)
    for reap in kv.env.journal.of_type("cq.reap"):
        assert reap.fields["queued"] >= 0.0
        assert reap.fields["executed"] >= 0.0
        assert reap.fields["status"] == "OK"


def test_queue_wait_appears_under_backpressure():
    from repro.core import KvCsdClient
    from repro.nvme.kv_commands import KvGetCmd

    kv = build_kvcsd_testbed(seed=0)
    pairs = _run_commands(kv)
    small = KvCsdClient(kv.device, kv.link, queue_depth=1)

    def proc():
        ctx = kv.thread_ctx(0)
        commands = [KvGetCmd(keyspace="ks", key=k) for k, _ in pairs[:4]]
        tickets = []
        for command in commands:
            tickets.append((yield from small.qp.post(command, ctx)))
        for ticket in tickets:
            yield from small.qp.wait(ticket, ctx)
        return tickets

    tickets = kv.env.run(kv.env.process(proc()))
    waits = [t.latency_split()[0] for t in tickets]
    execs = [t.latency_split()[1] for t in tickets]
    # The first post only pays pack + capsule DMA; with depth 1 every later
    # post additionally waits for the previous command's slot, so its
    # queue-side latency dominates the baseline.
    assert all(w > 2 * waits[0] for w in waits[1:])
    assert all(e > 0.0 for e in execs)


def test_metrics_hub_exports_queue_pair_gauges():
    kv = build_kvcsd_testbed(seed=0)
    _tracer, hub = kv.enable_tracing()
    _run_commands(kv)
    data = hub.as_dict()
    counters, gauges = data["counters"], data["gauges"]
    assert "qp.depth{qp=host-kv}" in gauges
    # firmware flash I/O goes straight to the SSD model: no SoC queue pair
    assert not any("soc-ssd" in key for key in gauges)
    submitted = counters["qp.submitted{qp=host-kv}"]
    assert submitted == counters["qp.completed{qp=host-kv}"] > 0
    assert gauges["qp.inflight{qp=host-kv}"] == 0
    assert counters["qp.reaped{qp=host-kv}"] == submitted
    text = hub.to_prometheus()
    assert 'repro_qp_submitted_total{qp="host-kv"}' in text
    assert 'repro_qp_inflight{qp="host-kv"}' in text


def test_sq_cq_spans_in_trace_with_cids():
    kv = build_kvcsd_testbed(seed=0)
    tracer, _hub = kv.enable_tracing()
    _run_commands(kv)
    posts = [s for s in tracer.spans if s.name == "sq.post"]
    reaps = [s for s in tracer.spans if s.name == "cq.reap"]
    assert posts and len(posts) == len(reaps)
    post_cids = {s.args["cid"] for s in posts}
    for reap in reaps:
        assert reap.args["cid"] in post_cids
        assert reap.end == reap.start  # zero-duration marker
