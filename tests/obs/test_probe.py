"""The single probe: what it holds on to, who may touch it, what it costs.

Covers the properties the per-observer implementation did not have — a
finished process is garbage (the old tracer kept every spawned process in
two dicts), instrumentation sites read ``env.probe`` and nothing else, the
sync/async submit choice is one ``env.probe is None`` test — plus the
kernel's own gauges on the hub.
"""

from __future__ import annotations

import gc
import json
import re
import weakref
from pathlib import Path

import pytest

from repro.bench import build_kvcsd_testbed
from repro.bench.golden import GOLDEN_WORKLOADS
from repro.bench.registry import Observe
from repro.bench.report import drift
from repro.obs.journal import install_journal
from repro.obs.trace import install_tracer
from repro.sim import Environment
from repro.workloads import SyntheticSpec, generate_pairs, load_phase

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# -- nothing is keyed by process ----------------------------------------------
def _spawn_tracking(env):
    """Weakly reference every process ``env`` starts from now on.

    ``Process`` is slotted without ``__weakref__``; its generator stands in
    for it — a process owns its generator, so whatever pins a finished
    process pins the generator (and its frame and ticket) too.
    """
    refs = []
    spawn = env.process

    def tracked(generator, name=""):
        refs.append(weakref.ref(generator))
        return spawn(generator, name=name)

    env.process = tracked
    return refs


def test_finished_command_process_is_garbage_without_retained_spans():
    kv = build_kvcsd_testbed(seed=0)
    tracer, _hub = kv.enable_tracing(retain_spans=False)
    pairs = generate_pairs(SyntheticSpec(n_pairs=64, seed=0))
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])
    refs = _spawn_tracking(kv.env)

    def one_get():
        yield from kv.adapter.prepare_queries("ks", kv.thread_ctx(0))
        yield from kv.client.get("ks", pairs[0][0], kv.thread_ctx(0))

    kv.env.run(kv.env.process(one_get(), name="driver"))
    assert refs, "an observed GET runs device-side in its own process"
    gc.collect()
    assert [ref() for ref in refs if ref() is not None] == []
    assert tracer.spans == []


def test_observer_state_stays_bounded_over_2000_sync_gets():
    kv = build_kvcsd_testbed(seed=0, query_workers=2)
    install_journal(kv.env)
    kv.enable_timeline(retain_spans=False)
    pairs = generate_pairs(SyntheticSpec(n_pairs=256, seed=0))
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])
    refs = _spawn_tracking(kv.env)

    def gets():
        ctx = kv.thread_ctx(0)
        yield from kv.adapter.prepare_queries("ks", ctx)
        for i in range(2000):
            yield from kv.client.get("ks", pairs[i % len(pairs)][0], ctx)

    kv.env.run(kv.env.process(gets(), name="driver"))
    assert len(refs) > 2000
    gc.collect()
    alive = [ref() for ref in refs if ref() is not None]
    # O(live processes): nothing a finished command spawned is still held.
    assert len(alive) <= 8, f"{len(alive)} finished processes still referenced"


# -- one attribute at the sites -------------------------------------------------
MODEL_PACKAGES = ("sim", "nvme", "core", "soc", "ssd", "host", "lsm", "cluster")


def test_model_code_reads_only_env_probe():
    """Instrumentation sites see the probe, never an observer surface:
    ``env.tracer`` / ``env.journal`` / ``env.critpath`` / ``env.timeline``
    are for ``bench/`` and ``cli.py`` to fetch what they export."""
    pattern = re.compile(r"\benv\.(tracer|journal|critpath|timeline)\b")
    offenders = []
    for package in MODEL_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert offenders == []


def test_submit_picks_inline_or_async_on_the_probe_alone():
    import inspect

    from repro.nvme.queues import KvQueuePair

    source = inspect.getsource(KvQueuePair.submit)
    assert source.count("if env.probe is not None:") == 1
    assert len(re.findall(r"\bprobe\b", source)) == 1


def test_any_observer_routes_submit_through_the_async_path():
    def submitted_processes(install):
        kv = build_kvcsd_testbed(seed=0)
        install(kv)
        pairs = generate_pairs(SyntheticSpec(n_pairs=64, seed=0))
        load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])
        refs = _spawn_tracking(kv.env)

        def get():
            yield from kv.adapter.prepare_queries("ks", kv.thread_ctx(0))
            yield from kv.client.get("ks", pairs[0][0], kv.thread_ctx(0))

        kv.env.run(kv.env.process(get(), name="driver"))
        return len(refs), kv.env.now

    inline, t_inline = submitted_processes(lambda kv: None)
    journaled, t_journaled = submitted_processes(lambda kv: install_journal(kv.env))
    assert journaled > inline  # device side ran in spawned kv-cmd processes
    assert t_journaled == t_inline  # at identical virtual times


# -- the parts of the probe stay independent -------------------------------------
def test_journal_only_probe_records_no_spans():
    env = Environment()
    journal = install_journal(env)
    assert env.tracer is None and env.critpath is None and env.timeline is None
    assert env.probe.span_begin("x", "stage") is None
    with env.probe.span("x", "stage") as span:
        assert span is None
    event = journal.record("keyspace.create", keyspace="ks")
    assert event.span_id is None


def test_retained_spans_are_columns_until_read():
    env = Environment()
    tracer = install_tracer(env)
    probe = env.probe

    def proc():
        with tracer.span("cmd.get", "command", key=1) as root:
            with tracer.span("step", "stage") as step:
                assert step.root is root and step.parent is root
                yield env.timeout(1.0)
            probe.span_begin("left.open", "queue")

    env.run(env.process(proc()))
    assert list(probe.col_parent) == [0, 1, 1]
    assert probe.col_name == ["cmd.get", "step", "left.open"]
    root, step, left_open = tracer.spans
    assert root.children == [step, left_open] and step.parent is root
    assert root.args == {"key": 1} and (step.start, step.end) == (0.0, 1.0)
    assert not left_open.finished
    # a later read extends the same objects instead of rebuilding them
    probe.span_end(probe.span_begin("late", "stage"))
    assert tracer.spans[:3] == [root, step, left_open]
    assert tracer.spans[3].name == "late"


def test_unretained_leaf_spans_leave_no_trace_but_their_id():
    """A ``nests=False`` span is skipped outright when spans are not kept;
    span ids, journal correlation, edges and op latencies must not notice."""
    from repro.obs.critpath import install_critpath

    def run(retain_spans):
        kv = build_kvcsd_testbed(seed=0, query_workers=1, queue_depth=8)
        install_journal(kv.env)
        tracer, hub = kv.enable_tracing(retain_spans=retain_spans)
        observer = install_critpath(kv.env, tracer=tracer)
        pairs = generate_pairs(SyntheticSpec(n_pairs=256, seed=0))
        load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])

        def gets(t):
            ctx = kv.thread_ctx(t)
            yield from kv.adapter.prepare_queries("ks", ctx)
            yield from kv.client.multi_get("ks", [k for k, _ in pairs[t::4]], ctx)

        for t in range(4):
            kv.env.process(gets(t))
        kv.env.run()
        edges = [
            (e.resource, e.kind, e.start, e.end, e.waiter_op, e.waiter_root, e.holders)
            for e in observer.edges
        ]
        return (kv.env.journal.to_jsonl(), edges, hub.as_dict()["summaries"],
                kv.env.probe.spans_started, len(tracer.spans))

    kept, dropped = run(True), run(False)
    assert kept[:4] == dropped[:4]
    assert kept[1], "the workload must contend so edges carry span ids"
    assert kept[4] == kept[3] and dropped[4] == 0


# -- kernel self-telemetry --------------------------------------------------------
def test_kernel_gauges_move_during_a_run(observed_run):
    kv = observed_run("obs_selftest", "trace", "timeline").testbed
    hub, recorder = kv.env.tracer.hub, kv.env.timeline
    series = recorder.series
    scheduled = series["sim.events_scheduled"].values
    assert scheduled == sorted(scheduled) and scheduled[-1] > scheduled[0] > 0
    assert max(series["sim.heap_depth"].values) >= 1
    assert max(series["sim.imm_depth"].values) >= 0
    assert max(series["sim.timeout_pool"].values) >= 1
    assert hub.as_dict()["gauges"]["sim.events_scheduled"] == kv.env._counter
    assert "repro_sim_heap_depth " in hub.to_prometheus()


@pytest.mark.parametrize("name", ["async_qd16"])
def test_kernel_gauges_leave_fingerprints_identical(name):
    """The gauges are free reads: a hub that registers them (every
    ``enable_tracing``) must not move a golden-clock checkpoint."""
    golden = json.loads(
        (Path(__file__).parents[1] / "sim" / "golden_clock.json").read_text()
    )
    drifted = drift(golden[name], GOLDEN_WORKLOADS[name](Observe(["trace"])))
    assert not drifted, f"kernel gauges moved the virtual clock: {drifted}"
