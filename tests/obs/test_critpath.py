"""Tests for the causal critical-path engine (:mod:`repro.obs.critpath`).

Unit coverage builds span trees and blocked-by edges by hand and checks
the tiling invariant directly; the integration test drives the saturate
workload end-to-end and asserts the acceptance criteria — >= 95% of every
sampled op's latency attributed to typed segments, and the p99 cohort
naming the actual bottleneck (query-queue wait behind the single worker).
"""

from __future__ import annotations

import pytest

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
from repro.obs.trace import install_tracer
from repro.sim import Environment


def _tiles(segments, start, end):
    """Assert the tiling invariant: contiguous, anchored, widths sum."""
    assert segments, "op span produced no segments"
    assert segments[0]["start"] == start
    assert segments[-1]["end"] == end
    for prev, cur in zip(segments, segments[1:]):
        assert cur["start"] == prev["end"], "gap or overlap between segments"
    assert sum(s["end"] - s["start"] for s in segments) == pytest.approx(
        end - start
    )


# -- op_segments: the deepest-wins boundary sweep -----------------------------
def test_segments_tile_exactly_with_unattributed_gaps():
    env = Environment()
    tracer = install_tracer(env)

    def cmd():
        with tracer.span("cmd.get", "command"):
            with tracer.span("cpu.host", "cpu", pool="host"):
                yield env.timeout(1.0)
            yield env.timeout(2.0)  # un-spanned: becomes 'unattributed'
            with tracer.span("nand.read", "flash"):
                yield env.timeout(1.0)

    env.run(env.process(cmd()))
    root = tracer.command_roots()[0]
    segments = op_segments(root, now=env.now)
    _tiles(segments, 0.0, 4.0)
    kinds = [s["kind"] for s in segments]
    assert kinds == ["host_cpu", "unattributed", "flash"]
    assert segments[1]["end"] - segments[1]["start"] == pytest.approx(2.0)


def test_deepest_span_wins_and_stage_time_is_service():
    env = Environment()
    tracer = install_tracer(env)

    def cmd():
        with tracer.span("cmd.put", "command"):
            with tracer.span("stage.encode", "stage"):
                yield env.timeout(1.0)  # stage-only time -> 'service'
                with tracer.span("cpu.soc", "cpu", pool="soc"):
                    yield env.timeout(2.0)  # deeper span wins

    env.run(env.process(cmd()))
    root = tracer.command_roots()[0]
    segments = op_segments(root, now=env.now)
    _tiles(segments, 0.0, 3.0)
    assert [s["kind"] for s in segments] == ["service", "soc_cpu"]
    assert segments[1]["start"] == pytest.approx(1.0)


def test_job_subtrees_are_pruned_from_command_segments():
    env = Environment()
    tracer = install_tracer(env)

    def cmd():
        with tracer.span("cmd.compact", "command"):
            with tracer.span("job.compaction", "job"):
                with tracer.span("cpu.soc", "cpu", pool="soc"):
                    yield env.timeout(3.0)

    env.run(env.process(cmd()))
    root = tracer.command_roots()[0]
    segments = op_segments(root, now=env.now)
    _tiles(segments, 0.0, 3.0)
    # The job's soc time belongs to the job's own report entry; from the
    # command's point of view this interval is unattributed.
    assert [s["kind"] for s in segments] == ["unattributed"]


def test_blocked_edges_beat_any_span():
    env = Environment()
    tracer = install_tracer(env)

    def cmd():
        with tracer.span("cmd.get", "command"):
            with tracer.span("cpu.host", "cpu", pool="host"):
                yield env.timeout(4.0)

    env.run(env.process(cmd()))
    root = tracer.command_roots()[0]
    edge = BlockedEdge(
        "qp.host-kv", "qp_slot", 1.0, 3.0, "cmd.get", root.span_id,
        holders=("cmd.get#7",),
    )
    segments = op_segments(root, edges=[edge], now=env.now)
    _tiles(segments, 0.0, 4.0)
    assert [s["kind"] for s in segments] == [
        "host_cpu", "wait.qp_slot", "host_cpu",
    ]
    blocked = segments[1]
    assert blocked["resource"] == "qp.host-kv"
    assert blocked["holders"] == ("cmd.get#7",)
    assert blocked["start"] == 1.0 and blocked["end"] == 3.0


def test_adjacent_same_identity_segments_merge():
    env = Environment()
    tracer = install_tracer(env)

    def cmd():
        with tracer.span("cmd.get", "command"):
            with tracer.span("nand.a", "flash"):
                yield env.timeout(1.0)
            with tracer.span("nand.a", "flash"):
                yield env.timeout(1.0)

    env.run(env.process(cmd()))
    root = tracer.command_roots()[0]
    segments = op_segments(root, now=env.now)
    # Same (kind, resource, holders) back to back -> one merged segment.
    assert len(segments) == 1
    _tiles(segments, 0.0, 2.0)


def test_edges_clip_to_the_op_span():
    env = Environment()
    tracer = install_tracer(env)

    def cmd():
        yield env.timeout(1.0)
        with tracer.span("cmd.get", "command"):
            yield env.timeout(2.0)

    env.run(env.process(cmd()))
    root = tracer.command_roots()[0]
    edge = BlockedEdge("q", "queue", 0.0, 10.0, "cmd.get", root.span_id)
    segments = op_segments(root, edges=[edge], now=env.now)
    _tiles(segments, 1.0, 3.0)
    assert [s["kind"] for s in segments] == ["wait.queue"]


# -- the probe's holder registry and wait edges -------------------------------
def test_holder_registry_acquire_release_and_caps():
    env = Environment()
    observer = install_critpath(env)
    assert env.critpath is observer
    probe = env.probe
    probe.acquire("r", "a")
    probe.acquire("r", "a")
    probe.acquire("r", "b")
    assert probe.holders("r") == ("a", "b")
    probe.release("r", "a")
    assert probe.holders("r") == ("a", "b")  # refcount 2 -> 1
    probe.release("r", "a")
    assert probe.holders("r") == ("b",)
    # Releasing a token never acquired is tolerated, not an error.
    probe.release("r", "never-acquired")
    probe.release("other", "x")
    probe.acquire("r", "c")
    assert probe.holders("r", cap=1) == ("b",)  # insertion order, capped


def test_wait_edges_carry_the_holder_snapshot_from_wait_start():
    env = Environment()
    tracer = install_tracer(env)
    observer = install_critpath(env, tracer=tracer)
    probe = env.probe
    holder_done = []

    def holder():
        with tracer.span("cmd.holder", "command"):
            probe.acquire("res", probe.token())
            yield env.timeout(2.0)
            probe.release("res", probe.token())
            holder_done.append(True)

    def waiter():
        with tracer.span("cmd.waiter", "command"):
            t0, holders = env.now, probe.holders("res")
            yield env.timeout(1.5)  # stand-in for the blocked yield
            probe.wait_edge("res", "queue", t0, holders)

    env.process(holder())
    env.process(waiter())
    env.run()
    assert holder_done
    assert len(observer.edges) == 1
    edge = observer.edges[0]
    assert edge.resource == "res" and edge.kind == "queue"
    assert edge.start == 0.0 and edge.end == 1.5
    assert edge.waiter_op == "cmd.waiter"
    # Holder snapshot from wait *start*: the holder op, instance-tagged.
    assert [h.split("#")[0] for h in edge.holders] == ["cmd.holder"]
    by_root = observer.edges_by_root()
    assert list(by_root.values()) == [[edge]]


def test_actor_is_the_root_span_or_the_process_name():
    env = Environment()
    install_critpath(env)
    probe = env.probe
    assert probe.actor() == ("main", None) and probe.token() == "main"
    seen = []

    def untraced():
        seen.append(probe.actor())
        yield env.timeout(0.0)

    env.run(env.process(untraced(), name="worker"))
    assert seen == [("proc.worker", None)]

    tracer = install_tracer(env)

    def traced():
        with tracer.span("cmd.get", "command") as root:
            with tracer.span("stage", "stage"):
                seen.append((probe.actor(), probe.token(), root.span_id))
                yield env.timeout(0.0)

    env.run(env.process(traced()))
    actor, token, root_id = seen[-1]
    assert actor == ("cmd.get", root_id) and token == f"cmd.get#{root_id}"


def test_zero_duration_waits_record_no_edge():
    env = Environment()
    observer = install_critpath(env)
    env.probe.wait_edge("res", "queue", env.now, ())  # no time passed
    assert observer.edges == []


def test_edge_cap_drops_and_counts():
    env = Environment()
    observer = install_critpath(env)
    observer.max_edges = 2
    env.run(until=1.0)
    for _ in range(4):
        env.probe.wait_edge("r", "queue", 0.0, ())
    assert len(observer.edges) == 2
    assert observer.dropped_edges == 2


def test_constructed_but_uninstalled_observer_is_invisible():
    env = Environment()
    tracer = install_tracer(env)
    CritPathObserver(env, tracer=tracer)  # never assigned to env.critpath
    assert env.critpath is None

    def cmd():
        with tracer.span("cmd.get", "command"):
            yield env.timeout(1.0)

    env.run(env.process(cmd()))
    # Instrumentation sites check env.critpath; nothing was recorded.
    report = explain_report(tracer, env.critpath, now=env.now)
    assert report["edges"] == 0


# -- the explain report -------------------------------------------------------
def _many_gets(env, tracer, durations):
    def one(duration):
        with tracer.span("cmd.get", "command"):
            with tracer.span("nand.read", "flash"):
                yield env.timeout(duration)

    def driver():
        for duration in durations:
            yield from one(duration)

    env.run(env.process(driver()))


def test_explain_report_cohorts_and_attribution():
    env = Environment()
    tracer = install_tracer(env)
    observer = install_critpath(env, tracer=tracer)
    _many_gets(env, tracer, [1.0] * 98 + [10.0, 10.0])
    report = explain_report(tracer, observer, now=env.now)
    op = report["ops"]["cmd.get"]
    assert op["count"] == 100
    assert op["p50_seconds"] == 1.0
    assert op["p99_seconds"] == 10.0
    assert op["attributed_min"] == pytest.approx(1.0)
    assert report["min_attributed"] == pytest.approx(1.0)
    p50 = op["cohorts"]["p50"]
    p99 = op["cohorts"]["p99"]
    assert p50["count"] == 98 and p99["count"] == 2
    assert list(p99["seconds_by_kind"]) == ["flash"]
    assert p99["seconds_by_kind"]["flash"] == pytest.approx(20.0)
    # Samples carry the exact tiling for external validation.
    for sample in op["samples"]:
        _tiles(sample["segments"], sample["start"], sample["end"])
    text = format_explain(report)
    assert "cmd.get" in text and "p99 cohort" in text


def test_explain_report_names_the_dominant_blocker():
    env = Environment()
    tracer = install_tracer(env)
    observer = install_critpath(env, tracer=tracer)

    def blocked_get():
        with tracer.span("cmd.get", "command"):
            t0 = env.now
            yield env.timeout(3.0)
            env.probe.wait_edge("soc.query_queue", "queue", t0, ("cmd.get#1",))
            with tracer.span("nand.read", "flash"):
                yield env.timeout(1.0)

    env.run(env.process(blocked_get()))
    report = explain_report(tracer, observer, now=env.now)
    cohort = report["ops"]["cmd.get"]["cohorts"]["p99"]
    dominant = cohort["dominant_blocker"]
    assert dominant["resource"] == "soc.query_queue"
    assert dominant["holder_op"] == "cmd.get"
    assert dominant["seconds"] == pytest.approx(3.0)


def test_folded_stacks_and_diff():
    env = Environment()
    tracer = install_tracer(env)
    observer = install_critpath(env, tracer=tracer)
    _many_gets(env, tracer, [1.0, 2.0])
    report = explain_report(tracer, observer, now=env.now)
    folded = explain_to_folded(report)
    assert "cmd.get;flash" in folded
    # Values are integer nanoseconds: 3 virtual seconds of flash total.
    value = int(folded.split()[-1])
    assert value == 3_000_000_000

    rows = diff_explain(report, report)
    assert all(row["delta"] == 0.0 for row in rows if row["delta"] is not None)
    other = {"ops": {}, "min_attributed": 1.0}
    gone = diff_explain(report, other)
    assert gone[0]["metric"] == "present" and gone[0]["after"] is False


# -- acceptance: the saturate workload names its own bottleneck ---------------
@pytest.fixture(scope="module")
def saturate_explain(observed_run):
    return observed_run("obs_saturate", "explain", smoke=False).document["explain"]


def test_saturate_attributes_at_least_95_percent(saturate_explain):
    report = saturate_explain
    assert report["edges"] > 0
    assert report["min_attributed"] >= 0.95
    for op in report["ops"].values():
        assert op["attributed_min"] >= 0.95
        for sample in op["samples"]:
            _tiles(sample["segments"], sample["start"], sample["end"])


def test_saturate_p99_cohort_names_query_queue_blocker(saturate_explain):
    """The diagnosis the engine exists for: with one SoC query worker and a
    deep submission window, the slow GETs are slow because they sat in the
    scheduler's admission queue behind other GETs — not because their own
    service time grew."""
    op = saturate_explain["ops"]["cmd.KvGetCmd"]
    cohort = op["cohorts"]["p99"]
    dominant = cohort["dominant_blocker"]
    assert dominant is not None
    assert dominant["resource"] == "soc.query_queue"
    assert dominant["holder_op"] == "cmd.KvGetCmd"
    # Queue wait dominates the cohort's time, and it is the top kind.
    kinds = cohort["seconds_by_kind"]
    assert next(iter(kinds)) == "wait.queue"
    assert kinds["wait.queue"] / cohort["total_seconds"] > 0.5
