"""Reference workloads for the observability CLI and CI.

``run_traced_selftest`` builds the standard KV-CSD testbed, installs the
observability layer *before* any simulation activity, and drives a
selftest-shaped workload — bulk load, device-side compaction (with its
background job), point GETs, a batched multi-GET and a primary-index range
query — so every span category (command, job, stage, queue, transport,
cpu, flash, firmware) appears in the resulting trace.

``run_audited_workload`` drives the fuller lifecycle the invariant auditor
exists for — keyspace create/open, bulk ingest, device-side compaction
with an inline secondary index, then point / multi / range / secondary
queries — with the event journal installed and the auditor attached, so
every invariant has live structures to check at every flush and
compaction-phase boundary.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "run_traced_selftest",
    "run_audited_workload",
    "run_timed_selftest",
    "run_saturated_workload",
]


def _selftest(kv, seed: int, n_pairs: int) -> None:
    """Bulk load, compact, point GETs, a multi-GET and a range query."""
    from repro.workloads import get_phase

    pairs = _load_and_compact(kv, seed, n_pairs)
    keys = [k for k, _ in pairs[::50]]
    get_phase(kv.env, kv.adapter, [("ks", keys, kv.thread_ctx(0))])

    def batched_queries():
        ctx = kv.thread_ctx(1)
        yield from kv.client.multi_get("ks", keys[:16], ctx)
        lo, hi = min(keys), max(keys)
        yield from kv.client.range_query("ks", lo, hi, ctx)

    kv.env.run(kv.env.process(batched_queries()))


def _load_and_compact(kv, seed: int, n_pairs: int) -> list:
    """Load ``n_pairs`` into keyspace ``ks`` and wait until it is queryable."""
    from repro.workloads import SyntheticSpec, generate_pairs, load_phase

    pairs = generate_pairs(SyntheticSpec(n_pairs=n_pairs, seed=seed))
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])

    kv.run(kv.adapter.prepare_queries("ks", kv.thread_ctx(0)))
    return pairs


def _selftest_testbed(seed: int):
    """The observed selftest configuration.

    A device block cache, query workers, and blooms are part of it so the
    cache's hit/miss/eviction series and the scheduler/bloom counters show
    up in the metrics export, and the trace carries query-worker dispatch
    spans.
    """
    from repro.bench import build_kvcsd_testbed
    from repro.units import MiB

    return build_kvcsd_testbed(
        seed=seed, block_cache_bytes=4 * MiB, query_workers=2,
        bloom_bits_per_key=10,
    )


def run_traced_selftest(seed: int = 0, n_pairs: int = 2000, critpath: bool = False):
    """Run the traced selftest workload; returns ``(testbed, tracer, hub)``.

    ``critpath=True`` additionally installs the blocked-by/holder observer
    (:func:`repro.obs.critpath.install_critpath`) before any simulation
    activity; retrieve it afterwards as ``kv.env.critpath``.
    """
    kv = _selftest_testbed(seed)
    tracer, hub = kv.enable_tracing()
    if critpath:
        from repro.obs.critpath import install_critpath

        install_critpath(kv.env, tracer=tracer)
    _selftest(kv, seed, n_pairs)
    return kv, tracer, hub


def run_audited_workload(
    seed: int = 0,
    n_pairs: int = 2000,
    audit_level: str = "phase",
    journal_capacity: int = 4096,
):
    """Ingest -> compact (+inline sidx) -> query, journaled and audited.

    Returns ``(testbed, auditor, final_report)`` where ``final_report`` is
    a one-shot audit taken after the workload drains — present even with
    ``audit_level="off"`` (the on-demand ``repro audit`` mode).
    """
    from repro.bench import build_kvcsd_testbed
    from repro.core.sidx import SidxConfig
    from repro.obs.audit import InvariantAuditor
    from repro.obs.journal import install_journal
    from repro.units import MiB
    from repro.workloads import SyntheticSpec, generate_pairs

    kv = build_kvcsd_testbed(seed=seed, block_cache_bytes=4 * MiB)
    install_journal(kv.env, capacity=journal_capacity)
    auditor = InvariantAuditor(kv.device, level=audit_level)
    kv.device.auditor = auditor

    pairs = generate_pairs(SyntheticSpec(n_pairs=n_pairs, seed=seed))
    keys = [k for k, _ in pairs[::50]]

    def workload():
        ctx = kv.thread_ctx(0)
        yield from kv.client.create_keyspace("ks", ctx)
        yield from kv.client.open_keyspace("ks", ctx)
        yield from kv.client.bulk_put("ks", pairs, ctx)
        # Values are random bytes; index their first 8 bytes as a u64.
        yield from kv.client.compact(
            "ks",
            ctx,
            secondary_indexes=[
                SidxConfig(name="val64", value_offset=0, width=8, dtype="u64")
            ],
        )
        yield from kv.client.wait_for_device("ks", ctx)
        for key in keys[:32]:
            yield from kv.client.get("ks", key, ctx)
        yield from kv.client.multi_get("ks", keys[:16], ctx)
        yield from kv.client.range_query("ks", min(keys), max(keys), ctx)
        yield from kv.client.sidx_range_query(
            "ks", "val64", b"\x00" * 8, b"\xff" * 8, ctx
        )

    kv.env.run(kv.env.process(workload()))
    final_report = auditor.run("final")
    return kv, auditor, final_report


def run_timed_selftest(
    seed: int = 0, n_pairs: int = 2000, config: Optional[object] = None
):
    """The traced selftest with the telemetry timeline recording throughout.

    Installs journal + tracing + timeline *before* any simulation activity,
    then drives the same load/compact/query phases as
    :func:`run_traced_selftest`.  Returns ``(testbed, tracer, hub,
    recorder)``; the recorder holds the full labeled series set and any SLO
    alerts the run produced.
    """
    from repro.obs.journal import install_journal

    kv = _selftest_testbed(seed)
    install_journal(kv.env)
    tracer, hub, recorder = kv.enable_timeline(config)
    _selftest(kv, seed, n_pairs)
    return kv, tracer, hub, recorder


def run_saturated_workload(
    seed: int = 0,
    n_pairs: int = 2048,
    burst: int = 256,
    queue_depth: int = 64,
    config: Optional[object] = None,
    critpath: bool = False,
    reap: str = "batch",
):
    """Deliberately overdrive one SoC query worker to trip the SLO watchdog.

    A single host thread posts a ``burst`` of async GETs into a deep
    (``queue_depth``) submission window while the device runs only *one*
    query worker — the admission queue backs up well past the
    ``query-queue-saturated`` threshold and stays there, so the default
    rule set fires.  Returns ``(testbed, tracer, hub, recorder)``.

    ``reap`` picks the host driver: ``"batch"`` posts the whole burst and
    reaps afterwards (``submit_many``, the timeline/SLO shape), while
    ``"prompt"`` reaps each completion as soon as the posting thread can —
    per-op latency then reflects the device-side queueing rather than
    batch reap order, which is what critical-path attribution
    (``critpath=True``, ``repro explain``) wants to diagnose.
    """
    from repro.bench import build_kvcsd_testbed
    from repro.nvme.kv_commands import KvGetCmd
    from repro.obs.journal import install_journal

    kv = build_kvcsd_testbed(
        seed=seed, query_workers=1, queue_depth=queue_depth
    )
    install_journal(kv.env)
    tracer, hub, recorder = kv.enable_timeline(config)
    if critpath:
        from repro.obs.critpath import install_critpath

        install_critpath(kv.env, tracer=tracer)
    pairs = _load_and_compact(kv, seed, n_pairs)

    keys = [pairs[i % n_pairs][0] for i in range(burst)]

    if reap not in ("batch", "prompt"):
        raise ValueError(f"reap must be 'batch' or 'prompt', got {reap!r}")

    def driver():
        ctx = kv.thread_ctx(0)
        commands = [KvGetCmd(keyspace="ks", key=k) for k in keys]
        if reap == "batch":
            completions = yield from kv.client.submit_many(commands, ctx)
            assert all(c.ok for c in completions)
            return
        # Prompt in-order reaping: after each post, drain every completion
        # that has already arrived at the head of the batch.
        qp = kv.client.qp
        tickets = []
        head = 0
        for command in commands:
            ticket = yield from qp.post(command, ctx)
            tickets.append(ticket)
            while head < len(tickets) and tickets[head].done:
                yield from qp.wait(tickets[head], ctx, raise_on_error=False)
                head += 1
        for ticket in tickets[head:]:
            yield from qp.wait(ticket, ctx, raise_on_error=False)
        assert all(t.completion is not None and t.completion.ok for t in tickets)

    kv.env.run(kv.env.process(driver()))
    return kv, tracer, hub, recorder
