"""Multi-threaded simulated client driver.

Reproduces the paper's test methodology: N application threads, each pinned
to a CPU core, concurrently loading data (into a shared keyspace or
per-thread keyspaces) and later issuing queries.  Durations are measured on
the simulation clock from phase start to the completion of the slowest
thread.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Sequence

from repro.host.threads import ThreadCtx
from repro.sim.core import Environment
from repro.sim.sync import AllOf
from repro.workloads.adapters import StoreAdapter

__all__ = ["PhaseReport", "run_phase", "load_phase", "get_phase"]


@dataclass
class PhaseReport:
    """Timing of one benchmark phase."""

    seconds: float
    per_thread_seconds: list[float] = field(default_factory=list)
    operations: int = 0


def run_phase(env: Environment, thread_bodies: Sequence[Generator]) -> PhaseReport:
    """Run thread bodies concurrently; returns phase timing.

    The phase starts now and ends when the slowest thread finishes — the
    same "time to insert all keys" metric the paper reports.
    """
    start = env.now
    finish_times: list[float] = []

    def wrap(body: Generator) -> Generator:
        yield from body
        finish_times.append(env.now)

    procs = [env.process(wrap(body)) for body in thread_bodies]
    if procs:
        env.run(AllOf(env, procs))
    return PhaseReport(
        seconds=env.now - start,
        per_thread_seconds=[t - start for t in finish_times],
    )


def load_phase(
    env: Environment,
    adapter: StoreAdapter,
    assignments: Sequence[tuple[str, Sequence[tuple[bytes, bytes]], ThreadCtx]],
    batch_pairs: int = 2048,
    create_containers: bool = True,
) -> PhaseReport:
    """The write phase: each (container, pairs, ctx) runs on its own thread.

    Each thread creates its container (unless pre-created), streams its
    pairs in batches, then runs the adapter's ``finish_load`` — so the phase
    duration includes compaction waits exactly where each store imposes
    them.
    """
    start_time = env.now
    seen: set[str] = set()
    for name, _pairs, _ctx in assignments:
        seen.add(name)
    if create_containers:
        creators = []
        created: set[str] = set()
        for name, _pairs, ctx in assignments:
            if name in created:
                continue
            created.add(name)

            def create(name=name, ctx=ctx) -> Generator:
                yield from adapter.create_container(name, ctx)

            creators.append(create())
        run_phase(env, creators)

    bodies = []
    total_ops = 0
    for name, pairs, ctx in assignments:
        total_ops += len(pairs)

        def body(name=name, pairs=pairs, ctx=ctx) -> Generator:
            for start in range(0, len(pairs), batch_pairs):
                yield from adapter.insert(
                    name, pairs[start : start + batch_pairs], ctx
                )

        bodies.append(body())
    report = run_phase(env, bodies)
    report.seconds = env.now - start_time  # include container creation

    # finish_load once per container, concurrently (the paper's program
    # invokes compaction per keyspace and waits once).
    finals = []
    for name in sorted(seen):
        ctx = next(c for n, _p, c in assignments if n == name)

        def final(name=name, ctx=ctx) -> Generator:
            yield from adapter.finish_load(name, ctx)

        finals.append(final())
    t0 = env.now
    run_phase(env, finals)
    report.seconds += env.now - t0
    report.operations = total_ops
    return report


def get_phase(
    env: Environment,
    adapter: StoreAdapter,
    assignments: Sequence[tuple[str, Sequence[bytes], ThreadCtx]],
    expect_found: bool = True,
) -> PhaseReport:
    """The query phase: each thread GETs its key list from its container."""
    bodies = []
    total_ops = sum(len(keys) for _n, keys, _c in assignments)

    def body(name: str, keys: Sequence[bytes], ctx: ThreadCtx) -> Generator:
        for key in keys:
            value = yield from adapter.get(name, key, ctx)
            if expect_found and value is None:
                raise AssertionError(f"lost key {key!r} in {name}")

    for name, keys, ctx in assignments:
        bodies.append(body(name, keys, ctx))
    report = run_phase(env, bodies)
    report.operations = total_ops
    return report
