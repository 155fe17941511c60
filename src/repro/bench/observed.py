"""The observed reference runs: small workloads every observer has work in.

Three registry entries, each accepting every observer (``--trace``,
``--timeline``, ``--explain``, ``--journal``, ``--audit``):

* ``obs_selftest`` — bulk load, device-side compaction (with its background
  job), point GETs, a batched multi-GET and a range query on a testbed with
  a block cache, two query workers and blooms, so every span category and
  the cache/scheduler/bloom series appear;
* ``obs_saturate`` — one host thread posts a burst of GETs into a deep
  submission window while the device runs *one* query worker, reaping each
  completion as soon as it arrives: the admission queue backs up past the
  ``query-queue-saturated`` threshold, and per-op latency shows the
  device-side queueing the critical path names (no span covers that wait,
  so only the unsaturated runs check span coverage);
* ``obs_lifecycle`` — create, open, bulk ingest, compaction with an inline
  secondary index, then point / multi / range / secondary queries: the
  structures the invariant auditor checks at every flush and phase.

``tests/obs/golden_obs.json`` pins the selftest and saturate exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.calibration import build_kvcsd_testbed
from repro.bench.report import ResultTable, ShapeCheck, require_counts, unobserved
from repro.core.sidx import SidxConfig
from repro.nvme.kv_commands import KvGetCmd
from repro.obs.export import min_command_coverage
from repro.units import MiB
from repro.workloads import SyntheticSpec, generate_pairs, get_phase, load_phase

__all__ = [
    "ObsLifecycleConfig",
    "ObsSaturateConfig",
    "ObsSelftestConfig",
    "ObservedResult",
    "run_obs_lifecycle",
    "run_obs_saturate",
    "run_obs_selftest",
]


@dataclass(frozen=True)
class ObsSelftestConfig:
    n_pairs: int = 2000
    seed: int = 0

    def __post_init__(self):
        require_counts(self)


@dataclass(frozen=True)
class ObsSaturateConfig:
    n_pairs: int = 2048
    #: GETs posted back to back by the one host thread
    burst: int = 256
    queue_depth: int = 64
    seed: int = 0

    def __post_init__(self):
        require_counts(self)


@dataclass(frozen=True)
class ObsLifecycleConfig:
    n_pairs: int = 2000
    seed: int = 0

    def __post_init__(self):
        require_counts(self)


@dataclass
class ObservedResult:
    """What an observed run did; the observers' reports are the point."""

    title: str
    n_pairs: int
    virtual_seconds: float = 0.0
    commands: int = 0
    shape: list[ShapeCheck] = field(default_factory=list)

    def table(self) -> ResultTable:
        t = ResultTable(self.title, ["pairs", "host commands", "simulated seconds"])
        t.add_row(self.n_pairs, self.commands, self.virtual_seconds)
        return t

    def checks(self) -> list[ShapeCheck]:
        return list(self.shape)

    def metrics(self) -> dict:
        return {"virtual_seconds": self.virtual_seconds, "commands": self.commands}


def _finish(result: ObservedResult, kv) -> ObservedResult:
    result.virtual_seconds = kv.env.now
    result.commands = sum(qp.submitted for qp in kv.device.host_qps)
    return result


def _span_coverage(kv) -> list[ShapeCheck]:
    """With spans retained, an unsaturated run's span trees must cover its
    commands' latency (the gate of ``--trace``)."""
    tracer = kv.env.tracer
    if tracer is None or not tracer.command_roots():
        return []
    coverage = min_command_coverage(tracer)
    return [ShapeCheck(
        "trace: span trees cover >= 95% of every command's latency",
        coverage >= 0.95, f"{coverage * 100:.1f}%",
    )]


def _load_and_compact(kv, seed: int, n_pairs: int) -> list:
    """Load ``n_pairs`` into keyspace ``ks`` and wait until it is queryable."""
    pairs = generate_pairs(SyntheticSpec(n_pairs=n_pairs, seed=seed))
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])
    kv.run(kv.adapter.prepare_queries("ks", kv.thread_ctx(0)))
    return pairs


def _range_expected(pairs, lo: bytes, hi: bytes) -> int:
    return sum(1 for k, _ in pairs if lo <= k < hi)


def run_obs_selftest(
    config: ObsSelftestConfig = ObsSelftestConfig(), observe=unobserved
) -> ObservedResult:
    kv = build_kvcsd_testbed(
        seed=config.seed, block_cache_bytes=4 * MiB, query_workers=2,
        bloom_bits_per_key=10,
    )
    observe(kv)
    pairs = _load_and_compact(kv, config.seed, config.n_pairs)
    expected = dict(pairs)
    keys = [k for k, _ in pairs[::50]]
    # raises on a lost key
    get_phase(kv.env, kv.adapter, [("ks", keys, kv.thread_ctx(0))])
    lo, hi = min(keys), max(keys)

    def batched_queries():
        ctx = kv.thread_ctx(1)
        found = yield from kv.client.multi_get("ks", keys[:16], ctx)
        scanned = yield from kv.client.range_query("ks", lo, hi, ctx)
        return found, scanned

    found, scanned = kv.run(batched_queries())
    result = ObservedResult("Observed selftest", config.n_pairs, shape=[
        ShapeCheck(
            "point GETs and the multi-GET return the loaded values",
            found == {k: expected[k] for k in keys[:16]},
        ),
        ShapeCheck(
            "the range query returns every loaded pair in range",
            len(scanned) == _range_expected(pairs, lo, hi)
            and all(expected[k] == v for k, v in scanned),
            f"{len(scanned)} pairs",
        ),
        *_span_coverage(kv),
    ])
    return _finish(result, kv)


def run_obs_saturate(
    config: ObsSaturateConfig = ObsSaturateConfig(), observe=unobserved
) -> ObservedResult:
    kv = build_kvcsd_testbed(
        seed=config.seed, query_workers=1, queue_depth=config.queue_depth
    )
    observe(kv)
    pairs = _load_and_compact(kv, config.seed, config.n_pairs)
    commands = [
        KvGetCmd(keyspace="ks", key=pairs[i % config.n_pairs][0])
        for i in range(config.burst)
    ]

    def driver():
        # In-order prompt reaping: after each post, drain every completion
        # that has already arrived at the head of the burst.
        ctx = kv.thread_ctx(0)
        qp = kv.client.qp
        tickets = []
        head = 0
        for command in commands:
            tickets.append((yield from qp.post(command, ctx)))
            while head < len(tickets) and tickets[head].done:
                yield from qp.wait(tickets[head], ctx, raise_on_error=False)
                head += 1
        for ticket in tickets[head:]:
            yield from qp.wait(ticket, ctx, raise_on_error=False)
        return tickets

    tickets = kv.run(driver())
    ok = sum(1 for t in tickets if t.completion is not None and t.completion.ok)
    result = ObservedResult("Saturated query worker", config.n_pairs, shape=[
        ShapeCheck(
            "every GET of the burst completes OK",
            ok == config.burst, f"{ok}/{config.burst}",
        ),
    ])
    return _finish(result, kv)


def run_obs_lifecycle(
    config: ObsLifecycleConfig = ObsLifecycleConfig(), observe=unobserved
) -> ObservedResult:
    kv = build_kvcsd_testbed(seed=config.seed, block_cache_bytes=4 * MiB)
    observe(kv)
    pairs = generate_pairs(SyntheticSpec(n_pairs=config.n_pairs, seed=config.seed))
    expected = dict(pairs)
    keys = [k for k, _ in pairs[::50]]
    lo, hi = min(keys), max(keys)

    def workload():
        ctx = kv.thread_ctx(0)
        yield from kv.client.create_keyspace("ks", ctx)
        yield from kv.client.open_keyspace("ks", ctx)
        yield from kv.client.bulk_put("ks", pairs, ctx)
        # Values are random bytes; index their first 8 bytes as a u64.
        yield from kv.client.compact(
            "ks", ctx,
            secondary_indexes=[
                SidxConfig(name="val64", value_offset=0, width=8, dtype="u64")
            ],
        )
        yield from kv.client.wait_for_device("ks", ctx)
        got = []
        for key in keys[:32]:
            got.append((yield from kv.client.get("ks", key, ctx)))
        found = yield from kv.client.multi_get("ks", keys[:16], ctx)
        scanned = yield from kv.client.range_query("ks", lo, hi, ctx)
        hits = yield from kv.client.sidx_range_query(
            "ks", "val64", b"\x00" * 8, b"\xff" * 8, ctx
        )
        return got, found, scanned, hits

    got, found, scanned, hits = kv.run(workload())
    result = ObservedResult("Keyspace lifecycle", config.n_pairs, shape=[
        ShapeCheck(
            "point GETs and the multi-GET return the loaded values",
            got == [expected[k] for k in keys[:32]]
            and found == {k: expected[k] for k in keys[:16]},
        ),
        ShapeCheck(
            "the range query returns every loaded pair in range",
            len(scanned) == _range_expected(pairs, lo, hi)
            and all(expected[k] == v for k, v in scanned),
            f"{len(scanned)} pairs",
        ),
        ShapeCheck(
            "the secondary-index query returns only loaded pairs",
            bool(hits) and all(expected.get(k) == v for k, v in hits),
            f"{len(hits)} hits",
        ),
        *_span_coverage(kv),
    ])
    return _finish(result, kv)
