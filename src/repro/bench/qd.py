"""Queue-depth sweep: one host thread driving the async SQ/CQ path.

The refactored client posts command capsules and reaps completions
asynchronously, so a *single* host thread can keep ``queue_depth`` commands
in flight.  This bench sweeps QD over a GET phase and a PUT phase and
measures how much of the device's internal parallelism (query workers,
overlapped flash reads) one thread can now reach — pre-refactor, QD>1
required one host thread per outstanding command.

The regression harness (``benchmarks/test_qd_sweep.py``) runs this and
checks the headline criterion — QD=16 single-thread GET throughput at
least 2x QD=1 with four query workers — then writes
``results/BENCH_qd.json``.  Observers go on the deepest sweep, the one
whose in-flight window contends on slots and workers; load and prepare have
already run there, so they see the GET and PUT sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.calibration import build_kvcsd_testbed
from repro.bench.report import (
    ResultTable,
    ShapeCheck,
    require_ascending,
    speedup,
    unobserved,
)
from repro.nvme.kv_commands import KvGetCmd
from repro.obs.audit import check_queue_pair_accounting
from repro.workloads import SyntheticSpec, generate_pairs, load_phase

__all__ = ["QdBenchConfig", "QdBenchResult", "run_qd_bench"]


@dataclass(frozen=True)
class QdBenchConfig:
    """Workload shape plus the queue depths under test."""

    n_pairs: int = 8192
    key_bytes: int = 16
    value_bytes: int = 32
    seed: int = 47
    #: speedups are taken against QD=1, so the sweep starts there
    depths: tuple[int, ...] = (1, 4, 16, 32)
    #: SoC query workers — the device parallelism QD is supposed to expose
    query_workers: int = 4
    gets_per_depth: int = 512
    puts_per_depth: int = 512

    def __post_init__(self):
        require_ascending("depths", self.depths)
        if self.depths[0] != 1:
            raise ValueError(f"depths must start at 1, got {self.depths!r}")


@dataclass
class QdBenchResult:
    config: QdBenchConfig
    #: depth -> phase seconds
    get_seconds: dict[int, float] = field(default_factory=dict)
    put_seconds: dict[int, float] = field(default_factory=dict)
    #: depth -> queue-pair introspection after the sweep
    queue_state: dict[int, dict] = field(default_factory=dict)
    identical_results: bool = False
    accounting_clean: bool = False

    def get_speedup(self, depth: int) -> float:
        return speedup(self.get_seconds[1], self.get_seconds[depth])

    def put_speedup(self, depth: int) -> float:
        return speedup(self.put_seconds[1], self.put_seconds[depth])

    def table(self) -> ResultTable:
        t = ResultTable(
            "Queue-depth sweep: single-thread async GET/PUT",
            ["QD", "GET phase", "GET speedup", "PUT phase", "PUT speedup"],
        )
        for depth in self.config.depths:
            t.add_row(
                str(depth),
                f"{self.get_seconds[depth]:.6f}s",
                f"{self.get_speedup(depth):.2f}x",
                f"{self.put_seconds[depth]:.6f}s",
                f"{self.put_speedup(depth):.2f}x",
            )
        t.add_note(
            f"{self.config.gets_per_depth} GETs / {self.config.puts_per_depth} "
            f"PUTs per depth, one host thread, "
            f"{self.config.query_workers} query workers"
        )
        return t

    def checks(self) -> list[ShapeCheck]:
        qd16 = 16 if 16 in self.config.depths else max(self.config.depths)
        return [
            ShapeCheck(
                f"QD={qd16} single-thread GETs beat QD=1 by >= 2x "
                f"({self.config.query_workers} query workers)",
                self.get_speedup(qd16) >= 2.0,
                f"{self.get_speedup(qd16):.2f}x",
            ),
            ShapeCheck(
                "GET results are identical at every queue depth",
                self.identical_results,
            ),
            ShapeCheck(
                "queue-pair accounting is clean after every sweep",
                self.accounting_clean,
            ),
        ]

    def metrics(self) -> dict:
        return {
            "get_seconds": {str(d): s for d, s in self.get_seconds.items()},
            "put_seconds": {str(d): s for d, s in self.put_seconds.items()},
            "get_speedup": {
                str(d): self.get_speedup(d) for d in self.config.depths
            },
            "put_speedup": {
                str(d): self.put_speedup(d) for d in self.config.depths
            },
            "queue_state": {str(d): q for d, q in self.queue_state.items()},
            "identical_results": self.identical_results,
            "accounting_clean": self.accounting_clean,
        }


def _build_loaded(config: QdBenchConfig, pairs, depth):
    """One query-ready testbed whose client runs at ``depth``."""
    kv = build_kvcsd_testbed(
        seed=config.seed,
        query_workers=config.query_workers,
        queue_depth=depth,
    )
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])

    kv.run(kv.adapter.prepare_queries("ks", kv.thread_ctx(0)))
    return kv


def _get_sweep(kv, keys) -> tuple[float, list[bytes]]:
    """One thread posts every GET (pipelined to the client's queue depth),
    then reaps; returns (phase seconds, values in key order)."""
    t0 = kv.env.now

    def driver():
        ctx = kv.thread_ctx(0)
        commands = [KvGetCmd(keyspace="ks", key=k) for k in keys]
        return (yield from kv.client.submit_many(commands, ctx))

    completions = kv.env.run(kv.env.process(driver()))
    assert all(c.ok for c in completions)
    return kv.env.now - t0, [c.value for c in completions]


def _put_sweep(kv, pairs) -> float:
    """One thread streams single-pair PUTs through the async window."""
    t0 = kv.env.now

    def driver():
        ctx = kv.thread_ctx(0)
        yield from kv.client.create_keyspace("qd-put", ctx)
        yield from kv.client.open_keyspace("qd-put", ctx)
        tickets = []
        for key, value in pairs:
            tickets.append(
                (yield from kv.client.put_async("qd-put", key, value, ctx))
            )
        for ticket in tickets:
            yield from kv.client.wait(ticket, ctx)
        yield from kv.client.fsync("qd-put", ctx)

    kv.env.run(kv.env.process(driver()))
    return kv.env.now - t0


def run_qd_bench(
    config: QdBenchConfig = QdBenchConfig(), observe=unobserved
) -> QdBenchResult:
    """Sweep queue depth over single-thread GET and PUT phases."""
    pairs = generate_pairs(
        SyntheticSpec(
            n_pairs=config.n_pairs,
            key_bytes=config.key_bytes,
            value_bytes=config.value_bytes,
            seed=config.seed,
        )
    )
    rng = np.random.default_rng(config.seed)
    picks = rng.integers(0, config.n_pairs, size=config.gets_per_depth)
    get_keys = [pairs[i][0] for i in picks]
    put_pairs = [
        (b"p-" + pairs[i][0], pairs[i][1])
        for i in rng.integers(0, config.n_pairs, size=config.puts_per_depth)
    ]

    result = QdBenchResult(config=config)
    values_by_depth = {}
    accounting_clean = True
    for depth in config.depths:
        kv = _build_loaded(config, pairs, depth)
        if depth == config.depths[-1]:
            observe(kv)
        seconds, values = _get_sweep(kv, get_keys)
        result.get_seconds[depth] = seconds
        values_by_depth[depth] = values
        result.put_seconds[depth] = _put_sweep(kv, put_pairs)
        result.queue_state[depth] = kv.client.qp.introspect()
        accounting_clean = accounting_clean and not check_queue_pair_accounting(
            kv.client.qp
        )
    baseline = values_by_depth[config.depths[0]]
    result.identical_results = all(
        values_by_depth[d] == baseline for d in config.depths
    )
    result.accounting_clean = accounting_clean
    return result
