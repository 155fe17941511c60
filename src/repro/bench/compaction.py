"""Compaction-pipeline and block-cache ablation benchmark.

Two device-side optimisations the SoC's four A53 cores make possible:

* **Multi-core pipelined compaction** — the KLOG sort is range-partitioned
  across ``compaction_shards`` firmware processes, VLOG cluster reads are
  prefetched while the sort runs, and the SORTED_VALUES append stream
  overlaps PIDX block construction through a bounded queue.  The serial
  path (``compaction_shards=1``) is the reference; outputs must stay
  byte-identical.
* **Device-side block cache** — an LRU over SoC DRAM holding PIDX blocks
  and value extents, sized by ``block_cache_bytes``.  Measured with a
  repeated Zipfian point-GET workload (YCSB-style skew).

The regression harness (``benchmarks/test_compaction_pipeline.py``) runs
this and checks the speedup, core spread, output identity, and hit rate,
then writes ``results/BENCH_compaction.json``.  Observers go on the
pipelined run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.calibration import build_kvcsd_testbed
from repro.bench.report import (
    ResultTable,
    ShapeCheck,
    device_stats,
    require_counts,
    speedup,
    unobserved,
)
from repro.units import MiB
from repro.workloads import (
    SyntheticSpec,
    ZipfSampler,
    generate_pairs,
    get_phase,
    load_phase,
)

__all__ = ["CompactionBenchConfig", "CompactionBenchResult", "run_compaction_bench"]


@dataclass(frozen=True)
class CompactionBenchConfig:
    """Mirrors the ablation-deferred workload, plus the two new knobs."""

    n_pairs: int = 16384
    key_bytes: int = 16
    value_bytes: int = 32
    seed: int = 35
    #: shard count for the pipelined run (serial baseline is always 1)
    shards: int = 4
    #: SoC DRAM given to the block cache during the GET phase
    block_cache_bytes: int = 8 * MiB
    #: Zipfian GET workload: distinct draws, replayed ``query_rounds`` times
    n_queries: int = 1024
    query_rounds: int = 2
    zipf_theta: float = 0.99

    def __post_init__(self):
        require_counts(self)


@dataclass
class CompactionBenchResult:
    config: CompactionBenchConfig
    serial_seconds: float = 0.0
    pipelined_seconds: float = 0.0
    serial_busy: list[float] = field(default_factory=list)
    pipelined_busy: list[float] = field(default_factory=list)
    identical_outputs: bool = False
    cache_report: dict = field(default_factory=dict)
    device_stats: dict = field(default_factory=dict)

    @property
    def compaction_speedup(self) -> float:
        return speedup(self.serial_seconds, self.pipelined_seconds)

    @property
    def cores_used(self) -> int:
        return sum(1 for b in self.pipelined_busy if b > 1e-9)

    @property
    def hit_rate(self) -> float:
        return self.cache_report.get("hit_rate", 0.0)

    def table(self) -> ResultTable:
        t = ResultTable(
            "Compaction pipeline + block cache ablation",
            ["mode", "compaction_s", "busy_cores"],
        )
        t.add_row(
            "serial (1 shard)",
            self.serial_seconds,
            sum(1 for b in self.serial_busy if b > 1e-9),
        )
        t.add_row(
            f"pipelined ({self.config.shards} shards)",
            self.pipelined_seconds,
            self.cores_used,
        )
        t.add_note(f"speedup: {self.compaction_speedup:.2f}x")
        t.add_note(f"outputs byte-identical: {self.identical_outputs}")
        t.add_note(
            f"zipfian GET hit rate: {self.hit_rate:.2f} "
            f"({self.cache_report.get('hits', 0)} hits / "
            f"{self.cache_report.get('misses', 0)} misses)"
        )
        return t

    def checks(self) -> list[ShapeCheck]:
        return [
            ShapeCheck(
                "pipelined compaction beats serial by >= 1.5x",
                self.compaction_speedup >= 1.5,
                f"{self.compaction_speedup:.2f}x",
            ),
            ShapeCheck(
                "compaction work spreads across >= 2 SoC cores",
                self.cores_used >= 2,
                f"{self.cores_used} cores busy",
            ),
            ShapeCheck(
                "sharded compaction output is byte-identical to serial",
                self.identical_outputs,
            ),
            ShapeCheck(
                "block cache serves >= 50% of repeated zipfian GET reads",
                self.hit_rate >= 0.5,
                f"{self.hit_rate:.2f}",
            ),
        ]

    def metrics(self) -> dict:
        return {
            "serial_compaction_seconds": self.serial_seconds,
            "pipelined_compaction_seconds": self.pipelined_seconds,
            "compaction_speedup": self.compaction_speedup,
            "serial_soc_busy_seconds": list(self.serial_busy),
            "pipelined_soc_busy_seconds": list(self.pipelined_busy),
            "cores_used": self.cores_used,
            "identical_outputs": self.identical_outputs,
            "block_cache": self.cache_report,
            "device_stats": self.device_stats,
        }


def _load_and_compact(
    config: CompactionBenchConfig, pairs, shards, cache_bytes, observe=unobserved
):
    """One testbed: load, wait for device compaction, return measurements."""
    kv = build_kvcsd_testbed(
        seed=config.seed,
        compaction_shards=shards,
        block_cache_bytes=cache_bytes,
    )
    observe(kv)
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])

    kv.run(kv.client.wait_for_device("ks", kv.thread_ctx(0)))
    seconds = kv.device.job_durations[("ks", "compaction")]
    return kv, seconds, list(kv.board.cpu.busy_time)


def run_compaction_bench(
    config: CompactionBenchConfig = CompactionBenchConfig(), observe=unobserved
) -> CompactionBenchResult:
    """Serial vs sharded compaction, then a cached Zipfian GET phase."""
    pairs = generate_pairs(
        SyntheticSpec(
            n_pairs=config.n_pairs,
            key_bytes=config.key_bytes,
            value_bytes=config.value_bytes,
            seed=config.seed,
        )
    )
    result = CompactionBenchResult(config=config)

    serial, result.serial_seconds, result.serial_busy = _load_and_compact(
        config, pairs, shards=1, cache_bytes=0
    )
    piped, result.pipelined_seconds, result.pipelined_busy = _load_and_compact(
        config,
        pairs,
        shards=config.shards,
        cache_bytes=config.block_cache_bytes,
        observe=observe,
    )

    a = serial.device.keyspaces["ks"].pidx_sketch
    b = piped.device.keyspaces["ks"].pidx_sketch
    result.identical_outputs = (
        a.pivots == b.pivots and a.block_pointers == b.block_pointers
    )

    # --- repeated Zipfian point GETs against the cached device
    sampler = ZipfSampler(
        config.n_pairs,
        theta=config.zipf_theta,
        rng=np.random.default_rng(config.seed),
    )
    ranks = sampler.sample(config.n_queries)
    keys = [pairs[r][0] for r in ranks] * config.query_rounds

    piped.run(piped.adapter.prepare_queries("ks", piped.thread_ctx(0)))
    get_phase(piped.env, piped.adapter, [("ks", keys, piped.thread_ctx(0))])
    cache = piped.device.block_cache
    result.cache_report = cache.report() if cache is not None else {}
    result.device_stats = device_stats(piped.device)
    return result
