"""Query-offload benchmark: scheduler fan-out + PIDX bloom ablation.

Two read-side optimisations the SoC's four A53 cores make possible:

* **Multi-core query scheduler** — incoming query commands are admitted
  into a bounded queue and fanned out across ``query_workers`` firmware
  processes, so concurrent GETs from different host threads overlap SoC
  CPU work with flash reads instead of serializing through one core.
  Measured as a multi-threaded GET phase at ``query_workers=1`` versus
  ``query_workers=N``; results must stay byte-identical to the inline
  serial engine (``query_workers=0``).
* **Per-block bloom filters** — built during compaction over each PIDX
  (and SIDX) block's keys, held in SoC DRAM against the board's budget.
  Negative point lookups skip the block read entirely.  Measured as an
  all-absent-key GET phase with blooms off versus on, comparing the
  ``pidx_block_reads`` counter deltas.

The regression harness (``benchmarks/test_query_offload.py``) runs this
and checks the speedup, block-read elimination, and output identity, then
writes ``results/BENCH_query.json``.  Observers go on the parallel testbed
and see every phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.calibration import build_kvcsd_testbed
from repro.bench.report import ResultTable, ShapeCheck, device_stats, speedup, unobserved
from repro.workloads import SyntheticSpec, generate_pairs, get_phase, load_phase

__all__ = ["QueryBenchConfig", "QueryBenchResult", "run_query_bench"]


@dataclass(frozen=True)
class QueryBenchConfig:
    """Workload shape plus the two read-side knobs under test."""

    n_pairs: int = 8192
    key_bytes: int = 16
    value_bytes: int = 32
    seed: int = 41
    #: worker count for the parallel run (the timing baseline is 1 worker)
    workers: int = 4
    #: per-key bloom bits for the bloom-on run (off run is always 0)
    bloom_bits_per_key: int = 10
    #: concurrent host threads issuing GETs in the timing phase
    n_threads: int = 8
    queries_per_thread: int = 192
    #: all-absent keys probed in the bloom ablation phase
    absent_queries: int = 1024


@dataclass
class QueryBenchResult:
    config: QueryBenchConfig
    one_worker_seconds: float = 0.0
    parallel_seconds: float = 0.0
    get_ops: int = 0
    bloom_off_block_reads: int = 0
    bloom_on_block_reads: int = 0
    bloom_probes: int = 0
    bloom_skips: int = 0
    bloom_dram_bytes: int = 0
    identical_results: bool = False
    scheduler_report: dict = field(default_factory=dict)
    device_stats: dict = field(default_factory=dict)

    @property
    def get_speedup(self) -> float:
        return speedup(self.one_worker_seconds, self.parallel_seconds)

    @property
    def block_read_elimination(self) -> float:
        """Fraction of absent-key PIDX block reads the blooms removed."""
        if self.bloom_off_block_reads == 0:
            return 0.0
        return 1.0 - self.bloom_on_block_reads / self.bloom_off_block_reads

    def table(self) -> ResultTable:
        t = ResultTable(
            "Query offload: scheduler fan-out + PIDX bloom ablation",
            ["phase", "config", "observed"],
        )
        t.add_row("threaded GETs", "1 worker",
                  f"{self.one_worker_seconds:.6f}s")
        t.add_row("threaded GETs", f"{self.config.workers} workers",
                  f"{self.parallel_seconds:.6f}s")
        t.add_row("absent GETs", "blooms off",
                  f"{self.bloom_off_block_reads} PIDX block reads")
        t.add_row("absent GETs",
                  f"blooms {self.config.bloom_bits_per_key}b/key",
                  f"{self.bloom_on_block_reads} PIDX block reads")
        t.add_note(f"GET speedup: {self.get_speedup:.2f}x "
                   f"({self.get_ops} ops, {self.config.n_threads} threads)")
        t.add_note(f"block-read elimination: "
                   f"{self.block_read_elimination * 100:.1f}% "
                   f"({self.bloom_skips} bloom skips, "
                   f"{self.bloom_dram_bytes} DRAM bytes)")
        t.add_note(f"parallel results identical to serial: "
                   f"{self.identical_results}")
        return t

    def checks(self) -> list[ShapeCheck]:
        return [
            ShapeCheck(
                f"{self.config.workers} query workers beat 1 worker by >= 2x "
                "on threaded GETs",
                self.get_speedup >= 2.0,
                f"{self.get_speedup:.2f}x",
            ),
            ShapeCheck(
                "blooms eliminate >= 90% of PIDX block reads on all-absent "
                "lookups",
                self.block_read_elimination >= 0.9,
                f"{self.block_read_elimination * 100:.1f}%",
            ),
            ShapeCheck(
                "parallel + bloom query results are byte-identical to the "
                "serial engine",
                self.identical_results,
            ),
            ShapeCheck(
                "scheduler drained: every admitted query was dispatched",
                self.scheduler_report.get("admitted", -1)
                == self.scheduler_report.get("dispatched", -2),
                f"{self.scheduler_report.get('admitted')} admitted / "
                f"{self.scheduler_report.get('dispatched')} dispatched",
            ),
        ]

    def metrics(self) -> dict:
        return {
            "one_worker_get_seconds": self.one_worker_seconds,
            "parallel_get_seconds": self.parallel_seconds,
            "get_speedup": self.get_speedup,
            "get_ops": self.get_ops,
            "bloom_off_block_reads": self.bloom_off_block_reads,
            "bloom_on_block_reads": self.bloom_on_block_reads,
            "block_read_elimination": self.block_read_elimination,
            "bloom_probes": self.bloom_probes,
            "bloom_skips": self.bloom_skips,
            "bloom_dram_bytes": self.bloom_dram_bytes,
            "identical_results": self.identical_results,
            "scheduler": self.scheduler_report,
            "device_stats": self.device_stats,
        }


def _build_loaded(config: QueryBenchConfig, pairs, workers, bloom_bits):
    """One testbed with the workload loaded, compacted, and query-ready."""
    kv = build_kvcsd_testbed(
        seed=config.seed,
        query_workers=workers,
        bloom_bits_per_key=bloom_bits,
    )
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])

    kv.run(kv.adapter.prepare_queries("ks", kv.thread_ctx(0)))
    return kv


def _threaded_get_phase(kv, config: QueryBenchConfig, keys) -> float:
    """``n_threads`` host threads GET disjoint slices of ``keys``."""
    per = len(keys) // config.n_threads
    assignments = [
        ("ks", keys[t * per : (t + 1) * per], kv.thread_ctx(t % kv.host.n_cores))
        for t in range(config.n_threads)
    ]
    return get_phase(kv.env, kv.adapter, assignments).seconds


def _absent_get_phase(kv, config: QueryBenchConfig, absent_keys) -> int:
    """All-absent GETs; returns the PIDX block reads the phase performed."""
    before = int(kv.device.stats.counter("pidx_block_reads").value)
    get_phase(
        kv.env,
        kv.adapter,
        [("ks", absent_keys, kv.thread_ctx(0))],
        expect_found=False,
    )
    return int(kv.device.stats.counter("pidx_block_reads").value) - before


def _collect_results(kv, sample_keys, lo, hi):
    """One mixed query pass whose outputs form the determinism fingerprint."""
    out = {}

    def body():
        values = []
        for key in sample_keys:
            value = yield from kv.client.get("ks", key, kv.thread_ctx(0))
            values.append(value)
        out["gets"] = values
        out["multi"] = sorted(
            (yield from kv.client.multi_get("ks", sample_keys, kv.thread_ctx(1))
             ).items()
        )
        out["range"] = yield from kv.client.range_query(
            "ks", lo, hi, kv.thread_ctx(2)
        )

    kv.env.run(kv.env.process(body()))
    return out


def run_query_bench(
    config: QueryBenchConfig = QueryBenchConfig(), observe=unobserved
) -> QueryBenchResult:
    """One-worker vs N-worker GETs, bloom ablation, determinism check."""
    pairs = generate_pairs(
        SyntheticSpec(
            n_pairs=config.n_pairs,
            key_bytes=config.key_bytes,
            value_bytes=config.value_bytes,
            seed=config.seed,
        )
    )
    result = QueryBenchResult(config=config)
    rng = np.random.default_rng(config.seed)

    # Shuffled present keys for the timing phase, identical on both runs.
    n_keys = config.n_threads * config.queries_per_thread
    picks = rng.integers(0, config.n_pairs, size=n_keys)
    get_keys = [pairs[i][0] for i in picks]
    # Absent keys that still land inside the keyspace's key range: flip the
    # high sequence byte (always zero in generated keys) of real keys.
    absent = rng.integers(0, config.n_pairs, size=config.absent_queries)
    absent_keys = [pairs[i][0][:-1] + b"\xff" for i in absent]
    sorted_keys = sorted(k for k, _ in pairs)
    lo, hi = sorted_keys[len(pairs) // 3], sorted_keys[2 * len(pairs) // 3]
    sample = [pairs[i][0] for i in picks[:64]]

    serial = _build_loaded(config, pairs, workers=0, bloom_bits=0)
    one = _build_loaded(config, pairs, workers=1, bloom_bits=0)
    piped = _build_loaded(
        config, pairs, workers=config.workers,
        bloom_bits=config.bloom_bits_per_key,
    )
    # Timeline ticks and critical-path bookkeeping are pure reads: the timed
    # phases and the determinism fingerprint are identical when observed.
    observe(piped)

    # --- phase A: multi-threaded GET throughput, 1 worker vs N workers
    result.one_worker_seconds = _threaded_get_phase(one, config, get_keys)
    result.parallel_seconds = _threaded_get_phase(piped, config, get_keys)
    result.get_ops = n_keys

    # --- phase B: all-absent lookups, blooms off vs on
    result.bloom_off_block_reads = _absent_get_phase(serial, config, absent_keys)
    result.bloom_on_block_reads = _absent_get_phase(piped, config, absent_keys)

    # --- phase C: the parallel+bloom device answers exactly like the serial one
    result.identical_results = _collect_results(
        serial, sample, lo, hi
    ) == _collect_results(piped, sample, lo, hi)

    result.device_stats = device_stats(piped.device)
    stats = result.device_stats["counters"]
    result.bloom_probes = int(stats.get("bloom_probes", 0))
    result.bloom_skips = int(stats.get("bloom_skips", 0))
    result.bloom_dram_bytes = sum(ks.bloom_dram for ks in piped.device.keyspaces.values())
    result.scheduler_report = {
        "admitted": int(stats.get("query_admitted", 0)),
        "dispatched": int(stats.get("query_dispatched", 0)),
        **piped.device.query_scheduler.introspect(),
    }
    return result
