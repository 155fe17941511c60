"""Figure 8: insertion time versus value size.

Paper setup: 32M keys inserted with value sizes from 32 B to 4 KB into a
single keyspace.  RocksDB uses all 32 host cores; KV-CSD is shown with both
2 and 32 host cores.  "At 4KB values, KV-CSD using 32 host CPU cores is 10x
faster than RocksDB.  In fact, even limited to 2 host CPU cores, KV-CSD is
still 8.9x faster than RocksDB using 32 cores."

Shape criteria: the KV-CSD advantage *grows* with value size (RocksDB's
compaction becomes data-movement bound), and 2-core KV-CSD still beats
32-core RocksDB at the largest value size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.calibration import build_kvcsd_testbed, build_rocksdb_testbed
from repro.bench.fig7 import split_evenly
from repro.bench.report import ResultTable, require_counts, speedup
from repro.workloads import SyntheticSpec, generate_pairs, load_phase

__all__ = ["Fig8Config", "Fig8Row", "Fig8Result", "run_fig8"]


@dataclass(frozen=True)
class Fig8Config:
    """Scaled experiment parameters (paper: 32M pairs, 32B-4KB values)."""

    n_pairs: int = 16384  # paper: 32M
    key_bytes: int = 16
    value_sizes: tuple[int, ...] = (32, 128, 512, 1024, 4096)
    rocksdb_threads: int = 32
    kvcsd_thread_counts: tuple[int, ...] = (2, 32)
    seed: int = 8

    def __post_init__(self):
        require_counts(self)


@dataclass
class Fig8Row:
    """One value-size configuration's measurements."""

    value_bytes: int
    kvcsd_seconds: dict[int, float]  # thread count -> seconds
    rocksdb_seconds: float

    def speedup_at(self, threads: int) -> float:
        return speedup(self.rocksdb_seconds, self.kvcsd_seconds[threads])


@dataclass
class Fig8Result:
    """The full Figure 8 sweep; its checks are rows of ``bench.claims``."""

    config: Fig8Config
    rows: list[Fig8Row] = field(default_factory=list)

    def table(self) -> ResultTable:
        cols = ["value_bytes", "rocksdb32_s"]
        for t in self.config.kvcsd_thread_counts:
            cols += [f"kvcsd{t}_s", f"speedup@{t}"]
        t = ResultTable("Figure 8: insertion time vs value size", cols)
        for r in self.rows:
            cells = [r.value_bytes, r.rocksdb_seconds]
            for threads in self.config.kvcsd_thread_counts:
                cells += [r.kvcsd_seconds[threads], r.speedup_at(threads)]
            t.add_row(*cells)
        return t


def run_fig8(config: Fig8Config = Fig8Config()) -> Fig8Result:
    """Run the value-size sweep for both stores."""
    result = Fig8Result(config=config)
    for value_bytes in config.value_sizes:
        pairs = generate_pairs(
            SyntheticSpec(
                n_pairs=config.n_pairs,
                key_bytes=config.key_bytes,
                value_bytes=value_bytes,
                seed=config.seed,
            )
        )
        kvcsd_seconds: dict[int, float] = {}
        for threads in config.kvcsd_thread_counts:
            kv = build_kvcsd_testbed(seed=config.seed)
            chunks = split_evenly(pairs, threads)
            assignments = [
                ("shared", chunks[i], kv.thread_ctx(i)) for i in range(threads)
            ]
            kvcsd_seconds[threads] = load_phase(kv.env, kv.adapter, assignments).seconds

        # RocksDB options are sized once, anchored mid-sweep — the paper
        # keeps the store's configuration fixed while the data volume grows
        # with the value size, which is precisely why RocksDB becomes
        # "increasingly bottlenecked on data movement due to compaction"
        # (deeper trees, higher write amplification at larger values).
        anchor = config.value_sizes[len(config.value_sizes) // 2]
        rk = build_rocksdb_testbed(
            seed=config.seed,
            n_test_threads=config.rocksdb_threads,
            data_bytes=config.n_pairs * (config.key_bytes + anchor),
        )
        chunks = split_evenly(pairs, config.rocksdb_threads)
        assignments = [
            ("db", chunks[i], rk.thread_ctx(i))
            for i in range(config.rocksdb_threads)
        ]
        rocksdb_seconds = load_phase(rk.env, rk.adapter, assignments).seconds
        result.rows.append(
            Fig8Row(
                value_bytes=value_bytes,
                kvcsd_seconds=kvcsd_seconds,
                rocksdb_seconds=rocksdb_seconds,
            )
        )
    return result
