"""Figure 9: multi-keyspace insertion scaling, RocksDB in three modes.

Paper setup: 1–32 threads, each inserting 32M 16B/32B pairs into its *own*
keyspace (KV-CSD) or per-thread RocksDB instance on a shared ext4.  RocksDB
runs with (1) default automatic compaction, (2) deferred compaction held
until after the load, and (3) compaction disabled.  "At 32 keyspaces,
KV-CSD is 7.8x, 6.1x, and 2.9x faster than RocksDB with default automatic
compaction, with deferred compaction, and with no compaction respectively."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.calibration import build_kvcsd_testbed, build_rocksdb_testbed
from repro.bench.report import ResultTable, ShapeCheck, require_counts, speedup
from repro.lsm import CompactionMode
from repro.workloads import SyntheticSpec, generate_pairs, load_phase

__all__ = ["Fig9Config", "Fig9Row", "Fig9Result", "run_fig9", "MODES"]

MODES = (CompactionMode.AUTO, CompactionMode.DEFERRED, CompactionMode.NONE)


@dataclass(frozen=True)
class Fig9Config:
    """Scaled experiment parameters (paper: 32M pairs per thread)."""

    pairs_per_thread: int = 8192  # paper: 32M per thread
    key_bytes: int = 16
    value_bytes: int = 32
    thread_counts: tuple[int, ...] = (1, 4, 16, 32)
    seed: int = 9

    def __post_init__(self):
        require_counts(self)


@dataclass
class Fig9Row:
    """One thread-count configuration's measurements across all modes."""

    threads: int
    kvcsd_seconds: float
    rocksdb_seconds: dict[CompactionMode, float]

    def speedup_over(self, mode: CompactionMode) -> float:
        return speedup(self.rocksdb_seconds[mode], self.kvcsd_seconds)


@dataclass
class Fig9Result:
    """The full Figure 9 sweep with table and shape checks."""

    config: Fig9Config
    rows: list[Fig9Row] = field(default_factory=list)

    def table(self) -> ResultTable:
        t = ResultTable(
            "Figure 9: multi-keyspace insertion time",
            [
                "threads",
                "kvcsd_s",
                "rocksdb_auto_s",
                "rocksdb_deferred_s",
                "rocksdb_none_s",
                "x_auto",
                "x_deferred",
                "x_none",
            ],
        )
        for r in self.rows:
            t.add_row(
                r.threads,
                r.kvcsd_seconds,
                r.rocksdb_seconds[CompactionMode.AUTO],
                r.rocksdb_seconds[CompactionMode.DEFERRED],
                r.rocksdb_seconds[CompactionMode.NONE],
                r.speedup_over(CompactionMode.AUTO),
                r.speedup_over(CompactionMode.DEFERRED),
                r.speedup_over(CompactionMode.NONE),
            )
        return t

    def checks(self) -> list[ShapeCheck]:
        last = self.rows[-1]
        return [
            ShapeCheck(
                "KV-CSD beats every RocksDB mode at every scale",
                all(
                    r.speedup_over(mode) > 1.0
                    for r in self.rows
                    for mode in MODES
                ),
                f"min {min(r.speedup_over(m) for r in self.rows for m in MODES):.2f}x",
            ),
            ShapeCheck(
                "Deferred compaction beats automatic compaction for RocksDB "
                "(single final pass moves less data)",
                last.rocksdb_seconds[CompactionMode.DEFERRED]
                < last.rocksdb_seconds[CompactionMode.AUTO],
                f"deferred {last.rocksdb_seconds[CompactionMode.DEFERRED]:.3f}s vs "
                f"auto {last.rocksdb_seconds[CompactionMode.AUTO]:.3f}s",
            ),
            ShapeCheck(
                "No-compaction is the fastest RocksDB mode",
                last.rocksdb_seconds[CompactionMode.NONE]
                == min(last.rocksdb_seconds.values()),
            ),
            ShapeCheck(
                "Speedup ordering at max scale: auto > deferred > none "
                "(paper: 7.8x / 6.1x / 2.9x)",
                last.speedup_over(CompactionMode.AUTO)
                > last.speedup_over(CompactionMode.DEFERRED)
                > last.speedup_over(CompactionMode.NONE)
                > 1.0,
                f"{last.speedup_over(CompactionMode.AUTO):.2f}x / "
                f"{last.speedup_over(CompactionMode.DEFERRED):.2f}x / "
                f"{last.speedup_over(CompactionMode.NONE):.2f}x",
            ),
        ]


def _per_thread_pairs(config: Fig9Config, thread_id: int):
    return generate_pairs(
        SyntheticSpec(
            n_pairs=config.pairs_per_thread,
            key_bytes=config.key_bytes,
            value_bytes=config.value_bytes,
            seed=config.seed * 1000 + thread_id,
        )
    )


def run_fig9(config: Fig9Config = Fig9Config()) -> Fig9Result:
    """Run the multi-keyspace sweep: KV-CSD + three RocksDB modes."""
    result = Fig9Result(config=config)
    for threads in config.thread_counts:
        per_thread = [_per_thread_pairs(config, t) for t in range(threads)]

        kv = build_kvcsd_testbed(seed=config.seed)
        assignments = [
            (f"ks-{t}", per_thread[t], kv.thread_ctx(t)) for t in range(threads)
        ]
        kvcsd_seconds = load_phase(kv.env, kv.adapter, assignments).seconds

        per_db_bytes = config.pairs_per_thread * (
            config.key_bytes + config.value_bytes
        )
        rocksdb_seconds: dict[CompactionMode, float] = {}
        for mode in MODES:
            rk = build_rocksdb_testbed(
                seed=config.seed,
                compaction_mode=mode,
                n_test_threads=threads,
                data_bytes=per_db_bytes,
            )
            assignments = [
                (f"db-{t}", per_thread[t], rk.thread_ctx(t)) for t in range(threads)
            ]
            rocksdb_seconds[mode] = load_phase(
                rk.env, rk.adapter, assignments
            ).seconds
        result.rows.append(
            Fig9Row(
                threads=threads,
                kvcsd_seconds=kvcsd_seconds,
                rocksdb_seconds=rocksdb_seconds,
            )
        )
    return result
