"""Figure 7: PUT time and I/O statistics versus host CPU resources.

Paper setup (Section VI.B): 1–32 application threads insert 32M random
16B/32B pairs into a *shared* keyspace (KV-CSD, 128 KB bulk PUTs, deferred
compaction invoked at the end) or a single RocksDB instance (automatic
compaction, 2 background threads allowed on the pinned cores; the program
waits for compaction to finish before exiting).

Headline results reproduced as shapes:

* KV-CSD wins at every thread count (paper: 7.9x at 2 cores, 4.2x at 32);
* KV-CSD reaches peak performance with ~2 host cores, RocksDB needs many;
* Figure 7b: RocksDB's device I/O is a multiple of the user data volume
  (compaction re-reads and re-writes), KV-CSD's is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.calibration import build_kvcsd_testbed, build_rocksdb_testbed
from repro.bench.report import ResultTable, require_counts, speedup
from repro.ssd.metrics import IoStats
from repro.workloads import SyntheticSpec, generate_pairs, load_phase

__all__ = ["Fig7Config", "Fig7Row", "Fig7Result", "run_fig7", "split_evenly"]


@dataclass(frozen=True)
class Fig7Config:
    """Scaled experiment parameters (paper values in comments)."""

    n_pairs: int = 65536  # paper: 32M
    key_bytes: int = 16
    value_bytes: int = 32
    thread_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    seed: int = 7
    #: SoC key-range shards for the deferred compaction (1 = serial firmware)
    compaction_shards: int = 1

    def __post_init__(self):
        require_counts(self)


@dataclass
class Fig7Row:
    """One thread-count configuration's measurements."""

    threads: int
    kvcsd_seconds: float
    rocksdb_seconds: float
    kvcsd_io: IoStats
    rocksdb_io: IoStats

    @property
    def speedup(self) -> float:
        return speedup(self.rocksdb_seconds, self.kvcsd_seconds)


@dataclass
class Fig7Result:
    """The full Figure 7 sweep; its checks are rows of ``bench.claims``."""

    config: Fig7Config
    rows: list[Fig7Row] = field(default_factory=list)

    def table(self) -> ResultTable:
        t = ResultTable(
            "Figure 7a: time to insert into a shared keyspace",
            ["threads", "kvcsd_s", "rocksdb_s", "speedup"],
        )
        for r in self.rows:
            t.add_row(r.threads, r.kvcsd_seconds, r.rocksdb_seconds, r.speedup)
        return t

    @property
    def user_bytes(self) -> int:
        return self.config.n_pairs * (self.config.key_bytes + self.config.value_bytes)

    def io_table(self) -> ResultTable:
        t = ResultTable(
            "Figure 7b: device I/O during insertion (bytes, x user data)",
            [
                "threads",
                "kvcsd_written",
                "kvcsd_amp",
                "rocksdb_written",
                "rocksdb_amp",
                "rocksdb_read",
            ],
        )
        for r in self.rows:
            t.add_row(
                r.threads,
                r.kvcsd_io.bytes_written,
                r.kvcsd_io.bytes_written / self.user_bytes,
                r.rocksdb_io.bytes_written,
                r.rocksdb_io.bytes_written / self.user_bytes,
                r.rocksdb_io.bytes_read,
            )
        t.add_note(f"user data volume: {self.user_bytes} bytes")
        return t


def split_evenly(pairs, n_threads):
    """``n_threads`` equal chunks of ``pairs`` (a remainder is dropped)."""
    per = len(pairs) // n_threads
    return [pairs[i * per : (i + 1) * per] for i in range(n_threads)]


def run_fig7(config: Fig7Config = Fig7Config()) -> Fig7Result:
    """Run the full thread sweep for both stores."""
    pairs = generate_pairs(
        SyntheticSpec(
            n_pairs=config.n_pairs,
            key_bytes=config.key_bytes,
            value_bytes=config.value_bytes,
            seed=config.seed,
        )
    )
    result = Fig7Result(config=config)
    for threads in config.thread_counts:
        chunks = split_evenly(pairs, threads)

        # --- KV-CSD: reset device, new keyspace, bulk puts, deferred compaction
        kv = build_kvcsd_testbed(
            seed=config.seed, compaction_shards=config.compaction_shards
        )
        before = kv.io_snapshot()
        assignments = [
            ("shared", chunks[i], kv.thread_ctx(i)) for i in range(threads)
        ]
        report = load_phase(kv.env, kv.adapter, assignments)
        kv_seconds = report.seconds
        kv_io = kv.ssd.stats.delta(before)

        # --- RocksDB: new instance on fresh ext4, auto compaction, wait at end
        rk = build_rocksdb_testbed(
            seed=config.seed,
            n_test_threads=threads,
            data_bytes=config.n_pairs * (config.key_bytes + config.value_bytes),
        )
        before = rk.io_snapshot()
        assignments = [
            ("db", chunks[i], rk.thread_ctx(i)) for i in range(threads)
        ]
        report = load_phase(rk.env, rk.adapter, assignments)
        rk_seconds = report.seconds
        rk_io = rk.ssd.stats.delta(before)

        result.rows.append(
            Fig7Row(
                threads=threads,
                kvcsd_seconds=kv_seconds,
                rocksdb_seconds=rk_seconds,
                kvcsd_io=kv_io,
                rocksdb_io=rk_io,
            )
        )
    return result
