"""Figure 10: random GET performance and its I/O statistics.

Paper setup: the 32-keyspace dataset of Figure 9 is queried with 32K–320K
random GETs by 32 threads, each targeting its own keyspace.  "KV-CSD does
not cache data in host or device memory.  For RocksDB runs, we clean OS
page cache at the beginning of each run."

Shapes reproduced:

* both are fast post-compaction; KV-CSD is up to ~1.3x faster (it reads
  exactly one PIDX block + one value extent, with no filesystem layers);
* RocksDB's *per-query* time improves as more keys are queried — caching
  amortises index/filter/readahead I/O (Fig 10a);
* RocksDB exhibits read inflation: device bytes read far exceed the bytes
  returned to the application (Fig 10b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.calibration import build_kvcsd_testbed, build_rocksdb_testbed
from repro.bench.report import ResultTable, require_counts, speedup
from repro.ssd.metrics import IoStats
from repro.workloads import SyntheticSpec, generate_pairs, get_phase, load_phase

__all__ = ["Fig10Config", "Fig10Row", "Fig10Result", "run_fig10"]


@dataclass(frozen=True)
class Fig10Config:
    n_keyspaces: int = 32  # paper: 32 keyspaces x 32M keys = 1B keys
    pairs_per_keyspace: int = 8192
    key_bytes: int = 16
    value_bytes: int = 32
    #: total query counts swept (paper: 32K .. 320K over 1B keys; the ratio
    #: of queries to stored keys is what matters and is kept comparable)
    query_counts: tuple[int, ...] = (256, 512, 1024, 2048)
    seed: int = 10
    #: SoC DRAM block cache bytes; 0 keeps the paper's "KV-CSD does not
    #: cache data in host or device memory" configuration (and the shape
    #: check that depends on it)
    block_cache_bytes: int = 0
    #: SoC query-worker cores; 0 keeps the serial reference engine
    query_workers: int = 0
    #: per-key bloom bits for PIDX/SIDX block filters; 0 disables them
    bloom_bits_per_key: int = 0

    def __post_init__(self):
        require_counts(self)


@dataclass
class Fig10Row:
    """One query-count configuration's measurements."""

    queries: int
    kvcsd_seconds: float
    rocksdb_seconds: float
    kvcsd_io: IoStats
    rocksdb_io: IoStats

    @property
    def speedup(self) -> float:
        return speedup(self.rocksdb_seconds, self.kvcsd_seconds)


@dataclass
class Fig10Result:
    """The full Figure 10 sweep; its checks are rows of ``bench.claims``."""

    config: Fig10Config
    rows: list[Fig10Row] = field(default_factory=list)

    def table(self) -> ResultTable:
        t = ResultTable(
            "Figure 10a: random GET time",
            ["queries", "kvcsd_s", "rocksdb_s", "speedup",
             "kvcsd_us_per_get", "rocksdb_us_per_get"],
        )
        for r in self.rows:
            t.add_row(
                r.queries,
                r.kvcsd_seconds,
                r.rocksdb_seconds,
                r.speedup,
                r.kvcsd_seconds / r.queries * 1e6,
                r.rocksdb_seconds / r.queries * 1e6,
            )
        return t

    def io_table(self) -> ResultTable:
        value = self.config.value_bytes
        t = ResultTable(
            "Figure 10b: device reads during the GET phase",
            ["queries", "returned_bytes", "kvcsd_read", "kvcsd_inflation",
             "rocksdb_read", "rocksdb_inflation"],
        )
        for r in self.rows:
            returned = r.queries * value
            t.add_row(
                r.queries,
                returned,
                r.kvcsd_io.bytes_read,
                r.kvcsd_io.bytes_read / returned,
                r.rocksdb_io.bytes_read,
                r.rocksdb_io.bytes_read / returned,
            )
        return t


def run_fig10(config: Fig10Config = Fig10Config()) -> Fig10Result:
    """Load both stores once, then sweep the random-GET query counts."""
    rng = np.random.default_rng(config.seed)
    per_ks_pairs = [
        generate_pairs(
            SyntheticSpec(
                n_pairs=config.pairs_per_keyspace,
                key_bytes=config.key_bytes,
                value_bytes=config.value_bytes,
                seed=config.seed * 100 + i,
            )
        )
        for i in range(config.n_keyspaces)
    ]
    n_ks = config.n_keyspaces

    # ---- load both stores once (the Figure 9 dataset)
    kv = build_kvcsd_testbed(
        seed=config.seed,
        block_cache_bytes=config.block_cache_bytes,
        query_workers=config.query_workers,
        bloom_bits_per_key=config.bloom_bits_per_key,
    )
    assignments = [
        (f"ks-{i}", per_ks_pairs[i], kv.thread_ctx(i % kv.host.n_cores))
        for i in range(n_ks)
    ]
    load_phase(kv.env, kv.adapter, assignments)
    # queries need the device compaction to be done
    def kv_wait():
        for i in range(n_ks):
            yield from kv.adapter.prepare_queries(f"ks-{i}", kv.thread_ctx(0))

    kv.env.run(kv.env.process(kv_wait()))

    rk = build_rocksdb_testbed(
        seed=config.seed,
        n_test_threads=min(n_ks, 32),
        data_bytes=config.pairs_per_keyspace * (config.key_bytes + config.value_bytes),
    )
    assignments = [
        (f"db-{i}", per_ks_pairs[i], rk.thread_ctx(i % rk.host.n_cores))
        for i in range(n_ks)
    ]
    load_phase(rk.env, rk.adapter, assignments)

    result = Fig10Result(config=config)
    for total_queries in config.query_counts:
        per_thread = max(1, total_queries // n_ks)
        # Choose random keys per keyspace (uniform, like the paper's random GETs).
        chosen = []
        for i in range(n_ks):
            idx = rng.integers(0, config.pairs_per_keyspace, size=per_thread)
            chosen.append([per_ks_pairs[i][j][0] for j in idx])

        # --- KV-CSD: no caches to clean
        before = kv.ssd.stats.snapshot()
        kv_assign = [
            (f"ks-{i}", chosen[i], kv.thread_ctx(i % kv.host.n_cores))
            for i in range(n_ks)
        ]
        kv_report = get_phase(kv.env, kv.adapter, kv_assign)
        kv_io = kv.ssd.stats.delta(before)

        # --- RocksDB: fresh reader program — cold OS page cache and caches
        rk.fs.drop_caches()
        for db in rk.adapter.dbs.values():
            db.block_cache.clear()
            db._readers.clear()
        before = rk.ssd.stats.snapshot()
        rk_assign = [
            (f"db-{i}", chosen[i], rk.thread_ctx(i % rk.host.n_cores))
            for i in range(n_ks)
        ]
        rk_report = get_phase(rk.env, rk.adapter, rk_assign)
        rk_io = rk.ssd.stats.delta(before)

        result.rows.append(
            Fig10Row(
                queries=per_thread * n_ks,
                kvcsd_seconds=kv_report.seconds,
                rocksdb_seconds=rk_report.seconds,
                kvcsd_io=kv_io,
                rocksdb_io=rk_io,
            )
        )
    return result
