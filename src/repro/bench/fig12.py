"""Figure 12: secondary-index (energy) query time versus selectivity.

Paper setup: the VPIC dataset of Figure 11, queried by 16 threads (one per
keyspace) with energy thresholds chosen to hit 0.1% .. 20% of the particles.

* KV-CSD executes the whole query in the device and streams back matching
  particles.
* RocksDB runs a two-step query: scan the auxiliary energy index for
  particle IDs, then point-GET each matching particle from the primary
  index.  The OS page cache is cleaned at the start of each run, but
  client-side caching *within* a run increasingly helps as selectivity
  (and thus the amount of re-read data) grows.

"KV-CSD's query speedup drops as query selectivity reduces — from 7.4x in
the 0.1% run to 1.3x in the 20% run."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.calibration import KvcsdTestbed, RocksTestbed
from repro.bench.fig11 import (
    AUX_PREFIX,
    Fig11Config,
    PRIMARY_PREFIX,
    load_vpic_kvcsd,
    load_vpic_rocksdb,
)
from repro.bench.report import ResultTable, require_counts, speedup
from repro.core.sidx import encode_skey
from repro.workloads import ENERGY_DTYPE, VpicDataset, run_phase

__all__ = ["Fig12Config", "Fig12Row", "Fig12Result", "run_fig12"]


@dataclass(frozen=True)
class Fig12Config:
    n_particles: int = 262144  # paper: 256M (scaled ~1/1000)
    n_files: int = 16
    selectivities: tuple[float, ...] = (0.001, 0.005, 0.01, 0.05, 0.1, 0.2)
    seed: int = 11  # shares the Figure 11 dataset
    #: SoC query-worker cores for the query phase; 0 = serial (paper config)
    query_workers: int = 0
    #: per-key bloom bits for PIDX/SIDX block filters; 0 disables them
    bloom_bits_per_key: int = 0

    def __post_init__(self):
        require_counts(self)

    def fig11(self) -> Fig11Config:
        return Fig11Config(
            n_particles=self.n_particles,
            n_files=self.n_files,
            seed=self.seed,
            query_workers=self.query_workers,
            bloom_bits_per_key=self.bloom_bits_per_key,
        )


@dataclass
class Fig12Row:
    """One selectivity level's measurements."""

    selectivity: float
    threshold: float
    expected_hits: int
    kvcsd_seconds: float
    kvcsd_hits: int
    rocksdb_seconds: float
    rocksdb_hits: int

    @property
    def speedup(self) -> float:
        return speedup(self.rocksdb_seconds, self.kvcsd_seconds)


@dataclass
class Fig12Result:
    """The full Figure 12 sweep; its checks are rows of ``bench.claims``."""

    config: Fig12Config
    rows: list[Fig12Row] = field(default_factory=list)

    def table(self) -> ResultTable:
        t = ResultTable(
            "Figure 12: secondary-index query time vs selectivity",
            ["selectivity_%", "hits", "kvcsd_s", "rocksdb_s", "speedup"],
        )
        for r in self.rows:
            t.add_row(
                r.selectivity * 100,
                r.kvcsd_hits,
                r.kvcsd_seconds,
                r.rocksdb_seconds,
                r.speedup,
            )
        t.add_note("paper: 7.4x at 0.1% decaying to 1.3x at 20%")
        return t


def _kvcsd_query_phase(
    kv: KvcsdTestbed, config: Fig12Config, threshold: float
) -> tuple[float, int]:
    lo, hi = VpicDataset.energy_query_bounds(threshold)
    hits: list[int] = []

    def body(t: int):
        ctx = kv.thread_ctx(t % kv.host.n_cores)
        result = yield from kv.client.sidx_range_query(
            f"vpic-{t}", "energy", lo, hi, ctx
        )
        hits.append(len(result))

    t0 = kv.env.now
    run_phase(kv.env, [body(t) for t in range(config.n_files)])
    return kv.env.now - t0, sum(hits)


def _rocksdb_query_phase(
    rk: RocksTestbed, config: Fig12Config, threshold: float
) -> tuple[float, int]:
    """The paper's two-step scheme: aux-index scan, then primary GETs."""
    lo_raw, _ = VpicDataset.energy_query_bounds(threshold)
    scan_lo = AUX_PREFIX + encode_skey(lo_raw, ENERGY_DTYPE)
    scan_hi = AUX_PREFIX + b"\xff" * 16
    hits: list[int] = []

    def body(t: int):
        ctx = rk.thread_ctx(t % rk.host.n_cores)
        name = f"vpic-{t}"
        aux = yield from rk.adapter.scan(name, scan_lo, scan_hi, ctx)
        count = 0
        skey_width = 4  # encoded f32 energy
        for aux_key, _empty in aux:
            pid = aux_key[len(AUX_PREFIX) + skey_width :]
            particle = yield from rk.adapter.get(name, PRIMARY_PREFIX + pid, ctx)
            if particle is not None:
                count += 1
        hits.append(count)

    # fresh reader program: cold OS page cache + fresh block caches
    rk.fs.drop_caches()
    for db in rk.adapter.dbs.values():
        db.block_cache.clear()
        db._readers.clear()
    t0 = rk.env.now
    run_phase(rk.env, [body(t) for t in range(config.n_files)])
    return rk.env.now - t0, sum(hits)


def run_fig12(config: Fig12Config = Fig12Config()) -> Fig12Result:
    """Load the VPIC dataset once, then sweep energy-threshold queries."""
    fig11_config = config.fig11()
    dataset = VpicDataset(fig11_config.spec())
    kv, _ = load_vpic_kvcsd(fig11_config, dataset)
    rk, _ = load_vpic_rocksdb(fig11_config, dataset)

    result = Fig12Result(config=config)
    for selectivity in config.selectivities:
        threshold = dataset.energy_threshold(selectivity)
        expected = dataset.particles_above(threshold)
        kv_seconds, kv_hits = _kvcsd_query_phase(kv, config, threshold)
        rk_seconds, rk_hits = _rocksdb_query_phase(rk, config, threshold)
        result.rows.append(
            Fig12Row(
                selectivity=selectivity,
                threshold=threshold,
                expected_hits=expected,
                kvcsd_seconds=kv_seconds,
                kvcsd_hits=kv_hits,
                rocksdb_seconds=rk_seconds,
                rocksdb_hits=rk_hits,
            )
        )
    return result
