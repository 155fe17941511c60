"""Figure 11: VPIC write-phase breakdown.

Paper setup (Section VI.C): a VPIC particle dump (256M particles, 16 files,
48 B/particle) is loaded by 16 threads into 16 keyspaces (KV-CSD) or 16
RocksDB instances.  Particle IDs are keys, the 32 B payload the value.

* KV-CSD: the loader inserts, invokes compaction + secondary-index
  construction on the device, and exits — "KV-CSD is able to run compaction
  and indexing asynchronously in the device without needing the host
  application to wait for it.  This makes KV-CSD effectively 10.6x faster
  ... with its 66s effective write time compared to RocksDB's 704s."
* RocksDB: the loader interleaves auxiliary ``<energy, particle-id>``
  key-value pairs (1 B key prefix distinguishes the two index families) so
  automatic compaction sorts both indexes; the reported time includes the
  final compaction wait.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.calibration import build_kvcsd_testbed, build_rocksdb_testbed
from repro.bench.report import ResultTable, require_counts, speedup
from repro.core.sidx import encode_skey
from repro.workloads import (
    ENERGY_DTYPE,
    ENERGY_OFFSET,
    ENERGY_WIDTH,
    VpicDataset,
    VpicSpec,
    load_phase,
    run_phase,
)

__all__ = [
    "Fig11Config",
    "Fig11Result",
    "run_fig11",
    "load_vpic_kvcsd",
    "load_vpic_rocksdb",
    "PRIMARY_PREFIX",
    "AUX_PREFIX",
]

#: RocksDB key-family prefixes ("a small 1B prefix is prepended to each key").
PRIMARY_PREFIX = b"\x01"
AUX_PREFIX = b"\x02"


@dataclass(frozen=True)
class Fig11Config:
    n_particles: int = 262144  # paper: 256M (scaled ~1/1000)
    n_files: int = 16
    seed: int = 11
    #: SoC query-worker cores for the (fig12) query phase; 0 = serial
    query_workers: int = 0
    #: per-key bloom bits for PIDX/SIDX block filters; 0 disables them
    bloom_bits_per_key: int = 0

    def __post_init__(self):
        require_counts(self)

    def spec(self) -> VpicSpec:
        return VpicSpec(
            n_particles=self.n_particles, n_files=self.n_files, seed=self.seed
        )


@dataclass
class Fig11Result:
    """Write-phase breakdown of both systems (Figure 11's bars)."""

    config: Fig11Config
    kvcsd_insert_s: float = 0.0
    kvcsd_compact_s: float = 0.0  # asynchronous, on the device
    kvcsd_sidx_s: float = 0.0  # asynchronous, on the device
    rocksdb_insert_s: float = 0.0  # includes interleaved compaction effects
    rocksdb_wait_s: float = 0.0  # final compaction wait

    @property
    def kvcsd_effective_s(self) -> float:
        """What the application experiences: insertion only."""
        return self.kvcsd_insert_s

    @property
    def kvcsd_total_s(self) -> float:
        return self.kvcsd_insert_s + self.kvcsd_compact_s + self.kvcsd_sidx_s

    @property
    def rocksdb_effective_s(self) -> float:
        """RocksDB's user must wait for compaction of both index families."""
        return self.rocksdb_insert_s + self.rocksdb_wait_s

    @property
    def effective_speedup(self) -> float:
        return speedup(self.rocksdb_effective_s, self.kvcsd_effective_s)

    def table(self) -> ResultTable:
        t = ResultTable(
            "Figure 11: VPIC write-phase breakdown (seconds)",
            ["system", "insert", "compaction", "sidx_build", "wait",
             "effective_write"],
        )
        t.add_row(
            "KV-CSD",
            self.kvcsd_insert_s,
            self.kvcsd_compact_s,
            self.kvcsd_sidx_s,
            0.0,
            self.kvcsd_effective_s,
        )
        t.add_row(
            "RocksDB",
            self.rocksdb_insert_s,
            0.0,
            0.0,
            self.rocksdb_wait_s,
            self.rocksdb_effective_s,
        )
        t.add_note(
            "KV-CSD compaction/sidx run asynchronously in the device; the "
            "application only experiences the insert column (paper: 66s vs 704s)"
        )
        t.add_note(f"effective speedup: {self.effective_speedup:.1f}x (paper: 10.6x)")
        return t


def load_vpic_kvcsd(config: Fig11Config, dataset: VpicDataset):
    """Load the dump into 16 keyspaces; returns (testbed, timing dict)."""
    kv = build_kvcsd_testbed(
        seed=config.seed,
        query_workers=config.query_workers,
        bloom_bits_per_key=config.bloom_bits_per_key,
    )
    n = config.n_files
    assignments = []
    for t in range(n):
        pairs = dataset.file_particles(t)
        assignments.append((f"vpic-{t}", pairs, kv.thread_ctx(t % kv.host.n_cores)))
    report = load_phase(kv.env, kv.adapter, assignments)
    insert_s = report.seconds

    # compaction was kicked by finish_load; wait for it and record the
    # device-side durations.
    t0 = kv.env.now

    def wait_compaction():
        ctx = kv.thread_ctx(0)
        for t in range(n):
            yield from kv.client.wait_for_device(f"vpic-{t}", ctx)

    kv.env.run(kv.env.process(wait_compaction()))
    compact_s = kv.env.now - t0

    # secondary index on the kinetic energy attribute.
    t0 = kv.env.now

    def build_indexes():
        ctx = kv.thread_ctx(0)
        for t in range(n):
            yield from kv.client.build_secondary_index(
                f"vpic-{t}",
                "energy",
                value_offset=ENERGY_OFFSET,
                width=ENERGY_WIDTH,
                dtype=ENERGY_DTYPE,
                ctx=ctx,
            )
        for t in range(n):
            yield from kv.client.wait_for_device(f"vpic-{t}", ctx)

    kv.env.run(kv.env.process(build_indexes()))
    sidx_s = kv.env.now - t0
    return kv, {"insert": insert_s, "compact": compact_s, "sidx": sidx_s}


def rocksdb_vpic_pairs(dataset: VpicDataset, file_idx: int):
    """Primary + auxiliary pairs for one file, interleaved per particle.

    Primary: 0x01 | particle_id -> payload.  Auxiliary: 0x02 | big-endian
    order-preserving energy | particle_id -> empty (the id rides in the key
    so aux entries stay unique).
    """
    out = []
    for pid, payload in dataset.file_particles(file_idx):
        energy_raw = payload[ENERGY_OFFSET : ENERGY_OFFSET + ENERGY_WIDTH]
        out.append((PRIMARY_PREFIX + pid, payload))
        out.append((AUX_PREFIX + encode_skey(energy_raw, ENERGY_DTYPE) + pid, b""))
    return out


def load_vpic_rocksdb(config: Fig11Config, dataset: VpicDataset):
    """Load the dump (with aux index pairs) into 16 instances."""
    n = config.n_files
    per_file_bytes = (
        dataset.spec.particles_per_file * dataset.spec.particle_bytes * 2
    )
    rk = build_rocksdb_testbed(
        seed=config.seed, n_test_threads=n, data_bytes=per_file_bytes
    )
    assignments = []
    for t in range(n):
        pairs = rocksdb_vpic_pairs(dataset, t)
        assignments.append((f"vpic-{t}", pairs, rk.thread_ctx(t % rk.host.n_cores)))

    # Split the measurement: pure insert time vs final compaction wait.
    seen = set()
    creators = []
    for name, _pairs, ctx in assignments:
        if name not in seen:
            seen.add(name)

            def create(name=name, ctx=ctx):
                yield from rk.adapter.create_container(name, ctx)

            creators.append(create())
    run_phase(rk.env, creators)

    t0 = rk.env.now
    bodies = []
    for name, pairs, ctx in assignments:

        def body(name=name, pairs=pairs, ctx=ctx):
            for start in range(0, len(pairs), 2048):
                yield from rk.adapter.insert(name, pairs[start : start + 2048], ctx)

        bodies.append(body())
    run_phase(rk.env, bodies)
    insert_s = rk.env.now - t0

    t0 = rk.env.now
    finals = []
    for name in sorted(seen):
        ctx = next(c for nm, _p, c in assignments if nm == name)

        def final(name=name, ctx=ctx):
            yield from rk.adapter.finish_load(name, ctx)

        finals.append(final())
    run_phase(rk.env, finals)
    wait_s = rk.env.now - t0
    return rk, {"insert": insert_s, "wait": wait_s}


def run_fig11(config: Fig11Config = Fig11Config()) -> Fig11Result:
    """Run the VPIC write phase on both stores and collect the breakdown."""
    dataset = VpicDataset(config.spec())
    result = Fig11Result(config=config)
    _, kv_times = load_vpic_kvcsd(config, dataset)
    result.kvcsd_insert_s = kv_times["insert"]
    result.kvcsd_compact_s = kv_times["compact"]
    result.kvcsd_sidx_s = kv_times["sidx"]
    _, rk_times = load_vpic_rocksdb(config, dataset)
    result.rocksdb_insert_s = rk_times["insert"]
    result.rocksdb_wait_s = rk_times["wait"]
    return result
