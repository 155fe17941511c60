"""Benchmark calibration: Table I hardware encoding, scaled workloads, testbeds.

Table I of the paper:

    =========  ==========================  =============================
               Host                        KV-CSD CSD
    =========  ==========================  =============================
    CPU        32 AMD EPYC cores           4 ARM Cortex A53 cores
    RAM        512 GB DDR4                 8 GB DDR4
    OS         Ubuntu 18.04                Ubuntu 16.04
    Storage    KV-CSD CSD                  15 TB NVMe ZNS SSD
    =========  ==========================  =============================

plus 16 PCIe Gen3 lanes host<->CSD and 4 lanes SoC<->SSD.

Because a Python discrete-event simulation cannot usefully run 32M-key /
15 TB experiments, every capacity-like quantity is scaled down by a common
factor while *ratios* are preserved: workload size versus memtable size,
DRAM budget versus keyspace size, cache size versus dataset size.  The
scale used per experiment is recorded in EXPERIMENTS.md.  Latency-like
quantities (NAND, PCIe, syscall, per-entry CPU costs) are NOT scaled —
they are the physics the shapes come from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core import ClientCostModel, CsdCostModel, KvCsdClient, KvCsdDevice
from repro.errors import SimulationError
from repro.host import Filesystem, FsCostModel, PageCache, ThreadCtx
from repro.lsm import CompactionMode, DbOptions
from repro.nvme import Link, NvmeController, PcieLink, QueuePair
from repro.sim import CpuPool, Environment
from repro.soc import SocBoard, SocSpec
from repro.ssd import ConventionalSsd, NandLatencyModel, SsdGeometry, ZnsSsd
from repro.units import GiB, KiB, MiB
from repro.workloads import KvCsdAdapter, RocksDbAdapter

__all__ = [
    "HostSpec",
    "TABLE1_HOST",
    "TABLE1_CSD",
    "bench_geometry",
    "bench_db_options",
    "device_stack",
    "KvcsdTestbed",
    "RocksTestbed",
    "build_kvcsd_testbed",
    "build_rocksdb_testbed",
]


@dataclass(frozen=True)
class HostSpec:
    """Host-side parameters (Table I column 1, scaled where capacity-like)."""

    n_cores: int = 32
    #: simulated page-cache bytes; the real host's 512 GB dwarfs the dataset,
    #: so the scaled cache also dwarfs the scaled dataset (~8x)
    page_cache_bytes: int = 128 * MiB
    pcie_lanes_to_csd: int = 16
    timeslice: float = 5e-3


#: The paper's testbed, expressed at simulation scale.
TABLE1_HOST = HostSpec()
TABLE1_CSD = SocSpec(
    n_cores=4,
    dram_bytes=1 * GiB,  # scaled 8 GB
    arm_slowdown=3.0,  # A53 vs EPYC per-core throughput on sort/merge work
    sort_budget_bytes=256 * MiB,  # scaled 4 GiB working space
)


def bench_geometry(n_channels: int = 8, n_zones: int = 512, zone_size: int = 8 * MiB) -> SsdGeometry:
    """The scaled 15 TB ZNS SSD: 8 channels, 4 GiB of 8 MiB zones."""
    return SsdGeometry(
        n_channels=n_channels,
        n_zones=n_zones,
        zone_size=zone_size,
        logical_block_size=4 * KiB,
        pages_per_block=256,
    )


def bench_db_options(
    compaction_mode: CompactionMode = CompactionMode.AUTO,
    data_bytes: int | None = None,
    **overrides,
) -> DbOptions:
    """RocksDB options scaled with the workload.

    The paper's RocksDB instance ingests 1.5 GB per run against 64 MiB
    memtables (~24 flushes) and ~256 MiB L1 targets (~6x L1's worth of
    data).  Passing ``data_bytes`` preserves those *ratios* at simulation
    scale so the flush/compaction cadence per inserted byte matches; without
    it you get fixed mid-scale defaults.
    """
    if data_bytes is not None:
        memtable = max(32 * KiB, data_bytes // 24)
        l1 = max(128 * KiB, data_bytes // 6)
        params = dict(
            memtable_bytes=memtable,
            l1_target_bytes=l1,
            target_file_bytes=max(64 * KiB, l1 // 4),
            block_cache_bytes=max(1 * MiB, data_bytes // 4),
        )
    else:
        params = dict(
            memtable_bytes=256 * KiB,
            l1_target_bytes=1 * MiB,
            target_file_bytes=512 * KiB,
            block_cache_bytes=4 * MiB,
        )
    params.update(
        max_immutable_memtables=2,
        level_size_multiplier=10,
        l0_compaction_trigger=4,
        l0_slowdown_trigger=8,
        l0_stop_trigger=12,
        n_compaction_threads=2,
        enable_wal=False,  # the paper expects production runs to disable WAL
        compaction_mode=compaction_mode,
    )
    params.update(overrides)
    return DbOptions(**params)


# ---------------------------------------------------------------------- testbeds
def device_stack(
    ssd: ZnsSsd, link: Link, spec: SocSpec, rng: np.random.Generator, *,
    cluster_zones: int, membuf_bytes: int, bulk_message_bytes: int, queue_depth: int,
    csd_costs: CsdCostModel | None = None, client_costs: ClientCostModel | None = None,
    name: str = "kvcsd",
) -> tuple[SocBoard, KvCsdDevice, KvCsdClient]:
    """One device's SoC board, firmware and host client over ``ssd`` and
    ``link``: the only place a :class:`KvCsdDevice` is assembled."""
    board = SocBoard(ssd.env, ssd, spec=spec)
    device = KvCsdDevice(
        board, rng=rng, costs=csd_costs, cluster_zones=cluster_zones,
        membuf_bytes=membuf_bytes, name=name,
    )
    client = KvCsdClient(
        device, link, costs=client_costs,
        bulk_message_bytes=bulk_message_bytes, queue_depth=queue_depth,
    )
    return board, device, client


class KvcsdTestbed:
    """A host driving one KV-CSD device."""

    def __init__(
        self,
        seed: int = 0,
        host: HostSpec = TABLE1_HOST,
        soc: SocSpec = TABLE1_CSD,
        geometry: SsdGeometry | None = None,
        nand: NandLatencyModel | None = None,
        csd_costs: CsdCostModel | None = None,
        client_costs: ClientCostModel | None = None,
        cluster_zones: int = 4,
        membuf_bytes: int = 192 * KiB,
        bulk_message_bytes: int = 128 * KiB,
        compaction_shards: int | None = None,
        block_cache_bytes: int | None = None,
        query_workers: int | None = None,
        bloom_bits_per_key: int | None = None,
        queue_depth: int = 32,
    ):
        overrides = dict(
            compaction_shards=compaction_shards, block_cache_bytes=block_cache_bytes,
            query_workers=query_workers, bloom_bits_per_key=bloom_bits_per_key,
        )
        soc = replace(soc, **{k: v for k, v in overrides.items() if v is not None})
        self.env = Environment()
        self.host = host
        self.seed = seed
        self.ssd = ZnsSsd(self.env, geometry=geometry or bench_geometry(), latency=nand)
        self.link = PcieLink(self.env, lanes=host.pcie_lanes_to_csd)
        #: what :meth:`power_cycle` rebuilds the stack with
        self._stack = dict(
            spec=soc, csd_costs=csd_costs, client_costs=client_costs,
            cluster_zones=cluster_zones, membuf_bytes=membuf_bytes,
            bulk_message_bytes=bulk_message_bytes, queue_depth=queue_depth,
        )
        self.board, self.device, self.client = device_stack(
            self.ssd, self.link, rng=np.random.default_rng(seed), **self._stack
        )
        self.cpu = CpuPool(self.env, host.n_cores, timeslice=host.timeslice, name="host")
        self.adapter = KvCsdAdapter(self.client)

    def run(self, gen):
        """Run one simulation process to completion; returns its value."""
        return self.env.run(self.env.process(gen))

    def power_cycle(self) -> float:
        """Cut power and remount; returns the mount's virtual seconds.

        DRAM is lost, NAND persists: a fresh board, device and client (same
        configuration, device RNG seeded ``seed + 1``) mount the SSD over
        the same link, and ``adapter`` follows the new client.  Refused
        while the old device has work in flight — a powered-off device
        cannot keep writing to the flash the new one mounts; cut power
        *during* work with a :class:`~repro.ssd.faults.FaultPlan` and cycle
        a fresh testbed over the flash image instead.
        """
        busy = sorted(name for name, ks in self.device.keyspaces.items() if ks.jobs)
        if busy:
            raise SimulationError(f"power cycle with jobs in flight on {busy}")
        if any(qp.inflight or qp.unreaped for qp in self.device.host_qps):
            raise SimulationError("power cycle with a host command in flight")
        self.board, self.device, self.client = device_stack(
            self.ssd, self.link, rng=np.random.default_rng(self.seed + 1),
            **self._stack,
        )
        self.adapter.client = self.client
        t0 = self.env.now
        self.run(self.device.recover(self.thread_ctx(0)))
        return self.env.now - t0

    def thread_ctx(self, core: int) -> ThreadCtx:
        """A test thread pinned to one host core (the paper pins every one)."""
        return ThreadCtx(cpu=self.cpu, core=core)

    def enable_tracing(self, retain_spans: bool = True):
        """Install the observability layer; returns ``(tracer, hub)``.

        Must be called before the workload runs — spans are only recorded
        for simulation activity after installation.  ``retain_spans=False``
        keeps the hub's latency feed but drops finished spans, bounding
        memory on long runs (the timeline still works; trace export won't).
        """
        from repro.obs import install_observability

        return install_observability(
            self.env, device=self.device, ssd=self.ssd, link=self.link,
            retain_spans=retain_spans,
        )

    def enable_timeline(self, config=None, retain_spans: bool = True):
        """Install tracing (if needed) plus a continuous telemetry recorder.

        Returns ``(tracer, hub, recorder)``.  Unlike tracing/journaling,
        the timeline *does* schedule simulation events (its sampler ticks),
        so it is never enabled implicitly — but ticks are pure state reads,
        and every workload outcome matches the untimed run.
        ``retain_spans=False`` applies only when this call installs the
        tracer itself (long runs that want curves but no span dump).
        """
        from repro.obs import TimelineConfig, install_timeline

        tracer = self.env.tracer
        if tracer is None or tracer.hub is None:
            tracer, hub = self.enable_tracing(retain_spans=retain_spans)
        else:
            hub = tracer.hub
        recorder = install_timeline(
            self.env, hub, config if config is not None else TimelineConfig()
        )
        return tracer, hub, recorder

    def io_snapshot(self):
        return self.ssd.stats.snapshot()


class RocksTestbed:
    """A host running the RocksDB-like baseline on ext4 on a block SSD."""

    def __init__(
        self,
        seed: int = 0,
        host: HostSpec = TABLE1_HOST,
        geometry: SsdGeometry | None = None,
        nand: NandLatencyModel | None = None,
        fs_costs: FsCostModel | None = None,
        options: DbOptions | None = None,
        bg_cores: tuple[int, ...] | None = None,
    ):
        self.env = Environment()
        self.host = host
        self.ssd = ConventionalSsd(
            self.env, geometry=geometry or bench_geometry(), latency=nand
        )
        self.qp = QueuePair(self.env, NvmeController(self.env, self.ssd), depth=64)
        self.cache = PageCache(host.page_cache_bytes)
        self.fs = Filesystem(self.env, self.qp, self.cache, costs=fs_costs)
        self.cpu = CpuPool(self.env, host.n_cores, timeslice=host.timeslice, name="host")
        self.options = options or bench_db_options()
        # RocksDB's background workers "operate on any CPU core that had a
        # test thread pinned on it" — default to all cores; experiments pass
        # the pinned subset.
        cores = bg_cores or tuple(range(host.n_cores))
        self.bg_ctx = ThreadCtx(cpu=self.cpu, cores=cores, priority=5)
        self.adapter = RocksDbAdapter(self.fs, self.bg_ctx, self.options, self.env)

    def thread_ctx(self, core: int) -> ThreadCtx:
        return ThreadCtx(cpu=self.cpu, core=core)

    def io_snapshot(self):
        return self.ssd.stats.snapshot()


def build_kvcsd_testbed(seed: int = 0, **kw) -> KvcsdTestbed:
    """Convenience constructor used by benches and examples."""
    return KvcsdTestbed(seed=seed, **kw)


def build_rocksdb_testbed(
    seed: int = 0,
    compaction_mode: CompactionMode = CompactionMode.AUTO,
    n_test_threads: int | None = None,
    data_bytes: int | None = None,
    **kw,
) -> RocksTestbed:
    """Baseline testbed.

    ``n_test_threads`` pins the background workers to the test threads'
    cores (the paper's placement); ``data_bytes`` scales the DB options to
    the per-instance data volume.
    """
    options = kw.pop("options", None) or bench_db_options(
        compaction_mode, data_bytes=data_bytes
    )
    bg_cores = kw.pop("bg_cores", None)
    if bg_cores is None and n_test_threads is not None:
        bg_cores = tuple(range(n_test_threads))
    return RocksTestbed(seed=seed, options=options, bg_cores=bg_cores, **kw)
