"""The KV-CSD SoC board: ARM cores, DRAM, and the ZNS SSD behind them.

Mirrors the paper's Fidus Sidewinder-100 setup (Table I): a quad-core ARM
Cortex-A53 with 8 GB DDR4 running the device firmware, connected to an NVMe
ZNS SSD.  The board is deliberately *weaker* than the host — the point the
evaluation makes is that even slow device cores win by being asynchronous
and close to the data.

Firmware flash I/O goes straight to the :class:`~repro.ssd.zns.ZnsSsd`
model: the paper's SPDK driver path is not modelled as a queue, and no
per-command SoC CPU is charged for it.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.host.threads import ThreadCtx
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.soc.dram import DramBudget
from repro.ssd.zns import ZnsSsd
from repro.units import GiB

__all__ = ["SocSpec", "SocBoard"]


@dataclass(frozen=True)
class SocSpec:
    """Static parameters of the SoC.

    ``arm_slowdown`` scales CPU work relative to a host core: the A53 runs
    at a fraction of an EPYC core's per-byte throughput on sort/merge-type
    work (in-order, small caches).  Firmware CPU costs are specified in
    host-core seconds and multiplied by this factor when charged here.
    """

    n_cores: int = 4
    dram_bytes: int = 8 * GiB
    arm_slowdown: float = 3.0
    timeslice: float = 10e-3
    #: DRAM the firmware may use for one sort run (leaves room for buffers);
    #: scaled down together with workloads in benchmarks.
    sort_budget_bytes: int = 4 * GiB
    #: key-range shards the compaction sort is partitioned into (clamped to
    #: ``n_cores`` at use); 1 = the serial single-process compaction path.
    compaction_shards: int = 1
    #: SoC DRAM carved out for the device-side LRU block cache; 0 disables
    #: caching (the paper's "no device cache" configuration).
    block_cache_bytes: int = 0
    #: worker processes the query scheduler fans commands out to (clamped to
    #: ``n_cores`` at use); 0 = the serial in-caller query path.
    query_workers: int = 0
    #: bits per key for per-PIDX/SIDX-block bloom filters built during
    #: compaction and index builds; 0 disables blooms entirely.
    bloom_bits_per_key: int = 0
    #: admission-queue depth of the query scheduler (backpressure bound).
    query_queue_depth: int = 64
    #: always True (the A/B metadata log is the only mode); kept because
    #: callers still pass ``durable_meta=True``.
    durable_meta: bool = True

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise SimulationError("SoC needs at least one core")
        if self.arm_slowdown <= 0:
            raise SimulationError("arm_slowdown must be positive")
        if self.timeslice <= 0:
            raise SimulationError("timeslice must be positive")
        if not 0 < self.sort_budget_bytes <= self.dram_bytes:
            raise SimulationError("sort budget must fit in DRAM")
        if self.compaction_shards < 1:
            raise SimulationError("compaction needs at least one shard")
        if self.block_cache_bytes < 0:
            raise SimulationError("block cache size cannot be negative")
        if self.sort_budget_bytes + self.block_cache_bytes > self.dram_bytes:
            raise SimulationError("sort budget + block cache must fit in DRAM")
        if self.query_workers < 0:
            raise SimulationError("query worker count cannot be negative")
        if self.bloom_bits_per_key < 0:
            raise SimulationError("bloom bits per key cannot be negative")
        if self.query_queue_depth < 1:
            raise SimulationError("query queue depth must be positive")
        if not self.durable_meta:
            raise SimulationError(
                "durable_meta=False (the v1 metadata writer) no longer exists"
            )


class SocBoard:
    """Runtime resources of the SoC."""

    def __init__(self, env: Environment, ssd: ZnsSsd, spec: SocSpec | None = None):
        self.env = env
        self.spec = spec or SocSpec()
        self.ssd = ssd
        self.cpu = CpuPool(
            env, self.spec.n_cores, timeslice=self.spec.timeslice, name="soc"
        )
        self.dram = DramBudget(env, self.spec.dram_bytes)

    def firmware_ctx(self, priority: int = 0) -> ThreadCtx:
        """A context for firmware work floating over all SoC cores."""
        return ThreadCtx(cpu=self.cpu, priority=priority)

    def scale_cpu(self, host_seconds: float) -> float:
        """Convert host-core CPU seconds into SoC-core seconds."""
        return host_seconds * self.spec.arm_slowdown

    def charge(self, ctx: ThreadCtx, host_seconds: float) -> Generator:
        """Run ``host_seconds`` of host-core work on ``ctx``'s SoC core
        (plain function returning the execute generator: no extra frame)."""
        return ctx.execute(host_seconds * self.spec.arm_slowdown)

    def introspect(self) -> dict:
        """Core/DRAM state for device snapshots (no simulation events)."""
        return {
            "n_cores": self.spec.n_cores,
            "arm_slowdown": self.spec.arm_slowdown,
            "core_busy_seconds": list(self.cpu.busy_time),
            "sort_budget_bytes": self.spec.sort_budget_bytes,
            "block_cache_bytes": self.spec.block_cache_bytes,
            "compaction_shards": self.spec.compaction_shards,
            "query_workers": self.spec.query_workers,
            "bloom_bits_per_key": self.spec.bloom_bits_per_key,
            "dram": self.dram.introspect(),
        }
