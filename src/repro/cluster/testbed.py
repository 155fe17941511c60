"""Cluster testbed: one host driving N simulated KV-CSD devices.

One :class:`~repro.sim.core.Environment` holds the whole fleet — N
independent device stacks (ZNS SSD, SoC board, KV-CSD firmware, NVMe-oF
fabric link, host client/queue pair) plus one shared host CPU pool, a
:class:`~repro.cluster.router.ClusterRouter` over all of them, and a
:class:`~repro.workloads.adapters.KvCsdAdapter` so every existing workload
driver runs against the cluster unchanged.

Determinism: each device draws from its own name-seeded RNG stream
(``dev3.zones`` via :class:`~repro.sim.rng.RngRegistry`), so adding a
device to the fleet never perturbs the draws the existing devices see —
the property the golden-clock digest for the 2-device router pins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.calibration import (
    TABLE1_CSD,
    TABLE1_HOST,
    HostSpec,
    bench_geometry,
    device_stack,
)
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter
from repro.core import KvCsdClient, KvCsdDevice
from repro.errors import SimulationError
from repro.host import ThreadCtx
from repro.nvme.fabric import NvmeOfLink
from repro.nvme.transport import Link
from repro.sim import CpuPool, Environment
from repro.sim.rng import RngRegistry
from repro.soc import SocBoard, SocSpec
from repro.ssd import NandLatencyModel, SsdGeometry, ZnsSsd
from repro.units import KiB
from repro.workloads import KvCsdAdapter

__all__ = ["DeviceNode", "ClusterTestbed", "build_cluster_testbed"]


@dataclass
class DeviceNode:
    """One device's full stack, as wired into the cluster."""

    name: str
    ssd: ZnsSsd
    board: SocBoard
    device: KvCsdDevice
    link: Link
    client: KvCsdClient


class ClusterTestbed:
    """A host driving ``n_devices`` KV-CSDs through the cluster router."""

    def __init__(
        self,
        n_devices: int = 2,
        seed: int = 0,
        host: HostSpec = TABLE1_HOST,
        soc: SocSpec = TABLE1_CSD,
        geometry: SsdGeometry | None = None,
        nand: NandLatencyModel | None = None,
        ring: HashRing | None = None,
        replicas: int = 1,
        vnodes: int = 64,
        cluster_zones: int = 4,
        membuf_bytes: int = 192 * KiB,
        bulk_message_bytes: int = 128 * KiB,
        queue_depth: int = 32,
    ):
        if n_devices < 1:
            raise SimulationError("a cluster needs at least one device")
        self.env = Environment()
        self.host = host
        self.seed = seed
        #: independent name-seeded stream per consumer (satellite of the
        #: determinism contract: fleet size never changes a device's draws)
        self.rngs = RngRegistry(seed)
        self.nodes: list[DeviceNode] = []
        for i in range(n_devices):
            name = f"dev{i}"
            ssd = ZnsSsd(
                self.env,
                geometry=geometry if geometry is not None else bench_geometry(),
                latency=nand,
                name=f"{name}.zns",
            )
            # each device sits behind its own NVMe-oF fabric path (the
            # scale-out topology: devices in an enclosure, not on one bus)
            link = NvmeOfLink(self.env, name=f"{name}.fabric")
            board, device, client = device_stack(
                ssd, link, soc, self.rngs.stream(f"{name}.zones"),
                name=name,
                cluster_zones=cluster_zones,
                membuf_bytes=membuf_bytes,
                bulk_message_bytes=bulk_message_bytes,
                queue_depth=queue_depth,
            )
            client.qp.name = f"{name}.host-kv"
            # NVMe-oF target semantics: commands execute on the *device's*
            # SoC cores, not borrowed host-thread time — N devices must
            # burn N SoCs' worth of CPU or the fleet can't scale
            client.qp.device_ctx = board.firmware_ctx
            self.nodes.append(DeviceNode(name, ssd, board, device, link, client))
        self.cpu = CpuPool(
            self.env, host.n_cores, timeslice=host.timeslice, name="host"
        )
        device_names = tuple(node.name for node in self.nodes)
        self.router = ClusterRouter(
            [(node.name, node.client) for node in self.nodes],
            ring=ring or HashRing(device_names, vnodes=vnodes),
            replicas=replicas,
        )
        self.adapter = KvCsdAdapter(self.router)

    @property
    def devices(self) -> tuple[str, ...]:
        return self.router.devices

    def node(self, name: str) -> DeviceNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise SimulationError(f"unknown device {name!r}")

    def thread_ctx(self, core: int) -> ThreadCtx:
        """A test thread pinned to one host core."""
        return ThreadCtx(cpu=self.cpu, core=core)

    def enable_tracing(self, retain_spans: bool = True):
        """Install device-scoped observability; returns ``(tracer, hub)``.

        Every gauge/series is prefixed with its device's name
        (``dev0.sq.depth``), the router's ring/migration gauges ride along
        unprefixed, and spans/critpath resources carry per-device queue
        names — the cluster shares one journal and one trace.
        """
        from repro.obs import install_cluster_observability

        return install_cluster_observability(
            self.env, self.nodes, router=self.router,
            retain_spans=retain_spans,
        )


def build_cluster_testbed(
    n_devices: int = 2, seed: int = 0, **kw
) -> ClusterTestbed:
    """Convenience constructor used by benches, tests and examples."""
    return ClusterTestbed(n_devices=n_devices, seed=seed, **kw)
