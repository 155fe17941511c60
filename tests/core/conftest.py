"""Shared fixtures for KV-CSD device tests."""

import numpy as np
import pytest

from repro.core import KvCsdClient, KvCsdDevice
from repro.host import ThreadCtx
from repro.nvme import PcieLink
from repro.sim import CpuPool, Environment
from repro.soc import SocBoard, SocSpec
from repro.ssd import SsdGeometry, ZnsSsd
from repro.units import KiB, MiB


class CsdTestbed:
    """A host + KV-CSD device pair for integration tests."""

    def __init__(
        self,
        n_zones=64,
        zone_size=4 * MiB,
        n_channels=4,
        sort_budget=64 * MiB,
        membuf_bytes=192 * KiB,
        cluster_zones=4,
        host_cores=4,
        compaction_shards=1,
        block_cache_bytes=0,
        query_workers=0,
        bloom_bits_per_key=0,
    ):
        self.env = Environment()
        self.ssd = ZnsSsd(
            self.env,
            geometry=SsdGeometry(
                n_channels=n_channels, n_zones=n_zones, zone_size=zone_size
            ),
        )
        self.board = SocBoard(
            self.env,
            self.ssd,
            spec=SocSpec(
                sort_budget_bytes=sort_budget,
                compaction_shards=compaction_shards,
                block_cache_bytes=block_cache_bytes,
                query_workers=query_workers,
                bloom_bits_per_key=bloom_bits_per_key,
            ),
        )
        self.device = KvCsdDevice(
            self.board,
            rng=np.random.default_rng(42),
            membuf_bytes=membuf_bytes,
            cluster_zones=cluster_zones,
        )
        self.link = PcieLink(self.env, lanes=16)
        self.client = KvCsdClient(self.device, self.link)
        self.cpu = CpuPool(self.env, n_cores=host_cores)
        self.ctx = ThreadCtx(cpu=self.cpu, core=0)

    def run(self, gen):
        return self.env.run(self.env.process(gen))


@pytest.fixture
def tb():
    return CsdTestbed()


def make_pairs(n, key_bytes=16, value_bytes=32, prefix="k"):
    pairs = [
        (
            f"{prefix}-{i:012d}".encode().ljust(key_bytes, b"0")[:key_bytes],
            bytes([i % 256]) * value_bytes,
        )
        for i in range(n)
    ]
    # Guard against truncation collisions from long prefixes: tests that
    # want unique keys must actually get them.
    assert len({k for k, _ in pairs}) == n, "key truncation collided; widen key_bytes"
    return pairs
