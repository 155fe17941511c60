"""Shared fixtures for KV-CSD device tests."""

import pytest

from repro.bench.calibration import HostSpec, KvcsdTestbed
from repro.sim.cpu import DEFAULT_TIMESLICE
from repro.soc import SocSpec
from repro.ssd import SsdGeometry
from repro.units import KiB, MiB


class CsdTestbed(KvcsdTestbed):
    """A host + KV-CSD device pair for integration tests; ``ctx`` is the
    test thread on host core 0."""

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
        super().__init__(
            seed=42,
            host=HostSpec(
                n_cores=host_cores, timeslice=DEFAULT_TIMESLICE, pcie_lanes_to_csd=16
            ),
            soc=SocSpec(
                sort_budget_bytes=sort_budget,
                compaction_shards=compaction_shards,
                block_cache_bytes=block_cache_bytes,
                query_workers=query_workers,
                bloom_bits_per_key=bloom_bits_per_key,
            ),
            geometry=SsdGeometry(
                n_channels=n_channels, n_zones=n_zones, zone_size=zone_size
            ),
            membuf_bytes=membuf_bytes,
            cluster_zones=cluster_zones,
        )
        self.ctx = self.thread_ctx(0)


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
