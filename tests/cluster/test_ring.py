"""Hash-ring placement: distribution, stability, and edge cases."""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster.ring import HashRing, key_point
from repro.errors import SimulationError


def _keys(n: int) -> list[bytes]:
    return [f"key-{i:06d}".encode() for i in range(n)]


class TestSingleDevice:
    def test_everything_lands_on_the_only_device(self):
        ring = HashRing(("dev0",))
        for key in _keys(100):
            assert ring.owners("ks", key, 1) == ("dev0",)
            assert ring.primary("ks", key) == "dev0"

    def test_share_is_total(self):
        ring = HashRing(("dev0",))
        assert ring.share("dev0") == pytest.approx(1.0)


class TestDistribution:
    def test_keys_spread_across_devices(self):
        devices = tuple(f"dev{i}" for i in range(4))
        ring = HashRing(devices)
        counts = {d: 0 for d in devices}
        for key in _keys(4000):
            counts[ring.primary("ks", key)] += 1
        # vnodes keep the skew bounded: no device owns more than ~2x fair
        for device, count in counts.items():
            assert 0.4 * 1000 < count < 2.0 * 1000, (device, counts)

    def test_vnode_weight_skews_arc_share(self):
        ring = HashRing(("a", "b"), vnodes=128, weights={"a": 3.0, "b": 1.0})
        # arc share tracks the 3:1 vnode weighting within tolerance
        assert ring.share("a") > 2.0 * ring.share("b")
        counts = {"a": 0, "b": 0}
        for key in _keys(4000):
            counts[ring.primary("ks", key)] += 1
        assert counts["a"] > 2.0 * counts["b"]

    def test_keyspace_is_part_of_the_point(self):
        ring = HashRing(tuple(f"dev{i}" for i in range(4)))
        keys = _keys(200)
        a = [ring.primary("ks-a", k) for k in keys]
        b = [ring.primary("ks-b", k) for k in keys]
        assert a != b  # same keys, different keyspace -> different layout
        assert key_point("ks-a", keys[0]) != key_point("ks-b", keys[0])


class TestReplicaSets:
    def test_replicas_are_distinct_devices(self):
        ring = HashRing(tuple(f"dev{i}" for i in range(5)))
        for key in _keys(300):
            owners = ring.owners("ks", key, 3)
            assert len(owners) == 3
            assert len(set(owners)) == 3

    def test_replica_count_clamps_to_fleet(self):
        ring = HashRing(("dev0", "dev1"))
        owners = ring.owners("ks", b"k", 5)
        assert sorted(owners) == ["dev0", "dev1"]

    def test_primary_is_first_owner(self):
        ring = HashRing(tuple(f"dev{i}" for i in range(4)))
        for key in _keys(50):
            assert ring.primary("ks", key) == ring.owners("ks", key, 3)[0]


class TestRingChanges:
    def test_add_device_moves_about_one_nth(self):
        devices = tuple(f"dev{i}" for i in range(4))
        ring = HashRing(devices)
        grown = ring.add_device("dev4")
        keys = _keys(4000)
        moved = sum(
            1 for k in keys
            if ring.primary("ks", k) != grown.primary("ks", k)
        )
        # consistent hashing: ~1/5 of keys move, and every moved key moves
        # *to* the new device, never between survivors
        assert 0.5 * 800 < moved < 1.8 * 800
        for k in keys:
            old, new = ring.primary("ks", k), grown.primary("ks", k)
            if old != new:
                assert new == "dev4"

    def test_remove_device_only_moves_its_keys(self):
        devices = tuple(f"dev{i}" for i in range(4))
        ring = HashRing(devices)
        shrunk = ring.remove_device("dev3")
        for k in _keys(2000):
            old, new = ring.primary("ks", k), shrunk.primary("ks", k)
            if old != "dev3":
                assert new == old  # survivors keep their keys

    def test_add_existing_device_raises(self):
        ring = HashRing(("dev0", "dev1"))
        with pytest.raises(SimulationError):
            ring.add_device("dev0")

    def test_remove_unknown_device_raises(self):
        ring = HashRing(("dev0", "dev1"))
        with pytest.raises(SimulationError):
            ring.remove_device("dev9")

    def test_remove_last_device_raises(self):
        ring = HashRing(("dev0",))
        with pytest.raises(SimulationError):
            ring.remove_device("dev0")


class TestHashOnce:
    """A key's point does not depend on the ring: walking an epoch chain
    hashes each key once, however many rings the chain holds."""

    @pytest.fixture
    def chain(self, monkeypatch):
        import repro.cluster.ring as ring_module
        from repro.cluster import LogicalKeyspace
        from repro.cluster.router import _Migration

        lk = LogicalKeyspace("ks", HashRing(("dev0", "dev1")), replicas=2)
        for dev in ("dev2", "dev3", "dev4"):
            lk.rings.append(lk.rings[-1].add_device(dev))
        lk.migration = _Migration(lk.rings[-1].remove_device("dev0"), len(lk.rings))
        assert len(lk.rings) == 4
        hashes = []

        class CountingHashlib:
            @staticmethod
            def sha256(data):
                hashes.append(data)
                return hashlib.sha256(data)

        # the rings are built: from here on only placement hashes
        monkeypatch.setattr(ring_module, "hashlib", CountingHashlib)
        return lk, hashes

    def test_scalar_walks_hash_once(self, chain):
        lk, hashes = chain
        lk.locate(b"k")
        assert len(hashes) == 1
        lk.locate_pending(b"k")
        assert len(hashes) == 2

    @pytest.mark.parametrize("pending", [False, True])
    def test_a_batch_hashes_each_key_once(self, chain, pending):
        lk, hashes = chain
        lk.locate_many(_keys(50), pending=pending)
        assert len(hashes) == 50
