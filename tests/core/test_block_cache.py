"""Unit and integration tests for the SoC DRAM block cache.

The LRU layer under the query engine must (a) behave like a byte-bounded
LRU, (b) actually remove repeated SSD reads, and (c) never serve stale
bytes once a zone has been released and recycled.
"""

import pytest

from repro.core.block_cache import BlockCache
from repro.errors import SimulationError

from tests.core.conftest import CsdTestbed, make_pairs


def ptr(zone, offset=0, length=64):
    return (zone, offset, length)  # a ZonePointer triple


# ------------------------------------------------------------------- unit LRU
def test_cache_rejects_non_positive_capacity():
    with pytest.raises(SimulationError):
        BlockCache(0)


def test_hit_miss_and_counts():
    cache = BlockCache(1024)
    p = ptr(1)
    assert cache.get(p) is None
    cache.put(p, b"x" * 64)
    assert cache.get(p) == b"x" * 64
    report = cache.report()
    assert (report["hits"], report["misses"]) == (1, 1)
    assert cache.hit_rate == 0.5


def test_eviction_is_lru_by_bytes():
    cache = BlockCache(128)
    a, b, c = ptr(1, 0), ptr(1, 64), ptr(2, 0)
    cache.put(a, b"a" * 64)
    cache.put(b, b"b" * 64)
    assert cache.get(a) is not None  # refresh a: b becomes LRU
    cache.put(c, b"c" * 64)  # over capacity -> evict b
    assert cache.get(b) is None
    assert cache.get(a) is not None
    assert cache.get(c) is not None
    assert cache.used_bytes <= cache.capacity_bytes


def test_put_replaces_existing_entry_without_leaking_bytes():
    cache = BlockCache(256)
    p = ptr(3)
    cache.put(p, b"x" * 64)
    cache.put(p, b"y" * 64)
    assert cache.used_bytes == 64
    assert cache.get(p) == b"y" * 64


def test_oversized_blob_is_not_cached():
    cache = BlockCache(32)
    p = ptr(4)
    cache.put(p, b"z" * 64)
    assert len(cache) == 0
    assert cache.get(p) is None


def test_invalidate_zone_drops_only_that_zone():
    cache = BlockCache(1024)
    cache.put(ptr(1, 0), b"a" * 16)
    cache.put(ptr(1, 16), b"b" * 16)
    cache.put(ptr(2, 0), b"c" * 16)
    cache.invalidate_zone(1)
    assert cache.get(ptr(1, 0)) is None
    assert cache.get(ptr(1, 16)) is None
    assert cache.get(ptr(2, 0)) == b"c" * 16
    assert cache.report()["invalidations"] == 2.0


def test_clear_empties_everything():
    cache = BlockCache(1024)
    cache.put(ptr(1), b"a" * 16)
    cache.clear()
    assert len(cache) == 0
    assert cache.used_bytes == 0


# -------------------------------------------------------------- device level
def load_compact(tb, name, pairs):
    def proc():
        yield from tb.client.create_keyspace(name, tb.ctx)
        yield from tb.client.open_keyspace(name, tb.ctx)
        yield from tb.client.bulk_put(name, pairs, tb.ctx)
        yield from tb.client.compact(name, tb.ctx)
        yield from tb.client.wait_for_device(name, tb.ctx)

    tb.run(proc())


def test_repeated_gets_hit_the_cache_and_read_less():
    pairs = make_pairs(2000)
    tb = CsdTestbed(block_cache_bytes=8 * 1024 * 1024)
    load_compact(tb, "ks", pairs)
    key, value = pairs[123]

    def one_get():
        got = yield from tb.client.get("ks", key, tb.ctx)
        assert got == value

    tb.run(one_get())
    cold_reads = tb.ssd.stats.bytes_read
    misses = tb.device.block_cache.report()["misses"]
    tb.run(one_get())
    assert tb.device.block_cache.report()["hits"] > 0
    assert tb.device.block_cache.report()["misses"] == misses
    assert tb.ssd.stats.bytes_read == cold_reads  # second GET fully cached


def test_cache_disabled_by_default():
    tb = CsdTestbed()
    assert tb.device.block_cache is None


def test_cache_never_stale_after_zone_reuse():
    # Fill, query (warming the cache), delete the keyspace (its zones are
    # released and recycled), then recreate with different values: every
    # GET must see the new bytes, never the cached old extents.
    tb = CsdTestbed(block_cache_bytes=8 * 1024 * 1024)
    old_pairs = make_pairs(2000, prefix="old")
    load_compact(tb, "ks", old_pairs)

    def get(name, key):
        result = []

        def proc():
            got = yield from tb.client.get(name, key, tb.ctx)
            result.append(got)

        tb.run(proc())
        return result[0]

    for key, value in old_pairs[::200]:
        assert get("ks", key) == value

    def drop():
        yield from tb.client.delete_keyspace("ks", tb.ctx)

    tb.run(drop())
    assert tb.device.block_cache.report()["invalidations"] > 0

    new_pairs = [(k, bytes([(v[0] + 1) % 256]) * len(v)) for k, v in old_pairs]
    load_compact(tb, "ks", new_pairs)
    for key, value in new_pairs[::100]:
        assert get("ks", key) == value
