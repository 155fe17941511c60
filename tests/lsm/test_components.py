"""Unit tests for LSM building blocks: bloom, block, memtable, iterator, cache."""

import pytest

from repro.errors import DbError
from repro.lsm import BlockCache, BloomFilter, LookupState, Memtable
from repro.lsm.block import BlockBuilder, BlockReader
from repro.lsm.iterator import count_merge_comparisons, merge_entries


# ---------------------------------------------------------------- bloom
def test_bloom_no_false_negatives():
    bf = BloomFilter(n_keys=1000, bits_per_key=10)
    keys = [f"key-{i}".encode() for i in range(1000)]
    for k in keys:
        bf.add(k)
    assert all(bf.may_contain(k) for k in keys)


def test_bloom_false_positive_rate_reasonable():
    bf = BloomFilter(n_keys=2000, bits_per_key=10)
    for i in range(2000):
        bf.add(f"present-{i}".encode())
    false_positives = sum(
        bf.may_contain(f"absent-{i}".encode()) for i in range(2000)
    )
    # theoretical ~1%; allow generous slack
    assert false_positives < 2000 * 0.05


def test_bloom_serialization_roundtrip():
    bf = BloomFilter(n_keys=100, bits_per_key=10)
    for i in range(100):
        bf.add(f"k{i}".encode())
    clone = BloomFilter.from_bytes(bf.to_bytes())
    assert clone.n_bits == bf.n_bits
    assert clone.k == bf.k
    assert all(clone.may_contain(f"k{i}".encode()) for i in range(100))


def test_bloom_corrupt_payload_rejected():
    with pytest.raises(DbError):
        BloomFilter.from_bytes(b"short")
    bf = BloomFilter(n_keys=10)
    blob = bf.to_bytes()
    with pytest.raises(DbError):
        BloomFilter.from_bytes(blob[:-1])


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 1000])
@pytest.mark.parametrize("bits_per_key", [10, 7, 1])
def test_bloom_add_many_equals_repeated_add(n, bits_per_key):
    # the array path must set exactly the bits the scalar loop sets,
    # including in a last byte the filter only partly owns
    keys = [f"key-{i}".encode() + bytes(i % 3) for i in range(n)]
    one_by_one = BloomFilter(n, bits_per_key)
    for key in keys:
        one_by_one.add(key)
    at_once = BloomFilter(n, bits_per_key)
    at_once.add_many(keys)
    if n in (7, 9) and bits_per_key == 10:
        assert at_once.n_bits % 8 != 0
    assert at_once.to_bytes() == one_by_one.to_bytes()
    at_once.add_many(keys[: n // 2])  # a second batch ORs into the first
    for key in keys[: n // 2]:
        one_by_one.add(key)
    assert at_once.to_bytes() == one_by_one.to_bytes()


def test_bloom_validation():
    with pytest.raises(DbError):
        BloomFilter(n_keys=-1)
    with pytest.raises(DbError):
        BloomFilter(n_keys=10, bits_per_key=0)


# ---------------------------------------------------------------- block
def test_block_roundtrip():
    b = BlockBuilder(target_bytes=4096)
    entries = [(f"k{i:03d}".encode(), f"v{i}".encode()) for i in range(50)]
    for k, v in entries:
        b.add(k, v)
    reader = BlockReader(b.finish())
    assert reader.n_entries == 50
    assert reader.entries() == entries
    for k, v in entries:
        assert reader.get(k) == v
    assert reader.get(b"nope") is None


def test_block_requires_sorted_input():
    b = BlockBuilder(target_bytes=4096)
    b.add(b"b", b"1")
    with pytest.raises(DbError):
        b.add(b"a", b"2")


def test_block_fullness():
    b = BlockBuilder(target_bytes=100)
    assert not b.full
    b.add(b"k" * 40, b"v" * 60)
    assert b.full


def test_block_entries_from():
    b = BlockBuilder(target_bytes=4096)
    for i in range(10):
        b.add(f"k{i}".encode(), b"v")
    reader = BlockReader(b.finish())
    tail = reader.entries_from(b"k7")
    assert [k for k, _ in tail] == [b"k7", b"k8", b"k9"]
    assert reader.entries_from(b"zzz") == []
    assert len(reader.entries_from(b"")) == 10


def test_block_truncated_rejected():
    with pytest.raises(DbError):
        BlockReader(b"xx")


# ---------------------------------------------------------------- memtable
def test_memtable_put_get():
    m = Memtable()
    m.put(b"a", b"1")
    assert m.get(b"a") == (LookupState.FOUND, b"1")
    assert m.get(b"b") == (LookupState.MISSING, None)


def test_memtable_delete_is_tombstone():
    m = Memtable()
    m.put(b"a", b"1")
    m.delete(b"a")
    assert m.get(b"a") == (LookupState.DELETED, None)
    # deleting an unknown key still records a tombstone
    m.delete(b"ghost")
    assert m.get(b"ghost") == (LookupState.DELETED, None)


def test_memtable_overwrite_updates_size_consistently():
    m = Memtable()
    m.put(b"k", b"short")
    size1 = m.approximate_bytes
    m.put(b"k", b"a-much-longer-value")
    size2 = m.approximate_bytes
    assert size2 > size1
    m.put(b"k", b"s")
    assert m.approximate_bytes < size2
    assert len(m) == 1


def test_memtable_sorted_entries():
    m = Memtable()
    for k in (b"c", b"a", b"b"):
        m.put(k, k.upper())
    assert m.sorted_entries() == [(b"a", b"A"), (b"b", b"B"), (b"c", b"C")]


def test_memtable_range_entries():
    m = Memtable()
    for i in range(10):
        m.put(f"k{i}".encode(), b"v")
    got = m.range_entries(b"k3", b"k7")
    assert [k for k, _ in got] == [b"k3", b"k4", b"k5", b"k6"]


# ---------------------------------------------------------------- merge iterator
def test_merge_newest_wins():
    new = [(b"a", b"new"), (b"b", b"nb")]
    old = [(b"a", b"old"), (b"c", b"oc")]
    merged = merge_entries([new, old], drop_tombstones=False)
    assert merged == [(b"a", b"new"), (b"b", b"nb"), (b"c", b"oc")]


def test_merge_tombstone_masks_old_value():
    new = [(b"a", None)]
    old = [(b"a", b"old"), (b"b", b"vb")]
    kept = merge_entries([new, old], drop_tombstones=False)
    assert kept == [(b"a", None), (b"b", b"vb")]
    dropped = merge_entries([new, old], drop_tombstones=True)
    assert dropped == [(b"b", b"vb")]


def test_merge_three_streams():
    s0 = [(b"k1", b"s0")]
    s1 = [(b"k1", b"s1"), (b"k2", b"s1")]
    s2 = [(b"k2", b"s2"), (b"k3", b"s2")]
    merged = merge_entries([s0, s1, s2], drop_tombstones=False)
    assert merged == [(b"k1", b"s0"), (b"k2", b"s1"), (b"k3", b"s2")]


def test_merge_empty_streams():
    assert merge_entries([], drop_tombstones=True) == []
    assert merge_entries([[], []], drop_tombstones=True) == []


def test_merge_comparison_count_scales_with_log_k():
    assert count_merge_comparisons(0, 4) == 0
    assert count_merge_comparisons(100, 1) == 100
    assert count_merge_comparisons(100, 2) > 100
    assert count_merge_comparisons(100, 16) > count_merge_comparisons(100, 2)


# ---------------------------------------------------------------- block cache
class _FakeBlock:
    pass


def test_block_cache_hit_miss():
    c = BlockCache(capacity_bytes=8192)
    blk = _FakeBlock()
    assert c.get(1, 0) is None
    c.put(1, 0, blk, 4096)
    assert c.get(1, 0) is blk
    assert c.hits == 1 and c.misses == 1
    assert c.hit_rate() == pytest.approx(0.5)


def test_block_cache_lru_eviction():
    c = BlockCache(capacity_bytes=8192)
    a, b, d = _FakeBlock(), _FakeBlock(), _FakeBlock()
    c.put(1, 0, a, 4096)
    c.put(1, 4096, b, 4096)
    c.get(1, 0)  # touch a
    c.put(1, 8192, d, 4096)  # evicts b (LRU)
    assert c.get(1, 4096) is None
    assert c.get(1, 0) is a


def test_block_cache_evict_table():
    c = BlockCache(capacity_bytes=65536)
    c.put(1, 0, _FakeBlock(), 4096)
    c.put(2, 0, _FakeBlock(), 4096)
    c.evict_table(1)
    assert c.get(1, 0) is None
    assert c.get(2, 0) is not None
    assert c.size_bytes == 4096


def test_block_cache_validation():
    with pytest.raises(DbError):
        BlockCache(capacity_bytes=100)
