"""Unit tests for SSTable build/read over the simulated filesystem."""

import pytest

from repro.errors import DbError
from repro.lsm import LookupState, TableBuilder, TableReader
from repro.lsm.sstable import decode_value, encode_value

from tests.lsm.conftest import LsmTestbed, small_options


def build_table(tb, entries, table_id=1, path="t1.sst"):
    """Build a table from ``(key, value-or-None)`` entries."""
    builder = TableBuilder(
        tb.fs, path, table_id, tb.db.options, expected_keys=len(entries)
    )
    stored = [(k, encode_value(v)) for k, v in entries]
    return tb.run(builder.build(stored, tb.fg))


def test_encode_decode_value():
    assert decode_value(encode_value(b"v")) == (False, b"v")
    assert decode_value(encode_value(None)) == (True, None)
    assert decode_value(encode_value(b"")) == (False, b"")


def test_table_roundtrip_point_lookups():
    tb = LsmTestbed(options=small_options())
    entries = [(f"key-{i:05d}".encode(), f"val-{i}".encode()) for i in range(500)]
    meta = build_table(tb, entries)
    assert meta.n_entries == 500
    assert meta.smallest == b"key-00000"
    assert meta.largest == b"key-00499"
    reader = TableReader(tb.fs, meta, tb.db.options)

    def lookups():
        hits = []
        for k, v in entries[::50]:
            state, value = yield from reader.get(k, tb.fg)
            hits.append((state, value == v))
        missing_state, _ = yield from reader.get(b"zzz", tb.fg)
        return hits, missing_state

    hits, missing_state = tb.run(lookups())
    assert all(state == LookupState.FOUND and ok for state, ok in hits)
    assert missing_state == LookupState.MISSING


def test_table_tombstones_roundtrip():
    tb = LsmTestbed(options=small_options())
    entries = [(b"a", b"1"), (b"b", None), (b"c", b"3")]
    meta = build_table(tb, entries)
    reader = TableReader(tb.fs, meta, tb.db.options)

    def proc():
        state, _ = yield from reader.get(b"b", tb.fg)
        return state

    assert tb.run(proc()) == LookupState.DELETED


def test_table_scan():
    tb = LsmTestbed(options=small_options())
    entries = [(f"k{i:03d}".encode(), str(i).encode()) for i in range(100)]
    meta = build_table(tb, entries)
    reader = TableReader(tb.fs, meta, tb.db.options)

    def proc():
        got = yield from reader.scan(b"k010", b"k015", tb.fg)
        return got

    got = tb.run(proc())
    assert [k for k, _ in got] == [b"k010", b"k011", b"k012", b"k013", b"k014"]


def test_table_all_entries():
    tb = LsmTestbed(options=small_options())
    entries = [(f"k{i:03d}".encode(), b"v") for i in range(300)]
    meta = build_table(tb, entries)
    reader = TableReader(tb.fs, meta, tb.db.options)

    def proc():
        got = yield from reader.all_entries(tb.fg)
        return got

    # compaction input: values as stored, not decoded
    assert tb.run(proc()) == [(k, encode_value(v)) for k, v in entries]


def test_table_rejects_unsorted():
    tb = LsmTestbed(options=small_options())
    with pytest.raises(DbError):
        build_table(tb, [(b"b", b"1"), (b"a", b"2")], table_id=9, path="bad.sst")
    assert not tb.fs.exists("bad.sst")


def test_table_rejects_duplicate_keys():
    tb = LsmTestbed(options=small_options())
    with pytest.raises(DbError):
        build_table(tb, [(b"a", b"1"), (b"a", b"2")], table_id=9, path="dup.sst")
    assert not tb.fs.exists("dup.sst")


def test_empty_table_rejected():
    tb = LsmTestbed(options=small_options())
    with pytest.raises(DbError):
        build_table(tb, [], table_id=9, path="e.sst")


def test_meta_overlap_predicates():
    tb = LsmTestbed(options=small_options())
    meta = build_table(tb, [(b"d", b"1"), (b"m", b"2")])
    assert meta.overlaps(b"a", b"e")
    assert meta.overlaps(b"m", b"z")
    assert not meta.overlaps(b"n", b"z")
    assert not meta.overlaps(b"a", b"d")  # hi is exclusive
    assert meta.contains_key(b"d")
    assert meta.contains_key(b"m")
    assert not meta.contains_key(b"z")


def test_bloom_avoids_block_reads_for_missing_keys():
    tb = LsmTestbed(options=small_options())
    entries = [(f"k{i:04d}".encode(), b"v" * 64) for i in range(1000)]
    meta = build_table(tb, entries)
    reader = TableReader(tb.fs, meta, tb.db.options)

    def warm():
        # load index/bloom once
        state, _ = yield from reader.get(b"k0000", tb.fg)
        return state

    tb.run(warm())
    before = tb.ssd.stats.bytes_read

    def misses():
        n_io_free = 0
        for i in range(200):
            key = f"absent-{i}".encode()
            pre = tb.ssd.stats.bytes_read
            state, _ = yield from reader.get(key, tb.fg)
            assert state == LookupState.MISSING
            if tb.ssd.stats.bytes_read == pre:
                n_io_free += 1
        return n_io_free

    n_io_free = tb.run(misses())
    # The bloom filter must have short-circuited the vast majority.
    assert n_io_free >= 190
