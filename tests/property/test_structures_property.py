"""Property-based tests for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.pagecache import PageCache
from repro.lsm.iterator import merge_entries
from repro.lsm.memtable import LookupState, Memtable
from repro.lsm.sstable import TOMBSTONE, encode_value
from repro.ssd.ftl import Ftl

from tests.lsm.reference import heap_merge_entries

keys = st.binary(min_size=1, max_size=16)
values = st.binary(min_size=0, max_size=32)


# ------------------------------------------------------------------ memtable vs dict
@given(
    st.lists(
        st.tuples(keys, st.one_of(st.none(), values)),
        max_size=200,
    )
)
def test_memtable_matches_dict_model(ops):
    """A memtable behaves exactly like a dict with tombstones."""
    memtable = Memtable()
    model: dict[bytes, bytes | None] = {}
    for key, value in ops:
        if value is None:
            memtable.delete(key)
        else:
            memtable.put(key, value)
        model[key] = value
    assert len(memtable) == len(model)
    for key, value in model.items():
        state, got = memtable.get(key)
        if value is None:
            assert state is LookupState.DELETED
        else:
            assert state is LookupState.FOUND and got == value
    assert memtable.sorted_entries() == sorted(model.items())


@given(st.lists(st.tuples(keys, values), max_size=100))
def test_memtable_size_accounting_non_negative(ops):
    memtable = Memtable()
    for key, value in ops:
        memtable.put(key, value)
    assert memtable.approximate_bytes >= 0
    if ops:
        assert memtable.approximate_bytes > 0


# ------------------------------------------------------------------ merge iterator
@given(
    st.lists(
        st.dictionaries(keys, st.one_of(st.none(), values), max_size=30),
        min_size=1,
        max_size=5,
    ),
    st.booleans(),
)
def test_merge_matches_layered_dict_semantics(layer_dicts, drop_tombstones):
    """Merging newest->oldest sorted streams == stacking dict layers."""
    streams = [sorted(d.items()) for d in layer_dicts]
    merged = merge_entries(streams, drop_tombstones=drop_tombstones)

    model: dict[bytes, bytes | None] = {}
    for layer in reversed(layer_dicts):  # oldest first, newer overrides
        model.update(layer)
    expected = sorted(model.items())
    if drop_tombstones:
        expected = [(k, v) for k, v in expected if v is not None]
    assert merged == expected


@given(st.lists(st.dictionaries(keys, values, max_size=20), min_size=1, max_size=4))
def test_merge_output_sorted_and_unique(layer_dicts):
    streams = [sorted(d.items()) for d in layer_dicts]
    merged = merge_entries(streams, drop_tombstones=False)
    out_keys = [k for k, _ in merged]
    assert out_keys == sorted(set(out_keys))


@given(
    st.lists(
        st.dictionaries(keys, st.one_of(st.none(), values), max_size=30),
        max_size=6,
    ),
    st.booleans(),
)
def test_merge_equals_heap_merge_on_decoded_and_stored_values(layer_dicts, drop_tombstones):
    """The dict merge picks what a k-way heap merge picks: the newest
    stream's entry per key, its tombstone kept or dropped — whether
    deletions are ``None`` (scans) or the stored ``b"\\x00"`` (compaction)."""
    decoded = [sorted(d.items()) for d in layer_dicts]
    assert merge_entries(decoded, drop_tombstones) == heap_merge_entries(
        decoded, drop_tombstones
    )
    stored = [[(k, encode_value(v)) for k, v in stream] for stream in decoded]
    merged = merge_entries(stored, drop_tombstones, tombstone=TOMBSTONE)
    assert merged == heap_merge_entries(stored, drop_tombstones, tombstone=TOMBSTONE)
    assert merged == [
        (k, encode_value(v))
        for k, v in merge_entries(decoded, drop_tombstones)
    ]


# ------------------------------------------------------------------ FTL invariants
@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["write", "trim"]), st.integers(0, 255)),
        max_size=120,
    )
)
def test_ftl_mapping_invariants(ops):
    """l2p and p2l stay mutually consistent under any write/trim sequence."""
    ftl = Ftl(
        n_logical_pages=256,
        n_blocks=16,
        pages_per_block=32,
        n_channels=2,
        gc_reserve_blocks=1,
    )
    live: set[int] = set()
    for op, lpn in ops:
        if op == "write":
            ftl.write_pages(np.array([lpn]))
            live.add(lpn)
        else:
            ftl.trim_pages(np.array([lpn]))
            live.discard(lpn)
    assert ftl.mapped_pages() == len(live)
    for lpn in range(256):
        ppn = int(ftl.l2p[lpn])
        if lpn in live:
            assert ppn != -1
            assert ftl.p2l[ppn] == lpn
        else:
            assert ppn == -1
    # per-block valid counts equal the number of live pages
    assert int(ftl.valid_count.sum()) == len(live)
    # every physical page maps back consistently
    for ppn in range(16 * 32):
        lpn = int(ftl.p2l[ppn])
        if lpn != -1:
            assert ftl.l2p[lpn] == ppn


# ------------------------------------------------------------------ page cache
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 15), st.booleans()),
        max_size=100,
    )
)
def test_pagecache_never_exceeds_capacity_and_keeps_newest(ops):
    cache = PageCache(capacity_bytes=8 * 4096, page_size=4096)
    payload = {}
    for i, (fid, idx, dirty) in enumerate(ops):
        page = bytes([i % 256]) * 4096
        cache.put(fid, idx, page, dirty=dirty)
        payload[(fid, idx)] = page
        assert cache.size_bytes <= 8 * 4096
    # whatever is still cached must be the newest version written
    for (fid, idx), page in payload.items():
        if cache.contains(fid, idx):
            assert cache.get(fid, idx) == page
    # the most recently inserted page is always resident
    if ops:
        fid, idx, _ = ops[-1]
        assert cache.contains(fid, idx)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 7)), max_size=60))
def test_pagecache_dirty_set_subset_of_resident(ops):
    cache = PageCache(capacity_bytes=4 * 4096, page_size=4096)
    for fid, idx in ops:
        cache.put(fid, idx, b"\x00" * 4096, dirty=True)
        # every dirty page must still be resident (evicted ones are handed back)
        for f in range(3):
            for page_idx, _data in cache.dirty_pages_of(f):
                assert cache.contains(f, page_idx)
