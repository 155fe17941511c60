"""Bloom filters from key columns: the table-driven CRC and the hash path.

A fixed-width ``S`` key column is hashed in one numpy pass and each block's
filter is set from its slice of the hashes; both must give exactly what
``zlib.crc32`` and the per-key ``add_many`` give.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.klog import column_key_bytes
from repro.lsm.bloom import _H2_SEED, _VECTOR_MIN_KEYS, BloomFilter, crc32_column, key_hashes


@pytest.mark.parametrize("width", range(1, 65))
@pytest.mark.parametrize("seed", [0, _H2_SEED])
def test_crc32_column_equals_zlib(width, seed):
    rng = np.random.default_rng(width)
    raw = bytearray(rng.integers(0, 256, size=40 * width, dtype=np.uint8).tobytes())
    raw[width * 3 : width * 5] = bytes(2 * width)  # all-NUL keys
    raw[width * 6 - 1] = 0  # a trailing NUL, part of the key
    column = np.frombuffer(bytes(raw), dtype=f"S{width}")
    expected = [zlib.crc32(key, seed) for key in column_key_bytes(column)]
    assert crc32_column(column, seed).tolist() == expected


def test_crc32_column_reads_strided_fields():
    rec = np.zeros(5, dtype=[("pad", "u1"), ("key", "S3")])
    rec["key"] = [b"abc", b"a", b"", b"\x00b", b"zz\x00"]
    keys = column_key_bytes(rec["key"])
    assert crc32_column(rec["key"]).tolist() == [zlib.crc32(k) for k in keys]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 20).flatmap(
        lambda w: st.lists(st.binary(min_size=w, max_size=w), min_size=1, max_size=300)
    ),
    st.lists(st.integers(0, 40), max_size=20),
    st.sampled_from([1, 7, 10, 16]),
)
def test_add_hashes_blocks_equal_add_many(keys, cuts, bits_per_key):
    """Per block, over a column hashed once: the filter ``add_many`` builds
    from that block's keys, including blocks under the vector threshold
    (``add``'s scalar loop) and blocks small enough for the 64-bit floor."""
    column = np.frombuffer(b"".join(keys), dtype=f"S{len(keys[0])}")
    bounds = sorted({0, len(keys), *(min(c, len(keys)) for c in cuts)})
    h1, h2 = key_hashes(column)
    assert [h1.tolist(), h2.tolist()] == [a.tolist() for a in key_hashes(keys)]
    for lo, hi in zip(bounds, bounds[1:]):
        per_key = BloomFilter(hi - lo, bits_per_key)
        per_key.add_many(keys[lo:hi])
        hashed = BloomFilter(hi - lo, bits_per_key)
        hashed.add_hashes(h1[lo:hi], h2[lo:hi])
        assert hashed.to_bytes() == per_key.to_bytes()


@pytest.mark.parametrize("n", [1, _VECTOR_MIN_KEYS - 1, _VECTOR_MIN_KEYS, 6])
def test_small_blocks_and_the_minimum_filter(n):
    keys = [bytes([i]) * 8 for i in range(n)]
    one_by_one = BloomFilter(n, 10)
    for key in keys:
        one_by_one.add(key)
    assert one_by_one.n_bits == 64  # n * 10 bits is under the floor
    hashed = BloomFilter(n, 10)
    hashed.add_hashes(*key_hashes(np.frombuffer(b"".join(keys), dtype="S8")))
    assert hashed.to_bytes() == one_by_one.to_bytes()
    assert all(hashed.may_contain(key) for key in keys)
