"""Unit tests for KV-CSD wire, KLOG, PIDX and SIDX formats."""

import struct
from bisect import bisect_left, bisect_right
from itertools import product

import numpy as np
import pytest

from repro.core.klog import (
    KlogColumns,
    column_bound,
    key_column,
    klog_record_size,
    pack_klog_columns,
    pack_klog_records,
    unpack_klog_records,
    unpack_klog_records_prefix,
)
from repro.core.membuf import MemBuffer
from repro.core.pidx import (
    PidxColumns,
    PidxSketch,
    build_pidx_blocks,
    pack_value_pointer,
    read_block_entries,
    unpack_value_pointer,
)
from repro.core.sidx import (
    SidxColumns,
    SidxConfig,
    SidxSketch,
    build_sidx_blocks,
    decode_skey,
    encode_skey,
    encode_skeys_array,
    pack_sidx_pairs,
    read_sidx_block,
    unpack_sidx_pairs,
)
from repro.core.vlog import (
    FLUSH_GROUP_BYTES,
    gather_values,
    pointer_columns,
    stripe_groups,
)
from repro.core.wire import (
    BULK_MESSAGE_BYTES,
    pack_pairs,
    pair_wire_size,
    split_into_messages,
    unpack_pairs,
)
from repro.errors import DbError, KlogTruncatedError, SecondaryIndexError
from repro.lsm.block import BlockBuilder, BlockReader


# ------------------------------------------------------------------ wire
def test_wire_roundtrip():
    pairs = [(f"k{i}".encode(), bytes([i]) * i) for i in range(1, 50)]
    assert unpack_pairs(pack_pairs(pairs)) == pairs


def test_wire_empty_message():
    assert unpack_pairs(pack_pairs([])) == []


def test_wire_message_capacity_matches_paper():
    # 16B keys + 32B values: the paper fits ~2570 pairs into 128KB.
    per_pair = pair_wire_size(b"k" * 16, b"v" * 32)
    capacity = BULK_MESSAGE_BYTES // per_pair
    assert 2200 <= capacity <= 2600


def test_wire_split_respects_budget():
    pairs = [(f"key-{i:06d}".encode(), b"v" * 32) for i in range(10_000)]
    messages = split_into_messages(pairs, 128 * 1024)
    assert sum(len(m) for m in messages) == len(pairs)
    for message in messages:
        wire = 4 + sum(pair_wire_size(k, v) for k, v in message)
        assert wire <= 128 * 1024
    # order preserved
    flat = [p for m in messages for p in m]
    assert flat == pairs


def test_wire_oversized_single_pair_gets_own_message():
    pairs = [(b"k", b"x" * (256 * 1024)), (b"k2", b"y")]
    messages = split_into_messages(pairs, 128 * 1024)
    assert len(messages) == 2
    assert messages[0][0][0] == b"k"


def test_wire_truncated_rejected():
    with pytest.raises(DbError):
        unpack_pairs(b"\x01")


# ------------------------------------------------------------------ klog
def test_klog_roundtrip():
    records = [
        (b"alpha", 1, (3, 4096, 32)),
        (b"beta", 2, None),  # tombstone
        (b"x" * 100, 3, (0, 0, 1)),
    ]
    blob = pack_klog_records(records)
    assert len(blob) == sum(klog_record_size(k) for k, _, _ in records)
    assert unpack_klog_records(blob) == records


def test_klog_truncated_rejected():
    blob = pack_klog_records([(b"k", 1, (0, 0, 4))])
    with pytest.raises(KlogTruncatedError):
        unpack_klog_records(blob[:-3])
    assert issubclass(KlogTruncatedError, DbError)


def test_klog_prefix_parse_tolerates_tail_truncation_only():
    """The mount-rescan parser returns the longest intact prefix of a torn
    extent; the tolerance is scoped to tail truncation
    (:class:`KlogTruncatedError`), never other parse failures."""
    records = [(f"k{i:03d}".encode(), i, (1, i * 64, 64)) for i in range(10)]
    blob = pack_klog_records(records)
    assert unpack_klog_records_prefix(blob) == (records, 0)

    torn = blob[:-5]  # power cut mid-way through the final record
    parsed, suffix = unpack_klog_records_prefix(torn)
    assert parsed == records[:-1]
    assert suffix == len(torn) - sum(
        klog_record_size(k) for k, _, _ in records[:-1]
    )


def test_klog_tombstone_sentinel_collision_rejected():
    with pytest.raises(DbError):
        pack_klog_records([(b"k", 1, (0, 0, 0xFFFFFFFF))])


def _scalar_pack(records):
    """The record format, spelled out: what every packer must produce."""
    out = b""
    for key, seq, pointer in records:
        zone, off, vlen = pointer or (0, 0, 0xFFFFFFFF)
        out += struct.pack("<H", len(key)) + key + struct.pack("<QIQI", seq, zone, off, vlen)
    return out


def _klog_records(n, widths=(16,), nul_tails=False):
    rng = np.random.default_rng(n)
    records = []
    for i in range(n):
        key = bytes(rng.integers(1, 256, size=widths[i % len(widths)], dtype=np.uint8))
        if nul_tails and i % 3 == 0:
            key = key[:-2] + b"\x00" * min(2, len(key))
        records.append((key, 1000 + i, None if i % 7 == 3 else (i % 5, 64 * i, 1 + i % 90)))
    return records


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 400])
@pytest.mark.parametrize("widths", [(16,), (1,), (3, 16, 32)], ids=["w16", "w1", "mixed"])
def test_klog_columns_are_the_records_in_another_shape(n, widths):
    records = _klog_records(n, widths, nul_tails=True)
    blob = _scalar_pack(records)
    assert pack_klog_records(records) == blob
    batch = KlogColumns.from_records(records)
    assert len(batch) == n
    assert batch.pack() == blob
    # uniform keys ride as one array, anything else as a list of bytes
    assert isinstance(batch.keys, np.ndarray) == (n >= 8 and len(widths) == 1)
    parsed = KlogColumns.from_blobs([blob])
    assert isinstance(parsed.keys, np.ndarray) == (n >= 8 and len(widths) == 1)
    assert parsed.pack() == blob
    assert unpack_klog_records(blob) == records
    # slices, masks and permutations select records
    assert unpack_klog_records(batch[2:5].pack()) == records[2:5]
    mask = np.arange(n) % 2 == 0
    assert unpack_klog_records(batch[mask].pack()) == records[::2]
    order = np.arange(n)[::-1]
    assert unpack_klog_records(batch[order].pack()) == records[::-1]


def test_klog_columns_from_several_extents_and_torn_tail():
    records = _klog_records(60)
    extents = [pack_klog_records(records[a:b]) for a, b in ((0, 25), (25, 27), (27, 60))]
    batch = KlogColumns.from_blobs([extents[0], b"", *extents[1:]])
    assert isinstance(batch.keys, np.ndarray)  # even with a 2-record extent
    assert unpack_klog_records(batch.pack()) == records
    torn = extents[2][:-5]
    with pytest.raises(KlogTruncatedError):
        KlogColumns.from_blobs([extents[0], torn])
    batch = KlogColumns.from_blobs([extents[0], torn], torn_ok=True)
    assert unpack_klog_records(batch.pack()) == records[:25] + records[27:59]
    # extents of different key widths cannot share a key array
    other = pack_klog_records(_klog_records(20, widths=(9,)))
    batch = KlogColumns.from_blobs([extents[0], other])
    assert isinstance(batch.keys, list)
    assert batch.pack() == extents[0] + other


def test_klog_columns_concat_mixes_key_representations():
    uniform = KlogColumns.from_records(_klog_records(20))
    mixed = KlogColumns.from_records(_klog_records(20, widths=(4, 16)))
    assert KlogColumns.concat([uniform, uniform]).pack() == uniform.pack() * 2
    assert KlogColumns.concat([uniform, mixed]).pack() == uniform.pack() + mixed.pack()


@pytest.mark.parametrize("widths", [(16,), (2, 16)], ids=["w16", "mixed"])
def test_klog_columns_compaction_order_dedup_and_rank(widths):
    records = _klog_records(300, widths, nul_tails=True)
    records += [(k, s + 5000, None if s % 2 else (9, s, 7)) for k, s, _p in records[::4]]
    batch = KlogColumns.from_records(records)
    ordered = sorted(records, key=lambda r: (r[0], -r[1]))
    got = batch[batch.sort_order()]
    assert unpack_klog_records(got.pack()) == ordered
    newest = {}
    for key, _seq, pointer in ordered:
        newest.setdefault(key, pointer)
    live = [(k, p) for k, p in newest.items() if p is not None]
    kept = got[got.newest_live()]
    assert [(k, p) for k, _s, p in unpack_klog_records(kept.pack())] == live
    pivots = got[np.array([40, 41, 200])]
    marks = [(k, -s) for k, s, _p in unpack_klog_records(pivots.pack())]
    expected = [sum(m <= (k, -s) for m in marks) for k, s, _p in records]
    assert batch.rank(pivots).tolist() == expected


def test_pack_klog_columns_takes_lists_and_arrays():
    records = _klog_records(50)
    keys = [k for k, _s, _p in records]
    seqs = [s for _k, s, _p in records]
    ptrs = [p or (0, 0, 0xFFFFFFFF) for _k, _s, p in records]
    zone, off, vlen = (list(col) for col in zip(*ptrs))
    blob = pack_klog_records(records)
    assert pack_klog_columns(keys, seqs, zone, off, vlen) == blob
    assert pack_klog_columns(
        np.frombuffer(b"".join(keys), dtype="S16"),
        np.array(seqs), np.array(zone), np.array(off), np.array(vlen),
    ) == blob
    with pytest.raises(DbError):
        pack_klog_columns([b"k" * 70000], [1], [0], [0], [4])


# ------------------------------------------------------------------ vlog
def _greedy_groups(values):
    """The stripe-group rule, one value at a time."""
    groups, placements, current, used = [], [], [], 0
    for value in values:
        if current and used + len(value) > FLUSH_GROUP_BYTES:
            groups.append(b"".join(current))
            current, used = [], 0
        placements.append((len(groups), used))
        current.append(value)
        used += len(value)
    if current:
        groups.append(b"".join(current))
    return groups, placements


@pytest.mark.parametrize(
    "lengths",
    [
        [],
        [0, 0, 0],
        [64] * 2000,
        [FLUSH_GROUP_BYTES] * 3,
        [FLUSH_GROUP_BYTES + 1, 5, FLUSH_GROUP_BYTES + 7],
        [1 + (37 * i) % 5000 for i in range(400)],
        [0 if i % 9 == 0 else 700 for i in range(300)],
    ],
    ids=["none", "empty-values", "uniform", "stripe-sized", "oversized", "mixed", "with-empties"],
)
def test_stripe_groups_match_greedy_packing(lengths):
    values = [bytes([i % 251]) * n for i, n in enumerate(lengths)]
    groups, index, offset = stripe_groups(b"".join(values), np.array(lengths, dtype=np.int64))
    expected_groups, placements = _greedy_groups(values)
    assert groups == expected_groups
    assert list(zip(index.tolist(), offset.tolist())) == placements


@pytest.mark.parametrize("n", [0, 5, 255, 256, 3000])
@pytest.mark.parametrize("uniform", [True, False])
def test_gather_values_equals_per_value_slices(n, uniform):
    rng = np.random.default_rng(n)
    zone_blobs = {
        z: bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
        for z, size in ((11, 50_000), (4, 0), (7, 20_000))
    }
    zone = rng.choice([11, 7], size=n).astype(np.uint32)
    vlen = np.full(n, 48, dtype=np.uint32)
    if not uniform:
        vlen = rng.integers(0, 97, size=n).astype(np.uint32)
    off = rng.integers(0, 20_000 - 96, size=n).astype(np.uint64)
    expected = b"".join(
        zone_blobs[z][o : o + v] for z, o, v in zip(zone.tolist(), off.tolist(), vlen.tolist())
    )
    assert gather_values(zone_blobs, zone, off, vlen) == expected


def test_gather_values_rejects_pointer_past_its_zone():
    zone_blobs = {2: bytes(1000), 3: bytes(1000)}
    zone = np.full(300, 2, dtype=np.uint32)
    off = np.arange(300, dtype=np.uint64)
    off[17] = 990  # would read on into zone 3's bytes
    with pytest.raises(DbError):
        gather_values(zone_blobs, zone, off, np.full(300, 16, dtype=np.uint32))
    zone[17], off[17] = 9, 0  # a zone that was never read
    with pytest.raises(DbError):
        gather_values(zone_blobs, zone, off, np.full(300, 16, dtype=np.uint32))


def test_pointer_columns():
    zone, start = pointer_columns([(3, 4096, 10), (5, 0, 20)])
    assert zone.tolist() == [3, 5] and start.tolist() == [4096, 0]
    zone, start = pointer_columns([])
    assert len(zone) == 0 and len(start) == 0


# ------------------------------------------------------------------ membuf
def test_membuf_accumulates_and_flush_threshold():
    mb = MemBuffer(capacity=1024)
    assert not mb.should_flush
    for i in range(20):
        mb.extend([f"key-{i}".encode()], [b"v" * 50], first_seq=i + 1)
    assert mb.should_flush
    keys, values, seqs = mb.drain()
    assert len(keys) == len(values) == 20
    assert seqs == list(range(1, 21))
    assert mb.bytes_buffered == 0
    assert not mb.should_flush


def test_membuf_get_newest_wins():
    mb = MemBuffer(capacity=4096)
    mb.extend((b"k", b"k"), (b"old", b"new"), first_seq=1)
    assert mb.get(b"k") == b"new"
    assert mb.get(b"nope") is None


def test_membuf_too_small_rejected():
    with pytest.raises(DbError):
        MemBuffer(capacity=10)


# ------------------------------------------------------------------ pidx
def test_value_pointer_roundtrip():
    assert unpack_value_pointer(pack_value_pointer((7, 12345, 64))) == (7, 12345, 64)


def test_pidx_blocks_and_read():
    entries = [
        (f"key-{i:05d}".encode(), (i % 4, i * 100, 32)) for i in range(2000)
    ]
    blocks = build_pidx_blocks(entries, block_bytes=4096)
    assert len(blocks) > 1
    recovered = []
    for _pivot, blob in blocks:
        recovered.extend(read_block_entries(blob))
    assert recovered == entries
    # pivots are each block's first key
    assert blocks[0][0] == b"key-00000"


def test_pidx_sketch_point_lookup():
    sketch = PidxSketch()
    sketch.add_block(b"a", (0, 0, 4096))
    sketch.add_block(b"m", (1, 0, 4096))
    sketch.add_block(b"t", (2, 0, 4096))
    assert sketch.find_block(b"a") == 0
    assert sketch.find_block(b"lzz") == 0
    assert sketch.find_block(b"m") == 1
    assert sketch.find_block(b"zz") == 2
    assert sketch.find_block(b"0") is None  # before first pivot


def test_pidx_sketch_range():
    sketch = PidxSketch()
    for pivot in (b"a", b"h", b"p", b"x"):
        sketch.add_block(pivot, (0, 0, 4096))
    assert list(sketch.blocks_for_range(b"b", b"q")) == [0, 1, 2]
    assert list(sketch.blocks_for_range(b"h", b"i")) == [1]
    assert list(sketch.blocks_for_range(b"y", b"z")) == [3]
    assert list(sketch.blocks_for_range(b"b", b"b")) == []
    # hi exclusive: a block whose pivot equals hi is excluded
    assert list(sketch.blocks_for_range(b"b", b"p")) == [0, 1]


def test_pidx_sketch_rejects_unsorted_pivots():
    sketch = PidxSketch()
    sketch.add_block(b"m", (0, 0, 1))
    with pytest.raises(DbError):
        sketch.add_block(b"a", (1, 0, 1))


# ------------------------------------------------------------------ sidx encodings
@pytest.mark.parametrize("dtype,fmt,samples", [
    ("u32", "<I", [0, 1, 77, 2**31, 2**32 - 1]),
    ("u64", "<Q", [0, 1, 2**63, 2**64 - 1]),
    ("i32", "<i", [-(2**31), -1, 0, 1, 2**31 - 1]),
    ("i64", "<q", [-(2**63), -12345, 0, 99, 2**63 - 1]),
    ("f32", "<f", [-1e30, -1.5, -0.0, 0.0, 1e-20, 3.14, 1e30]),
    ("f64", "<d", [-1e300, -2.5, 0.0, 1e-200, 42.0, 1e308]),
])
def test_encode_skey_order_preserving(dtype, fmt, samples):
    raws = [struct.pack(fmt, v) for v in sorted(samples, key=float)]
    encoded = [encode_skey(r, dtype) for r in raws]
    assert encoded == sorted(encoded), f"{dtype} encoding broke ordering"
    # decode inverts encode
    for raw in raws:
        assert decode_skey(encode_skey(raw, dtype), dtype) == raw


def test_encode_skey_bytes_passthrough():
    assert encode_skey(b"abc", "bytes") == b"abc"
    assert decode_skey(b"abc", "bytes") == b"abc"


def test_encode_skeys_array_matches_scalar():
    rng = np.random.default_rng(0)
    for dtype, np_dtype in [
        ("u32", "<u4"), ("u64", "<u8"), ("i32", "<i4"), ("i64", "<i8"),
        ("f64", "<f8"), ("f32", "<f4"),
    ]:
        if dtype.startswith("f"):
            info = np.finfo(np_dtype)
            edges = np.array(
                [0.0, -0.0, np.inf, -np.inf, info.max, info.min, info.tiny,
                 -info.tiny, info.smallest_subnormal, -info.smallest_subnormal],
                dtype=np_dtype,
            )
            # NaNs as bit patterns (a float cast may quieten or canonicalise
            # them): quiet and signalling, both signs, payload bits set
            nans = {
                "f32": [0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF800001,
                        0x7FFFFFFF, 0xFFC12345],
                "f64": [0x7FF8000000000000, 0xFFF8000000000000,
                        0x7FF0000000000001, 0xFFF0000000000001,
                        0x7FFFFFFFFFFFFFFF, 0xFFF8000000012345],
            }[dtype]
            values = np.concatenate([
                rng.standard_normal(100).astype(np_dtype) * 1e10,
                edges,
                np.array(nans, dtype=np_dtype.replace("f", "u")).view(np_dtype),
            ])
        else:
            info = np.iinfo(np_dtype)
            values = np.concatenate([
                rng.integers(info.min, info.max, size=100, dtype=np_dtype, endpoint=True),
                np.array([info.min, info.max, 0, 1, info.max // 2 + 1], dtype=np_dtype),
            ])
        raw = values.view(np.uint8).reshape(len(values), values.itemsize)
        vectorized = encode_skeys_array(raw, dtype)
        for i in range(len(values)):
            scalar = encode_skey(raw[i].tobytes(), dtype)
            assert vectorized[i].tobytes() == scalar, (dtype, raw[i].tobytes())
    assert encode_skeys_array(np.empty((0, 4), dtype=np.uint8), "f32").shape == (0, 4)


def test_sidx_config_validation():
    with pytest.raises(SecondaryIndexError):
        SidxConfig(name="", value_offset=0, width=4)
    with pytest.raises(SecondaryIndexError):
        SidxConfig(name="e", value_offset=-1, width=4)
    with pytest.raises(SecondaryIndexError):
        SidxConfig(name="e", value_offset=0, width=3, dtype="f32")
    with pytest.raises(SecondaryIndexError):
        SidxConfig(name="e", value_offset=0, width=4, dtype="complex")
    cfg = SidxConfig(name="energy", value_offset=24, width=8, dtype="f64")
    value = bytes(range(32))
    assert cfg.extract(value) == value[24:32]
    with pytest.raises(SecondaryIndexError):
        cfg.extract(b"short")


def test_sidx_pairs_pack_roundtrip():
    pairs = [(b"e1", b"pkey-1"), (b"e2", b"pk2"), (b"", b"x")]
    assert unpack_sidx_pairs(pack_sidx_pairs(pairs)) == pairs


def test_sidx_blocks_roundtrip():
    pairs = sorted(
        (struct.pack(">I", i % 50), f"pk-{i:04d}".encode()) for i in range(500)
    )
    blocks = build_sidx_blocks(pairs, block_bytes=1024)
    recovered = []
    for _pivot, blob in blocks:
        recovered.extend(read_sidx_block(blob, skey_width=4))
    assert recovered == pairs


def test_sidx_sketch_range():
    sketch = SidxSketch(skey_width=4)
    for i in (10, 20, 30):
        sketch.add_block(struct.pack(">I", i) + b"pk", (0, 0, 1))
    lo = struct.pack(">I", 15)
    hi = struct.pack(">I", 25)
    assert list(sketch.blocks_for_range(lo, hi)) == [0, 1]
    assert list(sketch.blocks_for_range(struct.pack(">I", 31), struct.pack(">I", 99))) == [2]
    assert list(sketch.blocks_for_range(hi, lo)) == []


def _blocks_for_range_by_walking(sketch, lo_enc, hi_enc):
    """The walk down from the last block that the bisect replaced."""
    if not sketch.pivots or lo_enc >= hi_enc:
        return range(0)
    start = max(0, bisect_right(sketch.pivots, lo_enc) - 1)
    stop = len(sketch.pivots)
    while stop > start and sketch.pivots[stop - 1][: sketch.skey_width] >= hi_enc:
        stop -= 1
    return range(start, stop)


def test_sidx_sketch_range_bisect_matches_the_linear_walk():
    """72 blocks, three in a row opening on the same secondary key (a popular
    value spans blocks), odd values absent, one pivot with a zero-length
    primary key; every (lo, hi) over bounds of the key width, one byte short
    and one byte long (``x + NUL`` is how a point query closes its range)."""
    sketch = SidxSketch(skey_width=2)
    for i in range(72):
        pkey = b"" if i == 30 else b"p%03d" % i
        sketch.add_block(struct.pack(">H", (i // 3) * 2) + pkey, (0, i, 1))
    exact = [struct.pack(">H", v) for v in range(0, 51)]
    bounds = (
        [b"", b"\x00", b"\xff", b"\xff\xff\xff"]
        + exact
        + [x + b"\x00" for x in exact]
        + [x + b"p015" for x in exact[::5]]
    )
    for lo, hi in product(bounds, bounds):
        assert sketch.blocks_for_range(lo, hi) == _blocks_for_range_by_walking(
            sketch, lo, hi
        ), (lo, hi)
    # block 30 opens on (20, b""), the least pair with that key; block 33 on
    # (22, b"p033"), so block 32 may hold pairs of key 22 below it
    assert sketch.blocks_for_range(exact[20], exact[20] + b"\x00") == range(30, 33)
    assert sketch.blocks_for_range(exact[22], exact[22] + b"\x00") == range(32, 36)
    assert SidxSketch(skey_width=2).blocks_for_range(b"", b"\xff") == range(0)


# ------------------------------------------------------ index blocks as columns
#: NUL, the byte after it, a letter and the last byte: trailing-NUL keys and
#: shared prefixes everywhere
NUL_ALPHABET = (b"\x00", b"\x01", b"a", b"\xff")


def _keys_over_alphabet(width):
    return [b"".join(letters) for letters in product(NUL_ALPHABET, repeat=width)]


def test_column_bound_orders_probes_as_bytes_do_not_as_numpy_does():
    """numpy compares ``S`` values NUL-padded: ``b"a"`` and ``b"a\\x00"`` are
    equal there and ordered in python.  Every probe up to one byte wider than
    the column must land where ``bisect_left`` on the list puts it."""
    keys = _keys_over_alphabet(2)[::2] + [b"\xff\xff"]
    column = key_column(keys, 1)
    assert isinstance(column, np.ndarray)
    for width in range(4):
        for probe in _keys_over_alphabet(width):
            assert column_bound(column, probe) == bisect_left(keys, probe), probe
            assert column_bound(keys, probe) == bisect_left(keys, probe)


def _pidx_blob(keys):
    builder = BlockBuilder(1 << 20)
    for i, key in enumerate(keys):
        builder.add(key, pack_value_pointer((i % 3, i * 64, 60 + i)))
    return builder.finish()


def _entry_reader(blob):
    """One PIDX block entry by entry, through the block format's own reader."""
    return [(k, unpack_value_pointer(v)) for k, v in BlockReader(blob).entries()]


@pytest.mark.parametrize(
    "keys,as_array",
    [
        (_keys_over_alphabet(3), True),             # one width, NULs everywhere
        ([b"k"], True),                              # a single entry
        ([b"a", b"ab", b"abc\x00", b"b"], False),    # several widths
        ([b"aaaaa", b"bbbb", b"cccccc"], False),     # widths that average to the first
        ([b"", b"a"], False),                        # the empty key
        ([], False),                                 # an empty block
    ],
)
def test_pidx_columns_decode_what_the_entry_reader_decodes(keys, as_array):
    """``[b"aaaaa", b"bbbb", b"cccccc"]`` fills its block exactly as three
    5-byte keys would: only the entry headers tell, so they must be read."""
    blob = _pidx_blob(keys)
    block = PidxColumns.from_blocks([blob])
    assert isinstance(block.keys, np.ndarray) == as_array
    assert read_block_entries(blob) == _entry_reader(blob)
    assert block.key_bytes() == keys and len(block) == len(keys)
    for row, key in enumerate(keys):
        assert block.find(key) == row
        assert block.find(key + b"\x00") == (row if key + b"\x00" in keys else -1)
        assert block.bounds(key, key + b"\x00") == (row, row + 1)
    some = block[np.arange(0, len(keys), 2)]
    assert some.key_bytes() == keys[::2]
    assert some.off.tolist() == [i * 64 for i in range(0, len(keys), 2)]


def test_pidx_columns_over_several_blocks():
    uniform = _keys_over_alphabet(3)
    blobs = [_pidx_blob(uniform[:20]), _pidx_blob(uniform[20:23]), _pidx_blob(uniform[23:])]
    block = PidxColumns.from_blocks(blobs)
    assert isinstance(block.keys, np.ndarray) and block.key_bytes() == uniform
    wanted = [uniform[40], uniform[3], uniform[40], b"zzz"]
    assert block.rows_of(key_column(wanted, 1)).tolist() == [3, 40]
    # one odd block makes the batch a list batch with the same answers
    odd = PidxColumns.from_blocks(blobs + [_pidx_blob([b"\xff\xff\xff\x00"])])
    assert isinstance(odd.keys, list) and odd.key_bytes() == uniform + [b"\xff\xff\xff\x00"]
    assert odd.rows_of(wanted).tolist() == [3, 40]
    assert odd.bounds(uniform[5], b"\xff\xff\xff\x00") == (5, len(uniform))


@pytest.mark.parametrize("pkey_widths", [(5,), (5, 4, 6), (0, 5)])
def test_sidx_columns_are_the_per_pair_functions_in_another_shape(pkey_widths):
    """Spill format, order, block cut and block decode against
    ``pack_sidx_pairs`` / ``sorted`` / ``build_sidx_blocks`` /
    ``read_sidx_block``, for one primary-key width (arrays) and several
    (lists)."""
    rng = np.random.default_rng(3)
    skeys = [NUL_ALPHABET[a] + NUL_ALPHABET[b] for a, b in rng.integers(0, 4, (300, 2))]
    pairs = [
        (skey, (b"%06d" % i)[: pkey_widths[i % len(pkey_widths)]] if i else b"0" * pkey_widths[0])
        for i, skey in enumerate(skeys)
    ]
    pairs = list(dict.fromkeys(pairs))  # a primary key appears once per index
    batch = SidxColumns.unpack(pack_sidx_pairs(pairs))
    assert isinstance(batch.pkeys, np.ndarray) == (len(pkey_widths) == 1)
    assert batch.pack() == pack_sidx_pairs(pairs)
    assert batch.packed_bytes == len(batch.pack())
    halves = SidxColumns.concat([batch[:100], batch[100:]])
    assert halves.pack() == batch.pack()
    ordered = batch[batch.sort_order()]
    assert unpack_sidx_pairs(ordered.pack()) == sorted(pairs)
    for block_bytes in (64, 200, 4096):
        blocks, bounds = ordered.blocks(block_bytes)
        assert blocks == build_sidx_blocks(sorted(pairs), block_bytes)
        assert bounds[0] == 0 and bounds[-1] == len(pairs)
        assert [b - a for a, b in zip(bounds, bounds[1:])] == [
            len(read_sidx_block(blob, 2)) for _pivot, blob in blocks
        ]
        decoded = SidxColumns.from_blocks([blob for _pivot, blob in blocks], 2)
        assert isinstance(decoded.pkeys, np.ndarray) == (len(pkey_widths) == 1)
        assert decoded.pack() == ordered.pack()


# ------------------------------------------------- pidx bulk-packing fast path
def _reference_pidx_blocks(entries, block_bytes):
    """The per-entry BlockBuilder loop the vectorized packer must match."""
    from repro.lsm.block import BlockBuilder

    blocks = []
    builder = BlockBuilder(block_bytes)
    for key, pointer in entries:
        builder.add(key, pack_value_pointer(pointer))
        if builder.full:
            blocks.append((builder.first_key, builder.finish()))
            builder = BlockBuilder(block_bytes)
    if not builder.empty:
        blocks.append((builder.first_key, builder.finish()))
    return blocks


@pytest.mark.parametrize(
    "n,klen,block_bytes",
    [
        (300, 16, 4096),   # vectorized path, partial tail block
        (412, 9, 4096),    # odd key width
        (300, 16, 64),     # minimum block size -> one entry per block
        (320, 16, 40 * 8), # block boundary exactly at a full block
        (8, 16, 4096),     # exactly the vectorization threshold
        (7, 16, 4096),     # one below the threshold (builder loop)
    ],
)
def test_pidx_blocks_vectorized_matches_builder(n, klen, block_bytes):
    rng = np.random.default_rng(7)
    raw = sorted({bytes(rng.integers(0, 256, size=klen, dtype=np.uint8)) for _ in range(n)})
    entries = [(key, (i % 8, i * 128, 64 + (i % 3))) for i, key in enumerate(raw)]
    assert build_pidx_blocks(entries, block_bytes) == _reference_pidx_blocks(
        entries, block_bytes
    )


def test_pidx_blocks_vectorized_handles_nul_bytes_and_duplicates():
    # Trailing/embedded NULs exercise numpy's "S" comparison semantics;
    # adjacent duplicate keys are legal for BlockBuilder and must stay legal.
    base = [bytes([i]) + b"\x00" * 6 + bytes([255 - i]) for i in range(200)]
    keys = sorted(base * 2)
    entries = [(key, (0, i * 64, 64)) for i, key in enumerate(keys)]
    assert build_pidx_blocks(entries, 1024) == _reference_pidx_blocks(entries, 1024)


def test_pidx_blocks_variable_width_keys_fall_back():
    entries = sorted(
        ((f"k-{i:04d}".encode() * (1 + i % 3), (0, i * 64, 64)) for i in range(400)),
        key=lambda e: e[0],
    )
    assert build_pidx_blocks(entries, 2048) == _reference_pidx_blocks(entries, 2048)


def test_pidx_blocks_unsorted_input_still_raises():
    entries = [(f"k{i:05d}".encode(), (0, i, 8)) for i in range(300)]
    entries[150], entries[10] = entries[10], entries[150]
    with pytest.raises(DbError):
        build_pidx_blocks(entries, 4096)
