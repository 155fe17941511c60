"""Metadata codec: record round trips, framing, CRC detection, stream selection."""

import numpy as np
import pytest

from repro.core import KvCsdDevice
from repro.core.keyspace import Keyspace, KeyspaceState
from repro.core.meta import MAGIC, MetaCodec, choose_stream
from repro.core.pidx import PidxSketch
from repro.core.sidx import SidxConfig, SidxSketch
from repro.core.zone_manager import ZoneCluster
from repro.errors import DbError
from repro.host import ThreadCtx
from repro.lsm.bloom import BloomFilter
from repro.sim import CpuPool, Environment
from repro.soc import SocBoard
from repro.ssd import ZnsSsd


@pytest.fixture
def ssd():
    return ZnsSsd(Environment())


def make_keyspace(ssd) -> Keyspace:
    """A COMPACTED keyspace exercising every record section."""
    ks = Keyspace(
        name="ks",
        state=KeyspaceState.COMPACTED,
        n_pairs=4,
        min_key=b"a",
        max_key=b"d",
    )
    ks.pidx_clusters = [ZoneCluster(ssd, [4, 5], rotation=0)]
    ks.sorted_value_clusters = [ZoneCluster(ssd, [6], rotation=0)]
    sketch = PidxSketch()
    sketch.add_block(b"a", (4, 0, 128))
    sketch.add_block(b"c", (5, 0, 96))
    sidx_sketch = SidxSketch(skey_width=4)
    sidx_sketch.add_block(b"\x00" * 4, (7, 0, 64))
    for idx, keys in enumerate([[b"a", b"b"], [b"c", b"d"]]):
        bloom = BloomFilter(len(keys), bits_per_key=10)
        bloom.add_many(keys)
        sketch.attach_bloom(idx, bloom)
    sbloom = BloomFilter(2, bits_per_key=10)
    sbloom.add_many([b"\x00\x00\x00\x01", b"\x00\x00\x00\x02"])
    sidx_sketch.attach_bloom(0, sbloom)
    ks.pidx_sketch = sketch
    config = SidxConfig("tag", value_offset=0, width=4)
    ks.sidx["tag"] = (config, sidx_sketch)
    ks.sidx_clusters["tag"] = [ZoneCluster(ssd, [7], rotation=0)]
    return ks


def assert_keyspace_equal(a: Keyspace, b: Keyspace) -> None:
    assert a.name == b.name
    assert a.state == b.state
    assert a.n_pairs == b.n_pairs
    assert (a.min_key, a.max_key) == (b.min_key, b.max_key)
    for field in ("klog_clusters", "vlog_clusters", "pidx_clusters",
                  "sorted_value_clusters"):
        assert [c.zone_ids for c in getattr(a, field)] == [
            c.zone_ids for c in getattr(b, field)
        ]
    if a.pidx_sketch is None:
        assert b.pidx_sketch is None
    else:
        assert a.pidx_sketch.pivots == b.pidx_sketch.pivots
        assert a.pidx_sketch.block_pointers == b.pidx_sketch.block_pointers
    assert set(a.sidx) == set(b.sidx)


def test_stream_parses_with_both_readers(ssd):
    """A stream parses with the codec and mounts on a device from zone 0
    into the same table."""
    ks = make_keyspace(ssd)
    codec = MetaCodec()
    blob = codec.encode_upsert(ks, 41) + codec.encode_delete("gone")
    stream = codec.parse_stream(blob, ssd)
    assert not stream.torn
    assert stream.records == 2
    recovered, last_seq = stream.table["ks"]
    assert last_seq == 41
    assert_keyspace_equal(ks, recovered)

    env = ssd.env
    env.run(env.process(ssd.append(0, blob)))
    device = KvCsdDevice(SocBoard(env, ssd), rng=np.random.default_rng(0))
    ctx = ThreadCtx(cpu=CpuPool(env, 1), core=0)
    env.run(env.process(device.recover(ctx)))
    assert device.list_keyspaces() == ["ks"]
    assert_keyspace_equal(ks, device.keyspaces["ks"])
    assert device.keyspaces["ks"].seq == 41
    assert device.metalog.epoch == 0


def rich_keyspace(ssd):
    ks = Keyspace(name="vpic-3", state=KeyspaceState.COMPACTED)
    ks.n_pairs = 12345
    ks.min_key = b"\x00aaa"
    ks.max_key = b"zzz\xff"
    ks.pidx_clusters = [ZoneCluster(ssd, [2, 3], rotation=1)]
    ks.sorted_value_clusters = [ZoneCluster(ssd, [4, 5], rotation=0)]
    sketch = PidxSketch()
    sketch.add_block(b"aaa", (2, 0, 4096))
    sketch.add_block(b"mmm", (3, 4096, 4096))
    ks.pidx_sketch = sketch
    config = SidxConfig("energy", value_offset=8, width=4, dtype="f32")
    sidx_sketch = SidxSketch(skey_width=4)
    sidx_sketch.add_block(b"\x80\x00\x00\x00pkey", (6, 0, 4096))
    ks.sidx["energy"] = (config, sidx_sketch)
    ks.sidx_clusters["energy"] = [ZoneCluster(ssd, [6], rotation=0)]
    return ks


def replay_records(blob, ssd):
    return MetaCodec().parse_stream(blob, ssd).table


def test_upsert_roundtrip(ssd):
    ks = rich_keyspace(ssd)
    blob = MetaCodec().encode_upsert(ks, last_seq=999)
    table = replay_records(blob, ssd)
    assert set(table) == {"vpic-3"}
    recovered, last_seq = table["vpic-3"]
    assert last_seq == 999
    assert recovered.state == KeyspaceState.COMPACTED
    assert recovered.n_pairs == 12345
    assert recovered.min_key == b"\x00aaa"
    assert recovered.max_key == b"zzz\xff"
    assert [c.zone_ids for c in recovered.pidx_clusters] == [[2, 3]]
    assert recovered.pidx_clusters[0].rotation == 1
    assert recovered.pidx_sketch.pivots == [b"aaa", b"mmm"]
    assert recovered.pidx_sketch.block_pointers == [(2, 0, 4096), (3, 4096, 4096)]
    config, sketch = recovered.sidx["energy"]
    assert config.dtype == "f32" and config.value_offset == 8
    assert sketch.skey_width == 4
    assert sketch.pivots == [b"\x80\x00\x00\x00pkey"]
    assert [c.zone_ids for c in recovered.sidx_clusters["energy"]] == [[6]]


def test_writable_keyspace_roundtrip(ssd):
    ks = Keyspace(name="w", state=KeyspaceState.WRITABLE)
    ks.klog_clusters = [ZoneCluster(ssd, [1], rotation=0)]
    ks.vlog_clusters = [ZoneCluster(ssd, [2, 3], rotation=1)]
    blob = MetaCodec().encode_upsert(ks, last_seq=7)
    recovered, last_seq = replay_records(blob, ssd)["w"]
    assert recovered.state == KeyspaceState.WRITABLE
    assert recovered.min_key is None and recovered.max_key is None
    assert recovered.pidx_sketch is None
    assert [c.zone_ids for c in recovered.vlog_clusters] == [[2, 3]]
    assert last_seq == 7


def test_later_records_supersede(ssd):
    codec = MetaCodec()
    ks1 = Keyspace(name="ks", state=KeyspaceState.WRITABLE)
    ks2 = Keyspace(name="ks", state=KeyspaceState.COMPACTED)
    ks2.n_pairs = 42
    blob = codec.encode_upsert(ks1, 1) + codec.encode_upsert(ks2, 2)
    recovered, last_seq = replay_records(blob, ssd)["ks"]
    assert recovered.state == KeyspaceState.COMPACTED
    assert recovered.n_pairs == 42
    assert last_seq == 2


def test_multiple_keyspaces(ssd):
    codec = MetaCodec()
    records = b"".join(
        codec.encode_upsert(Keyspace(name=f"ks-{i}", state=KeyspaceState.EMPTY), i)
        for i in range(5)
    )
    table = replay_records(records, ssd)
    assert sorted(table) == [f"ks-{i}" for i in range(5)]


def test_v2_roundtrip_reattaches_blooms(ssd):
    ks = make_keyspace(ssd)
    codec = MetaCodec()
    blob = codec.encode_upsert(ks, 99)
    assert blob.startswith(MAGIC)
    stream = codec.parse_stream(blob, ssd)
    recovered, last_seq = stream.table["ks"]
    assert last_seq == 99
    assert_keyspace_equal(ks, recovered)
    # the annex restored every per-block bloom, byte-identical behavior
    assert set(recovered.pidx_sketch.blooms) == {0, 1}
    assert recovered.pidx_sketch.may_contain(0, b"a")
    assert recovered.pidx_sketch.may_contain(1, b"c")
    assert recovered.sidx["tag"][1].may_contain(0, b"\x00\x00\x00\x01")
    assert recovered.pidx_sketch.bloom_bytes == ks.pidx_sketch.bloom_bytes > 0


@pytest.mark.parametrize(
    "n_bits,k",
    [(0, 7), (64, 0), (64, 31)],
    ids=["no-bits", "no-probes", "too-many-probes"],
)
def test_bloom_annex_rejects_impossible_header(n_bits, k):
    # An 18-byte header-only blob passes the length check when n_bits == 0;
    # probing it divided by zero, and k == 0 answered "maybe" forever.
    header = n_bits.to_bytes(8, "little") + k.to_bytes(2, "little") + bytes(8)
    with pytest.raises(DbError):
        BloomFilter.from_bytes(header + bytes((n_bits + 7) // 8))


def test_v2_torn_tail_keeps_intact_prefix(ssd):
    ks = make_keyspace(ssd)
    codec = MetaCodec()
    first = codec.encode_upsert(ks, 7)
    second = codec.encode_delete("other")
    blob = first + second[: len(second) // 2]
    stream = codec.parse_stream(blob, ssd)
    assert stream.torn
    assert stream.records == 1
    assert "ks" in stream.table


def test_torn_tail_record_stops_replay(ssd):
    codec = MetaCodec()
    ks1 = Keyspace(name="a", state=KeyspaceState.WRITABLE)
    ks2 = Keyspace(name="b", state=KeyspaceState.WRITABLE)
    blob = codec.encode_upsert(ks1, 1) + codec.encode_upsert(ks2, 2)
    torn = blob[:-5]  # power failed mid-append of the second record
    table = replay_records(torn, ssd)
    assert set(table) == {"a"}


def test_v2_crc_failure_stops_replay(ssd):
    ks = make_keyspace(ssd)
    codec = MetaCodec()
    first = codec.encode_delete("gone")
    second = bytearray(codec.encode_upsert(ks, 7))
    second[-1] ^= 0xFF  # corrupt the payload; the frame length is intact
    stream = codec.parse_stream(first + bytes(second), ssd)
    assert stream.torn
    assert stream.crc_failures == 1
    assert stream.records == 1
    assert "ks" not in stream.table


def test_crc_failure_is_not_reread_as_another_record(ssd):
    """A complete frame whose CRC fails ends replay: it is never reread
    under another framing.  Read as a bare length prefix, this frame's
    header (a 0x300-byte payload) names an EPOCH record the ~160 KB behind
    it could hold; an absurd epoch there unsealed the stream, and mount
    preferred an empty standby zone over it."""
    codec = MetaCodec()
    bad = bytearray(codec.encode_delete("x" * 765))
    bad[-1] ^= 0xFF
    blob = codec.encode_delete("a") + bytes(bad) + b"".join(
        codec.encode_delete("y" * 1000) for _ in range(160)
    )
    stream = codec.parse_stream(blob, ssd)
    assert stream.torn
    assert stream.crc_failures == 1
    assert stream.records == 1
    assert stream.epoch == 0
    assert stream.sealed
    empty = codec.parse_stream(b"", ssd)
    assert choose_stream([stream, empty]) is stream


def test_delete_record_drops_entry(ssd):
    ks = make_keyspace(ssd)
    codec = MetaCodec()
    blob = codec.encode_upsert(ks, 7) + codec.encode_delete("ks")
    stream = codec.parse_stream(blob, ssd)
    assert stream.table == {}


def test_delete_record_drops_writable_entry(ssd):
    codec = MetaCodec()
    ks = Keyspace(name="doomed", state=KeyspaceState.WRITABLE)
    blob = codec.encode_upsert(ks, 1) + codec.encode_delete("doomed")
    assert replay_records(blob, ssd) == {}
    # delete of an unknown name is harmless
    assert replay_records(codec.encode_delete("ghost"), ssd) == {}


def test_checkpoint_sealing_and_choose_stream(ssd):
    ks = make_keyspace(ssd)
    codec = MetaCodec()
    sealed = codec.parse_stream(
        codec.encode_epoch(2) + codec.encode_upsert(ks, 7) + codec.encode_commit(2),
        ssd,
    )
    assert sealed.epoch == 2
    assert sealed.sealed
    # a torn checkpoint: EPOCH landed but COMMIT did not
    unsealed = codec.parse_stream(
        codec.encode_epoch(3) + codec.encode_upsert(ks, 8), ssd
    )
    assert unsealed.epoch == 3
    assert not unsealed.sealed
    # mount must fall back to the sealed epoch-2 stream
    assert choose_stream([sealed, unsealed]) is sealed
    # the epoch-0 append-only stream is sealed by convention
    fresh = codec.parse_stream(codec.encode_upsert(ks, 1), ssd)
    assert fresh.sealed
    assert choose_stream([fresh, sealed]) is sealed


def test_unknown_version_rejected(ssd):
    """A frame whose version byte names no known format is not trusted,
    CRC or not: replay stops before it, as at a torn tail."""
    codec = MetaCodec()
    unknown = bytearray(codec.encode_delete("b"))
    unknown[len(MAGIC)] = 3
    stream = codec.parse_stream(codec.encode_delete("a") + bytes(unknown), ssd)
    assert stream.torn
    assert stream.records == 1
