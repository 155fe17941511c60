"""Metadata codec: v2 framing, CRC detection, v1 reads, stream selection."""

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

from tests.core import meta_v1


@pytest.fixture
def ssd():
    return ZnsSsd(Environment())


def make_keyspace(ssd, with_blooms=True) -> Keyspace:
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
    if with_blooms:
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


def test_v1_stream_parses_with_both_readers(ssd):
    """A v1 stream written by older firmware parses with the codec and
    mounts on a device."""
    ks = make_keyspace(ssd, with_blooms=False)
    blob = meta_v1.encode_upsert(ks, 41) + meta_v1.encode_delete("gone")
    stream = MetaCodec().parse_stream(blob, ssd)
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
    assert device.metalog.epoch == 0


def test_v2_roundtrip_reattaches_blooms(ssd):
    ks = make_keyspace(ssd, with_blooms=True)
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
    assert stream.bloom_bytes["ks"] > 0


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


def test_v1_length_colliding_with_magic_still_parses(ssd):
    """A v1 record whose little-endian length prefix starts with b"KM"
    (length ≡ 0x4D4B mod 2**16 — a plausible ~19 KB record) must be retried
    under the v1 interpretation, not misread as a torn v2 frame."""
    # delete payload = type byte + u16 name length + name
    name = "k" * (0x4D4B - 3)
    blob = meta_v1.encode_delete(name) + meta_v1.encode_upsert(
        make_keyspace(ssd, with_blooms=False), 5
    )
    assert blob.startswith(MAGIC)  # the collision is real
    stream = MetaCodec().parse_stream(blob, ssd)
    assert not stream.torn
    assert stream.crc_failures == 0
    assert stream.records == 2
    assert "ks" in stream.table


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


def test_delete_record_drops_entry(ssd):
    ks = make_keyspace(ssd)
    codec = MetaCodec()
    blob = codec.encode_upsert(ks, 7) + codec.encode_delete("ks")
    stream = codec.parse_stream(blob, ssd)
    assert stream.table == {}
    assert stream.bloom_bytes == {}


def test_mixed_framing_auto_detects_per_record(ssd):
    """A device upgraded mid-life appends v2 records after a v1 stream."""
    ks = make_keyspace(ssd, with_blooms=False)
    blob = meta_v1.encode_upsert(ks, 3)
    ks2 = make_keyspace(ssd, with_blooms=True)
    ks2.name = "ks2"
    blob += MetaCodec().encode_upsert(ks2, 9)
    stream = MetaCodec().parse_stream(blob, ssd)
    assert not stream.torn
    assert sorted(stream.table) == ["ks", "ks2"]
    assert stream.table["ks2"][0].pidx_sketch.blooms  # annex applied


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
