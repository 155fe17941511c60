"""Reads of format-v1 keyspace-table records, which older firmware wrote
to the metadata zone (built here with the reference encoder)."""

import pytest

from repro.core.keyspace import Keyspace, KeyspaceState
from repro.core.meta import MetaCodec
from repro.core.pidx import PidxSketch
from repro.core.sidx import SidxConfig, SidxSketch
from repro.core.zone_manager import ZoneCluster
from repro.sim import Environment
from repro.ssd import SsdGeometry, ZnsSsd
from repro.units import MiB

from tests.core.meta_v1 import encode_delete, encode_upsert


@pytest.fixture
def ssd():
    env = Environment()
    return ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=8, zone_size=MiB))


def replay_records(blob, ssd):
    return MetaCodec().parse_stream(blob, ssd).table


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


def test_upsert_roundtrip(ssd):
    ks = rich_keyspace(ssd)
    blob = encode_upsert(ks, last_seq=999)
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
    blob = encode_upsert(ks, last_seq=7)
    recovered, last_seq = replay_records(blob, ssd)["w"]
    assert recovered.state == KeyspaceState.WRITABLE
    assert recovered.min_key is None and recovered.max_key is None
    assert recovered.pidx_sketch is None
    assert [c.zone_ids for c in recovered.vlog_clusters] == [[2, 3]]
    assert last_seq == 7


def test_later_records_supersede(ssd):
    ks1 = Keyspace(name="ks", state=KeyspaceState.WRITABLE)
    ks2 = Keyspace(name="ks", state=KeyspaceState.COMPACTED)
    ks2.n_pairs = 42
    blob = encode_upsert(ks1, 1) + encode_upsert(ks2, 2)
    recovered, last_seq = replay_records(blob, ssd)["ks"]
    assert recovered.state == KeyspaceState.COMPACTED
    assert recovered.n_pairs == 42


def test_delete_record_drops_entry(ssd):
    ks = Keyspace(name="doomed", state=KeyspaceState.WRITABLE)
    blob = encode_upsert(ks, 1) + encode_delete("doomed")
    assert replay_records(blob, ssd) == {}
    # delete of an unknown name is harmless
    assert replay_records(encode_delete("ghost"), ssd) == {}


def test_torn_tail_record_stops_replay(ssd):
    ks1 = Keyspace(name="a", state=KeyspaceState.WRITABLE)
    ks2 = Keyspace(name="b", state=KeyspaceState.WRITABLE)
    blob = encode_upsert(ks1, 1) + encode_upsert(ks2, 2)
    torn = blob[:-5]  # power failed mid-append of the second record
    table = replay_records(torn, ssd)
    assert set(table) == {"a"}


def test_multiple_keyspaces(ssd):
    records = b"".join(
        encode_upsert(Keyspace(name=f"ks-{i}", state=KeyspaceState.EMPTY), i)
        for i in range(5)
    )
    table = replay_records(records, ssd)
    assert sorted(table) == [f"ks-{i}" for i in range(5)]
