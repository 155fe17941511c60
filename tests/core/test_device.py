"""Integration tests: the full KV-CSD insert/compact/index/query pipeline."""

import struct

import numpy as np
import pytest

from repro.core import KvCsdClient, KvCsdDevice
from repro.core.keyspace import KeyspaceState
from repro.core.klog import MAX_KEY_BYTES
from repro.core.sidx import SidxConfig
from repro.errors import (
    DbError,
    KeyNotFoundError,
    KeyspaceError,
    KeyspaceExistsError,
    KeyspaceNotFoundError,
    KeyspaceStateError,
    SecondaryIndexError,
    SimulationError,
)
from repro.nvme.kv_commands import CompactCmd
from repro.obs.audit import InvariantAuditor
from repro.soc import SocSpec

from tests.core.conftest import CsdTestbed, make_pairs


@pytest.mark.parametrize(
    "knob, bad, good, error",
    [
        ("block_bytes", 63, 64, DbError),
        ("membuf_bytes", 1023, 1024, DbError),
        ("bulk_message_bytes", 0, 1, DbError),
        ("timeslice", 0.0, 1e-6, SimulationError),
    ],
)
def test_size_knobs_are_refused_where_they_are_given(knob, bad, good, error):
    """A size no later operation could work with fails its constructor, not
    the first flush, compaction or command that trips on it."""
    tb = CsdTestbed()

    def build(value):
        if knob == "timeslice":
            return SocSpec(timeslice=value)
        if knob == "bulk_message_bytes":
            return KvCsdClient(tb.device, tb.link, bulk_message_bytes=value)
        return KvCsdDevice(tb.board, rng=np.random.default_rng(0), **{knob: value})

    build(good)
    with pytest.raises(error):
        build(bad)


def setup_keyspace(tb, name="ks", pairs=None):
    def proc():
        yield from tb.client.create_keyspace(name, tb.ctx)
        yield from tb.client.open_keyspace(name, tb.ctx)
        if pairs:
            yield from tb.client.bulk_put(name, pairs, tb.ctx)

    tb.run(proc())


def compact_and_wait(tb, name="ks"):
    def proc():
        yield from tb.client.compact(name, tb.ctx)
        yield from tb.client.wait_for_device(name, tb.ctx)

    tb.run(proc())


# ------------------------------------------------------------------ lifecycle
def test_keyspace_lifecycle_states(tb):
    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        s1 = tb.device.keyspaces["ks"].state
        yield from tb.client.open_keyspace("ks", tb.ctx)
        s2 = tb.device.keyspaces["ks"].state
        yield from tb.client.bulk_put("ks", make_pairs(10), tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        s3 = tb.device.keyspaces["ks"].state
        yield from tb.client.wait_for_device("ks", tb.ctx)
        s4 = tb.device.keyspaces["ks"].state
        return s1, s2, s3, s4

    s1, s2, s3, s4 = tb.run(proc())
    assert s1 == KeyspaceState.EMPTY
    assert s2 == KeyspaceState.WRITABLE
    assert s3 in (KeyspaceState.COMPACTING, KeyspaceState.COMPACTED)
    assert s4 == KeyspaceState.COMPACTED


def test_duplicate_keyspace_rejected(tb):
    setup_keyspace(tb)

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)

    with pytest.raises(KeyspaceExistsError):
        tb.run(proc())


#: a name the metadata record's u16 length field cannot carry
OVERSIZED_NAME = "x" * 70000


def test_oversized_keyspace_name_rejected(tb):
    """Rejected with a typed error before the table or the log changes."""
    log_zone = tb.ssd.zone(tb.device.metalog.zone_ids[0])

    def proc():
        yield from tb.client.create_keyspace(OVERSIZED_NAME, tb.ctx)

    with pytest.raises(KeyspaceError):
        tb.run(proc())
    assert tb.device.list_keyspaces() == []
    assert log_zone.write_pointer == 0
    # the longest name that fits is taken
    setup_keyspace(tb, name="k" * MAX_KEY_BYTES)
    assert tb.device.list_keyspaces() == ["k" * MAX_KEY_BYTES]


def test_unknown_keyspace_rejected(tb):
    def proc():
        yield from tb.client.open_keyspace("ghost", tb.ctx)

    with pytest.raises(KeyspaceNotFoundError):
        tb.run(proc())


def test_write_to_compacted_keyspace_rejected(tb):
    setup_keyspace(tb, pairs=make_pairs(10))
    compact_and_wait(tb)

    def proc():
        yield from tb.client.bulk_put("ks", make_pairs(5), tb.ctx)

    with pytest.raises(KeyspaceStateError):
        tb.run(proc())


def test_query_before_compaction_rejected(tb):
    setup_keyspace(tb, pairs=make_pairs(10))

    def proc():
        yield from tb.client.get("ks", make_pairs(1)[0][0], tb.ctx)

    with pytest.raises(KeyspaceStateError):
        tb.run(proc())


def test_delete_keyspace_reclaims_zones(tb):
    free_before = tb.device.zone_manager.free_zone_count
    setup_keyspace(tb, pairs=make_pairs(5000))
    compact_and_wait(tb)
    assert tb.device.zone_manager.free_zone_count < free_before

    def proc():
        yield from tb.client.delete_keyspace("ks", tb.ctx)

    tb.run(proc())
    assert tb.device.zone_manager.free_zone_count == free_before
    assert "ks" not in tb.device.keyspaces


def test_list_keyspaces(tb):
    for name in ("b-ks", "a-ks"):
        setup_keyspace(tb, name=name)

    def proc():
        return (yield from tb.client.list_keyspaces(tb.ctx))

    assert tb.run(proc()) == ["a-ks", "b-ks"]


def test_keyspace_stat(tb):
    pairs = make_pairs(100)
    setup_keyspace(tb, pairs=pairs)

    def proc():
        return (yield from tb.client.keyspace_stat("ks", tb.ctx))

    stat = tb.run(proc())
    assert stat["state"] == "writable"
    assert stat["n_pairs"] == 100
    assert stat["min_key"] == pairs[0][0]
    assert stat["max_key"] == pairs[-1][0]


# ------------------------------------------------------------------ data path
def test_full_pipeline_point_queries(tb):
    pairs = make_pairs(3000)
    setup_keyspace(tb, pairs=pairs)
    compact_and_wait(tb)

    def proc():
        values = []
        for key, _ in pairs[::500]:
            v = yield from tb.client.get("ks", key, tb.ctx)
            values.append(v)
        return values

    values = tb.run(proc())
    expected = [v for _, v in pairs[::500]]
    assert values == expected


def test_missing_key_raises(tb):
    setup_keyspace(tb, pairs=make_pairs(100))
    compact_and_wait(tb)

    def proc():
        yield from tb.client.get("ks", b"absent-key-0000", tb.ctx)

    with pytest.raises(KeyNotFoundError):
        tb.run(proc())


def test_range_query_returns_sorted_slice(tb):
    pairs = make_pairs(2000)
    setup_keyspace(tb, pairs=pairs)
    compact_and_wait(tb)
    lo = pairs[100][0]
    hi = pairs[150][0]

    def proc():
        return (yield from tb.client.range_query("ks", lo, hi, tb.ctx))

    result = tb.run(proc())
    assert [k for k, _ in result] == [k for k, _ in pairs[100:150]]
    assert all(v == pairs[100 + i][1] for i, (_, v) in enumerate(result))


def test_unsorted_insertion_order_compacts_sorted(tb):
    import random

    pairs = make_pairs(1000)
    shuffled = pairs[:]
    random.Random(7).shuffle(shuffled)
    setup_keyspace(tb, pairs=shuffled)
    compact_and_wait(tb)

    def proc():
        return (yield from tb.client.range_query("ks", pairs[0][0], pairs[-1][0] + b"z", tb.ctx))

    result = tb.run(proc())
    assert [k for k, _ in result] == [k for k, _ in pairs]


def test_duplicate_keys_newest_wins(tb):
    setup_keyspace(tb)

    def proc():
        yield from tb.client.bulk_put("ks", [(b"dup-key", b"v1")], tb.ctx)
        yield from tb.client.bulk_put("ks", [(b"dup-key", b"v2")], tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        v = yield from tb.client.get("ks", b"dup-key", tb.ctx)
        n = tb.device.keyspaces["ks"].n_pairs
        return v, n

    v, n = tb.run(proc())
    assert v == b"v2"
    assert n == 1


def test_bulk_delete_tombstones_applied_at_compaction(tb):
    pairs = make_pairs(500)
    setup_keyspace(tb, pairs=pairs)

    def proc():
        yield from tb.client.bulk_delete("ks", [pairs[10][0], pairs[20][0]], tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(proc())

    def check():
        kept = yield from tb.client.get("ks", pairs[11][0], tb.ctx)
        try:
            yield from tb.client.get("ks", pairs[10][0], tb.ctx)
            gone = False
        except KeyNotFoundError:
            gone = True
        return kept, gone

    kept, gone = tb.run(check())
    assert kept == pairs[11][1]
    assert gone
    assert tb.device.keyspaces["ks"].n_pairs == 498


def test_compaction_is_asynchronous(tb):
    pairs = make_pairs(20_000)
    setup_keyspace(tb, pairs=pairs)

    def proc():
        t0 = tb.env.now
        yield from tb.client.compact("ks", tb.ctx)
        t_submit = tb.env.now - t0
        yield from tb.client.wait_for_device("ks", tb.ctx)
        t_total = tb.env.now - t0
        return t_submit, t_total

    t_submit, t_total = tb.run(proc())
    # The compact() call returns long before the compaction completes.
    assert t_submit < t_total / 3


def test_compaction_frees_log_zones(tb):
    pairs = make_pairs(5000)
    setup_keyspace(tb, pairs=pairs)
    ks = tb.device.keyspaces["ks"]
    assert ks.klog_clusters and ks.vlog_clusters
    compact_and_wait(tb)
    assert not ks.klog_clusters
    assert not ks.vlog_clusters
    assert ks.pidx_clusters and ks.sorted_value_clusters


def test_variable_value_sizes(tb):
    pairs = [
        (f"vk-{i:06d}".encode(), bytes([i % 251]) * (1 + (i * 37) % 900))
        for i in range(800)
    ]
    setup_keyspace(tb, pairs=pairs)
    compact_and_wait(tb)

    def proc():
        out = []
        for key, value in pairs[::97]:
            got = yield from tb.client.get("ks", key, tb.ctx)
            out.append(got == value)
        return out

    assert all(tb.run(proc()))


# ------------------------------------------------------------------ secondary index
def _pairs_with_energy(n):
    """Records whose value embeds a little-endian f64 'energy' at offset 8."""
    out = []
    for i in range(n):
        energy = (i * 7919 % n) / n * 10.0  # deterministic spread in [0, 10)
        value = bytes(8) + struct.pack("<d", energy) + bytes(16)
        out.append((f"p-{i:08d}".encode(), value))
    return out


def test_sidx_build_and_range_query(tb):
    pairs = _pairs_with_energy(2000)
    setup_keyspace(tb, pairs=pairs)
    compact_and_wait(tb)

    def build():
        yield from tb.client.build_secondary_index(
            "ks", "energy", value_offset=8, width=8, dtype="f64", ctx=tb.ctx
        )
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(build())
    lo = struct.pack("<d", 9.0)
    hi = struct.pack("<d", 10.1)

    def query():
        return (yield from tb.client.sidx_range_query("ks", "energy", lo, hi, tb.ctx))

    result = tb.run(query())
    expected = {
        k for k, v in pairs if struct.unpack("<d", v[8:16])[0] >= 9.0
    }
    assert {k for k, _ in result} == expected
    # full records returned
    by_key = dict(pairs)
    assert all(v == by_key[k] for k, v in result)


def test_sidx_selectivity_changes_result_size(tb):
    pairs = _pairs_with_energy(2000)
    setup_keyspace(tb, pairs=pairs)
    compact_and_wait(tb)

    def build():
        yield from tb.client.build_secondary_index(
            "ks", "energy", value_offset=8, width=8, dtype="f64", ctx=tb.ctx
        )
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(build())

    def query(threshold):
        lo = struct.pack("<d", threshold)
        hi = struct.pack("<d", 1e9)

        def proc():
            return (yield from tb.client.sidx_range_query("ks", "energy", lo, hi, tb.ctx))

        return tb.run(proc())

    selective = query(9.9)
    broad = query(5.0)
    assert len(selective) < len(broad)
    assert len(broad) == pytest.approx(1000, abs=50)


def test_sidx_requires_compacted(tb):
    setup_keyspace(tb, pairs=_pairs_with_energy(10))

    def proc():
        yield from tb.client.build_secondary_index(
            "ks", "energy", value_offset=8, width=8, dtype="f64", ctx=tb.ctx
        )

    with pytest.raises(KeyspaceStateError):
        tb.run(proc())


def test_sidx_duplicate_name_rejected(tb):
    setup_keyspace(tb, pairs=_pairs_with_energy(50))
    compact_and_wait(tb)

    def build():
        yield from tb.client.build_secondary_index(
            "ks", "energy", value_offset=8, width=8, dtype="f64", ctx=tb.ctx
        )
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(build())
    with pytest.raises(SecondaryIndexError):
        tb.run(build())


def test_oversized_index_name_rejected_at_build(tb):
    setup_keyspace(tb, pairs=_pairs_with_energy(50))
    compact_and_wait(tb)

    def build(name):
        yield from tb.client.build_secondary_index(
            "ks", name, value_offset=8, width=8, dtype="f64", ctx=tb.ctx
        )
        yield from tb.client.wait_for_device("ks", tb.ctx)

    with pytest.raises(SecondaryIndexError):
        tb.run(build(OVERSIZED_NAME))
    assert tb.device.keyspaces["ks"].sidx == {}
    report = InvariantAuditor(tb.device).run("build")
    assert report.ok, report.violations
    tb.run(build("energy"))
    assert sorted(tb.device.keyspaces["ks"].sidx) == ["energy"]


def test_oversized_index_name_rejected_at_compaction(tb):
    """Rejected on the host by the client API and on the device by the
    command's decode; the keyspace stays WRITABLE and compacts afterwards."""
    setup_keyspace(tb, pairs=_pairs_with_energy(50))

    def compact():
        config = SidxConfig(OVERSIZED_NAME, value_offset=8, width=8, dtype="f64")
        yield from tb.client.compact("ks", tb.ctx, secondary_indexes=[config])
        yield from tb.client.wait_for_device("ks", tb.ctx)

    def post_raw():
        command = CompactCmd(keyspace="ks", sidx=((OVERSIZED_NAME, 8, 8, "f64"),))
        return (yield from tb.client.submit_many([command], tb.ctx))

    with pytest.raises(SecondaryIndexError):
        tb.run(compact())
    [completion] = tb.run(post_raw())
    assert completion.status == "SecondaryIndexError"
    ks = tb.device.keyspaces["ks"]
    assert ks.state is KeyspaceState.WRITABLE and ks.sidx == {}
    report = InvariantAuditor(tb.device).run("compact")
    assert report.ok, report.violations
    compact_and_wait(tb)
    assert ks.state is KeyspaceState.COMPACTED


def test_sidx_unknown_index_query_rejected(tb):
    setup_keyspace(tb, pairs=_pairs_with_energy(50))
    compact_and_wait(tb)

    def proc():
        yield from tb.client.sidx_range_query("ks", "nope", b"\x00" * 8, b"\xff" * 8, tb.ctx)

    with pytest.raises(SecondaryIndexError):
        tb.run(proc())


def test_sidx_point_query(tb):
    # Several records share the same u32 tag; the point query returns all.
    pairs = []
    for i in range(300):
        tag = struct.pack("<I", i % 10)
        pairs.append((f"t-{i:06d}".encode(), tag + bytes(12)))
    setup_keyspace(tb, pairs=pairs)
    compact_and_wait(tb)

    def build():
        yield from tb.client.build_secondary_index(
            "ks", "tag", value_offset=0, width=4, dtype="u32", ctx=tb.ctx
        )
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(build())

    def query():
        return (
            yield from tb.client.sidx_point_query(
                "ks", "tag", struct.pack("<I", 3), tb.ctx
            )
        )

    result = tb.run(query())
    expected = {k for k, v in pairs if v[:4] == struct.pack("<I", 3)}
    assert {k for k, _ in result} == expected


# ------------------------------------------------------------------ multi-keyspace
def test_keys_reusable_across_keyspaces(tb):
    for name, val in (("ks-a", b"from-a"), ("ks-b", b"from-b")):
        def proc(name=name, val=val):
            yield from tb.client.create_keyspace(name, tb.ctx)
            yield from tb.client.open_keyspace(name, tb.ctx)
            yield from tb.client.bulk_put(name, [(b"shared-key", val)], tb.ctx)
            yield from tb.client.compact(name, tb.ctx)
            yield from tb.client.wait_for_device(name, tb.ctx)

        tb.run(proc())

    def check():
        a = yield from tb.client.get("ks-a", b"shared-key", tb.ctx)
        b = yield from tb.client.get("ks-b", b"shared-key", tb.ctx)
        return a, b

    assert tb.run(check()) == (b"from-a", b"from-b")


def test_concurrent_writers_to_shared_keyspace(tb):
    setup_keyspace(tb)
    per_thread = 500

    def writer(tid):
        pairs = [
            (f"w{tid}-{i:08d}".encode(), bytes([tid]) * 32)
            for i in range(per_thread)
        ]
        yield from tb.client.bulk_put("ks", pairs, tb.ctx.pinned(tid % 4))

    procs = [tb.env.process(writer(tid)) for tid in range(4)]
    tb.env.run()
    assert tb.device.keyspaces["ks"].n_pairs == 4 * per_thread
    compact_and_wait(tb)

    def check():
        v = yield from tb.client.get("ks", b"w2-00000033".ljust(12, b"0")[:12], tb.ctx)
        return v

    # key formatting: w2-00000033 is already 11 bytes; check a real key instead
    def check2():
        v = yield from tb.client.get("ks", f"w3-{7:08d}".encode(), tb.ctx)
        return v

    assert tb.run(check2()) == bytes([3]) * 32


def test_simulated_time_advances(tb):
    assert tb.env.now == 0.0
    setup_keyspace(tb, pairs=make_pairs(1000))
    assert tb.env.now > 0
    t_insert = tb.env.now
    compact_and_wait(tb)
    assert tb.env.now > t_insert
