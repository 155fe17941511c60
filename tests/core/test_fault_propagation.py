"""Media-error containment through the full KV path.

An injected fault during a flush, compaction, or index build must surface
as an error on exactly the affected request, leave the keyspace in a legal
state (the invariant auditor passes), and leave the queue pair healthy so
a retry succeeds.
"""

import pytest

from repro.core import SidxConfig
from repro.core.keyspace import KeyspaceState
from repro.errors import SecondaryIndexError, StorageError
from repro.nvme.kv_commands import KvGetCmd, WaitCompactionCmd
from repro.obs.audit import InvariantAuditor
from repro.ssd.faults import FaultPlan, MediaError

from tests.core.conftest import CsdTestbed, make_pairs


def assert_device_legal(tb):
    report = InvariantAuditor(tb.device, level="phase").run("fault-containment")
    assert report.ok, report.violations


def open_keyspace(tb, name="ks"):
    def setup():
        yield from tb.client.create_keyspace(name, tb.ctx)
        yield from tb.client.open_keyspace(name, tb.ctx)

    tb.run(setup())


def test_media_error_during_flush_contained():
    """A write fault while flushing the membuf fails that put; the device
    keeps serving and a retry lands the data."""
    tb = CsdTestbed()
    open_keyspace(tb)
    pairs = make_pairs(9000)  # > membuf, forces KLOG/VLOG flushes
    tb.ssd.faults = FaultPlan(fail_writes=1)

    def put():
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)

    with pytest.raises(StorageError):
        tb.run(put())
    assert tb.ssd.faults.exhausted
    assert_device_legal(tb)
    assert tb.device.keyspaces["ks"].state == KeyspaceState.WRITABLE

    tb.ssd.faults = None

    def retry():
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        return (yield from tb.client.get("ks", pairs[77][0], tb.ctx))

    assert tb.run(retry()) == pairs[77][1]


@pytest.mark.parametrize("remount", [False, True])
def test_media_error_during_compaction_unwinds(remount):
    """A fault mid-compaction parks on the wait ticket only: the keyspace
    reverts to WRITABLE with its logs intact and recompacts cleanly, in
    place or after a mount from the metadata log."""
    tb = CsdTestbed(bloom_bits_per_key=10)
    open_keyspace(tb)
    pairs = make_pairs(5000)

    def load():
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.fsync("ks", tb.ctx)  # drain the membuf

    tb.run(load())
    # skip the compact command's own metadata append; the fault then lands
    # on the job's first write (a sorted-value extent)
    tb.ssd.faults = FaultPlan(fail_writes=1, after_writes=1)

    def compact():
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    with pytest.raises(MediaError):
        tb.run(compact())
    assert tb.device.stats.counter("compaction_failures").value == 1
    ks = tb.device.keyspaces["ks"]
    assert ks.state == KeyspaceState.WRITABLE
    assert ks.klog_clusters  # inputs survived the unwind
    assert_device_legal(tb)

    tb.ssd.faults = None
    if remount:
        tb.power_cycle()
        ks = tb.device.keyspaces["ks"]
        assert ks.state == KeyspaceState.WRITABLE
        assert ks.klog_clusters
        assert_device_legal(tb)

    def retry():
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        return (yield from tb.client.get("ks", pairs[1234][0], tb.ctx))

    assert tb.run(retry()) == pairs[1234][1]
    assert tb.device.keyspaces["ks"].n_pairs == len(pairs)


def test_media_error_during_sidx_build_spares_primary():
    """An index-build fault loses only the secondary index: the compacted
    primary path keeps serving queries and the build can be retried."""
    tb = CsdTestbed()
    open_keyspace(tb)
    pairs = [
        (f"p{i:07d}".encode(), (i % 23).to_bytes(4, "little") + bytes(8))
        for i in range(3000)
    ]

    def load():
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(load())
    tb.ssd.faults = FaultPlan(fail_writes=1)
    config = SidxConfig("tag", value_offset=0, width=4, dtype="u32")

    def build():
        yield from tb.client.build_secondary_index(
            "ks", config.name, config.value_offset, config.width,
            config.dtype, tb.ctx,
        )
        yield from tb.client.wait_for_device("ks", tb.ctx)

    with pytest.raises(MediaError):
        tb.run(build())
    ks = tb.device.keyspaces["ks"]
    assert ks.state == KeyspaceState.COMPACTED
    assert "tag" not in ks.sidx  # the partial index was unwound
    assert_device_legal(tb)

    tb.ssd.faults = None

    def query_then_retry():
        value = yield from tb.client.get("ks", pairs[42][0], tb.ctx)
        yield from tb.client.build_secondary_index(
            "ks", config.name, config.value_offset, config.width,
            config.dtype, tb.ctx,
        )
        yield from tb.client.wait_for_device("ks", tb.ctx)
        rows = yield from tb.client.sidx_range_query(
            "ks", "tag", (7).to_bytes(4, "little"), (8).to_bytes(4, "little"),
            tb.ctx,
        )
        return value, rows

    value, rows = tb.run(query_then_retry())
    assert value == pairs[42][1]
    expected = {k for k, v in pairs if v[:4] == (7).to_bytes(4, "little")}
    assert {k for k, _ in rows} == expected


def test_short_value_fails_the_index_build_and_nothing_else():
    """One value ends before the indexed byte range.  The build fails, typed,
    on the wait ticket; the keyspace stays COMPACTED and readable and holds no
    zone or bloom DRAM for the index.  The short value sits between full ones:
    a gather over the value buffer that did not check lengths first would
    index its neighbour's bytes and succeed."""
    tb = CsdTestbed(bloom_bits_per_key=10)
    open_keyspace(tb)
    pairs = [
        (b"p%07d" % i, bytes(4) + (i % 23).to_bytes(4, "little") + bytes(4))
        for i in range(3000)
    ]
    pairs[1500] = (pairs[1500][0], b"short!")

    def load():
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(load())
    free_zones = tb.device.zone_manager.free_zone_count
    dram = tb.board.dram.available

    def build():
        yield from tb.client.build_secondary_index("ks", "tag", 4, 4, "u32", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    with pytest.raises(SecondaryIndexError, match=r"6 bytes too short .*\[4, 8\)"):
        tb.run(build())
    ks = tb.device.keyspaces["ks"]
    assert ks.state == KeyspaceState.COMPACTED
    assert "tag" not in ks.sidx and "tag" not in ks.sidx_clusters
    assert tb.device.zone_manager.free_zone_count == free_zones
    assert tb.board.dram.available == dram
    assert tb.device.stats.counter("sidx_build_failures").value == 1
    assert_device_legal(tb)

    def read_back():
        return (yield from tb.client.range_query("ks", b"", b"q", tb.ctx))

    assert tb.run(read_back()) == pairs
    # the same value fails an index built in the compaction pass the same way
    inline = CsdTestbed(bloom_bits_per_key=10)
    open_keyspace(inline)

    def compact_with_index():
        yield from inline.client.bulk_put("ks", pairs, inline.ctx)
        config = SidxConfig("tag", value_offset=4, width=4, dtype="u32")
        yield from inline.client.compact("ks", inline.ctx, secondary_indexes=[config])
        yield from inline.client.wait_for_device("ks", inline.ctx)

    with pytest.raises(SecondaryIndexError, match="too short"):
        inline.run(compact_with_index())
    ks = inline.device.keyspaces["ks"]
    assert ks.state == KeyspaceState.COMPACTED and not ks.sidx and not ks.sidx_clusters
    assert_device_legal(inline)


def test_error_completion_touches_only_affected_ticket():
    """Batch reaping: the failing wait ticket completes with an error
    status; every other in-flight command on the same queue pair is OK."""
    tb = CsdTestbed()
    open_keyspace(tb)
    open_keyspace(tb, "other")
    pairs = make_pairs(5000)
    opairs = make_pairs(300, key_bytes=24, prefix="o")

    def load():
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.fsync("ks", tb.ctx)
        yield from tb.client.bulk_put("other", opairs, tb.ctx)
        yield from tb.client.compact("other", tb.ctx)
        yield from tb.client.wait_for_device("other", tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)

    tb.run(load())
    tb.ssd.faults = FaultPlan(fail_writes=1)

    def batch():
        return (
            yield from tb.client.submit_many(
                [
                    WaitCompactionCmd(keyspace="ks"),
                    KvGetCmd(keyspace="other", key=opairs[0][0]),
                ],
                tb.ctx,
            )
        )

    wait_cpl, get_cpl = tb.run(batch())
    assert not wait_cpl.ok
    assert wait_cpl.status == "MediaError"
    # the queue pair survived: the sibling ticket completed normally
    assert get_cpl.ok
    assert get_cpl.value == opairs[0][1]
    assert_device_legal(tb)


def test_fault_does_not_poison_other_keyspaces():
    """An error on one keyspace's compaction leaves every other keyspace's
    traffic untouched."""
    tb = CsdTestbed()
    for name in ("victim", "bystander"):
        open_keyspace(tb, name)

    def load():
        yield from tb.client.bulk_put(
            "victim", make_pairs(5000, key_bytes=24, prefix="v"), tb.ctx
        )
        yield from tb.client.bulk_put(
            "bystander", make_pairs(200, key_bytes=24, prefix="b"), tb.ctx
        )
        yield from tb.client.fsync("victim", tb.ctx)

    tb.run(load())
    tb.ssd.faults = FaultPlan(fail_writes=1, after_writes=1)

    def compact_victim():
        yield from tb.client.compact("victim", tb.ctx)
        yield from tb.client.wait_for_device("victim", tb.ctx)

    with pytest.raises(MediaError):
        tb.run(compact_victim())
    tb.ssd.faults = None

    bpairs = make_pairs(200, key_bytes=24, prefix="b")

    def bystander_traffic():
        yield from tb.client.compact("bystander", tb.ctx)
        yield from tb.client.wait_for_device("bystander", tb.ctx)
        return (yield from tb.client.get("bystander", bpairs[5][0], tb.ctx))

    assert tb.run(bystander_traffic()) == bpairs[5][1]
    assert_device_legal(tb)
