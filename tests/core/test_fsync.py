"""Tests for the device's explicit fsync (durability point)."""

import pytest

from repro.errors import KeyspaceStateError

from tests.core.conftest import CsdTestbed, make_pairs


def test_fsync_flushes_membuf_to_zones():
    tb = CsdTestbed()
    pairs = make_pairs(100)  # far below the 192 KB membuf threshold

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        written_before = tb.ssd.stats.bytes_written
        yield from tb.client.fsync("ks", tb.ctx)
        return tb.ssd.stats.bytes_written - written_before

    flushed = tb.run(proc())
    user_bytes = sum(len(k) + len(v) for k, v in pairs)
    assert flushed >= user_bytes  # values + klog records reached the zones
    assert tb.device.stats.counter("fsyncs").value == 1
    assert len(tb.device.keyspaces["ks"].membuf) == 0


def test_fsync_idempotent_when_buffer_empty():
    tb = CsdTestbed()

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.fsync("ks", tb.ctx)
        yield from tb.client.fsync("ks", tb.ctx)

    tb.run(proc())
    assert tb.device.stats.counter("fsyncs").value == 2


def test_fsync_on_empty_keyspace_is_noop():
    tb = CsdTestbed()

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.fsync("ks", tb.ctx)

    tb.run(proc())  # no error


def test_fsync_rejected_after_compaction():
    tb = CsdTestbed()

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", make_pairs(10), tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        yield from tb.client.fsync("ks", tb.ctx)

    with pytest.raises(KeyspaceStateError):
        tb.run(proc())


def test_fsynced_data_queryable_after_compaction():
    tb = CsdTestbed()
    pairs = make_pairs(50)

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.fsync("ks", tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        value = yield from tb.client.get("ks", pairs[25][0], tb.ctx)
        return value

    assert tb.run(proc()) == pairs[25][1]
