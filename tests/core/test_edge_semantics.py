"""Edge-case semantics across both stores: empty ranges, empty keyspaces,
zero-byte values, reversed bounds."""

import pytest

from repro.core.klog import MAX_KEY_BYTES
from repro.errors import KeyNotFoundError, KeyTooLargeError
from repro.nvme.kv_commands import KvBulkDeleteCmd, KvBulkPutCmd, KvDeleteCmd

from tests.core.conftest import CsdTestbed, make_pairs
from tests.lsm.conftest import LsmTestbed, small_options


# ------------------------------------------------------------------ KV-CSD
def test_compact_empty_keyspace():
    tb = CsdTestbed()

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        rows = yield from tb.client.range_query("ks", b"", b"\xff" * 8, tb.ctx)
        return rows

    assert tb.run(proc()) == []
    assert tb.device.keyspaces["ks"].n_pairs == 0

    def get_missing():
        yield from tb.client.get("ks", b"anything", tb.ctx)

    with pytest.raises(KeyNotFoundError):
        tb.run(get_missing())


def test_reversed_and_empty_range_bounds():
    tb = CsdTestbed()
    pairs = make_pairs(200)

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        reversed_bounds = yield from tb.client.range_query(
            "ks", pairs[100][0], pairs[50][0], tb.ctx
        )
        empty = yield from tb.client.range_query(
            "ks", pairs[50][0], pairs[50][0], tb.ctx
        )
        return reversed_bounds, empty

    reversed_bounds, empty = tb.run(proc())
    assert reversed_bounds == []
    assert empty == []


def test_zero_byte_values_roundtrip():
    tb = CsdTestbed()
    pairs = [(f"z{i:04d}".encode(), b"") for i in range(100)]

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        value = yield from tb.client.get("ks", b"z0042", tb.ctx)
        rows = yield from tb.client.range_query("ks", b"z0000", b"z9999", tb.ctx)
        return value, rows

    value, rows = tb.run(proc())
    assert value == b""
    assert len(rows) == 100
    assert all(v == b"" for _k, v in rows)


def test_single_pair_keyspace():
    tb = CsdTestbed()

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.put("ks", b"only", b"one", tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        value = yield from tb.client.get("ks", b"only", tb.ctx)
        return value

    assert tb.run(proc()) == b"one"


def test_delete_everything_then_compact():
    tb = CsdTestbed()
    pairs = make_pairs(50)

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.bulk_delete("ks", [k for k, _ in pairs], tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        rows = yield from tb.client.range_query("ks", b"", b"\xff" * 20, tb.ctx)
        return rows

    assert tb.run(proc()) == []
    assert tb.device.keyspaces["ks"].n_pairs == 0


def test_oversized_key_is_refused_at_admission_and_poisons_nothing():
    """A key no on-flash format can carry fails its own command, typed, before
    anything is buffered: it used to be acknowledged, then fail the next
    fsync ("too large for KLOG"), then fail compaction differently ("too
    large for metadata record") and leave the keyspace stuck COMPACTING."""
    tb = CsdTestbed()
    pairs = make_pairs(300)
    huge = b"k" * 70000
    edge = b"e" * (MAX_KEY_BYTES + 1)  # 65 535: KLOG could, the metadata could not

    def refused(gen):
        try:
            yield from gen
        except KeyTooLargeError as exc:
            assert exc.limit == MAX_KEY_BYTES == 65534
            return True
        return False

    def proc():
        client, ctx = tb.client, tb.ctx
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        yield from client.bulk_put("ks", pairs[:150], ctx)
        seq0 = tb.device._seqs["ks"]
        outcomes = [
            (yield from refused(client.put("ks", huge, b"v", ctx))),
            (yield from refused(client.put("ks", edge, b"v", ctx))),
            (yield from refused(client.bulk_put("ks", pairs[150:160] + [(huge, b"v")], ctx))),
            (yield from refused(client.bulk_delete("ks", [pairs[0][0], huge], ctx))),
            (yield from refused(client._call(KvDeleteCmd("ks", huge), ctx, "delete"))),
        ]
        # a refused command spends no sequence number and buffers no pair
        assert tb.device._seqs["ks"] == seq0
        # ... and in a batch only the offending command fails
        completions = yield from client.submit_many(
            [
                KvBulkPutCmd("ks", (b"after",), (b"ok",)),
                KvBulkPutCmd("ks", (huge,), (b"v",)),
                KvBulkDeleteCmd("ks", (edge,)),
            ],
            ctx,
        )
        yield from client.bulk_put("ks", pairs[150:], ctx)
        yield from client.fsync("ks", ctx)
        yield from client.compact("ks", ctx)
        yield from client.wait_for_device("ks", ctx)
        rows = yield from client.range_query("ks", b"", b"\xff" * 20, ctx)
        return outcomes, [c.status for c in completions], rows

    outcomes, statuses, rows = tb.run(proc())
    assert outcomes == [True] * 5
    assert statuses == ["OK", "KeyTooLargeError", "KeyTooLargeError"]
    assert tb.device.keyspaces["ks"].state.name == "COMPACTED"
    assert rows == sorted(pairs + [(b"after", b"ok")])


def test_longest_admitted_key_survives_flush_compaction_and_metadata():
    tb = CsdTestbed()
    longest = b"z" * MAX_KEY_BYTES

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", [(b"a", b"1"), (longest, b"2")], tb.ctx)
        yield from tb.client.fsync("ks", tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        return (yield from tb.client.get("ks", longest, tb.ctx))

    assert tb.run(proc()) == b"2"
    assert tb.device.keyspaces["ks"].max_key == longest


# ------------------------------------------------------------------ LSM
def test_lsm_empty_scan_and_reversed_bounds():
    tb = LsmTestbed(options=small_options())
    tb.run(tb.db.open(tb.fg))

    def proc():
        empty = yield from tb.db.scan(b"a", b"z", tb.fg)
        yield from tb.db.put(b"m", b"v", tb.fg)
        reversed_bounds = yield from tb.db.scan(b"z", b"a", tb.fg)
        return empty, reversed_bounds

    empty, reversed_bounds = tb.run(proc())
    assert empty == []
    assert reversed_bounds == []


def test_lsm_zero_byte_value():
    tb = LsmTestbed(options=small_options())
    tb.run(tb.db.open(tb.fg))

    def proc():
        yield from tb.db.put(b"k", b"", tb.fg)
        yield from tb.db.flush(tb.fg)
        value = yield from tb.db.get(b"k", tb.fg)
        return value

    assert tb.run(proc()) == b""


def test_lsm_empty_write_batch_is_noop():
    tb = LsmTestbed(options=small_options())
    tb.run(tb.db.open(tb.fg))

    def proc():
        yield from tb.db.write_batch([], tb.fg)

    tb.run(proc())
    assert tb.db.stats.counter("puts").value == 0
