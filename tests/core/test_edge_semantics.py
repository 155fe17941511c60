"""Edge-case semantics across both stores: empty ranges, empty keyspaces,
zero-byte values, reversed bounds."""

import pytest

from repro.core.klog import MAX_KEY_BYTES
from repro.errors import (
    KeyNotFoundError,
    KeyspaceNotFoundError,
    KeyspaceStateError,
    KeyTooLargeError,
    ValueTooLargeError,
)
from repro.nvme.kv_commands import KvBulkDeleteCmd, KvBulkPutCmd, KvDeleteCmd
from repro.obs.audit import InvariantAuditor
from repro.units import KiB, MiB

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
        seq0 = tb.device.keyspaces["ks"].seq
        outcomes = [
            (yield from refused(client.put("ks", huge, b"v", ctx))),
            (yield from refused(client.put("ks", edge, b"v", ctx))),
            (yield from refused(client.bulk_put("ks", pairs[150:160] + [(huge, b"v")], ctx))),
            (yield from refused(client.bulk_delete("ks", [pairs[0][0], huge], ctx))),
            (yield from refused(client._call(KvDeleteCmd("ks", huge), ctx, "delete"))),
        ]
        # a refused command spends no sequence number and buffers no pair
        assert tb.device.keyspaces["ks"].seq == seq0
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


@pytest.mark.parametrize("over", [0, 1], ids=["zone", "zone+1"])
def test_value_larger_than_a_zone_is_refused_and_drains_nothing(over):
    """A value one zone long is stored; one byte more fails its own command,
    typed, before anything is buffered or allocated.  It used to make the
    flush allocate cluster after cluster until the zone pool was empty, and
    then every write to every keyspace failed OutOfSpaceError."""
    tb = CsdTestbed(zone_size=1 * MiB, cluster_zones=2)
    limit = tb.ssd.geometry.zone_size
    big = b"b" * (limit + over)
    pairs = make_pairs(300)
    dev, client, ctx = tb.device, tb.client, tb.ctx

    def setup():
        for name in ("ks", "other"):
            yield from client.create_keyspace(name, ctx)
            yield from client.open_keyspace(name, ctx)
        yield from client.bulk_put("ks", pairs, ctx)

    def table():
        return (
            dev.zone_manager.free_zone_count,
            {name: dev.metalog.codec.encode_upsert(ks, ks.seq) for name, ks in dev.keyspaces.items()},
            [tb.ssd.zone(z).write_pointer for z in dev.metalog.zone_ids],
        )

    tb.run(setup())
    before = table()
    if over:
        with pytest.raises(ValueTooLargeError) as exc:
            tb.run(client.put("ks", b"big", big, ctx))
        assert (exc.value.value_bytes, exc.value.limit) == (limit + 1, limit)
        # one bulk message: its small pair is refused with the big one
        message = KvBulkPutCmd.of("ks", [(b"a", b"small"), (b"big", big)])
        (completion,) = tb.run(client.submit_many([message], ctx))
        assert completion.status == "ValueTooLargeError"
        assert table() == before
    else:
        tb.run(client.put("ks", b"big", big, ctx))
        assert dev.zone_manager.free_zone_count < before[0]

    def serve():
        yield from client.bulk_put("other", pairs, ctx)
        for name in ("ks", "other"):
            yield from client.compact(name, ctx)
            yield from client.wait_for_device(name, ctx)
        got = yield from client.multi_get("other", [k for k, _ in pairs], ctx)
        assert got == dict(pairs)
        try:
            return (yield from client.get("ks", b"big", ctx))
        except KeyNotFoundError:
            return None

    assert tb.run(serve()) == (None if over else big)
    report = InvariantAuditor(dev).run("oversized-value")
    assert report.ok, report.violations


def test_values_between_the_membuf_and_a_zone_are_stored():
    tb = CsdTestbed(zone_size=1 * MiB, cluster_zones=2)
    pairs = [(b"k%d" % i, bytes([i]) * (300 * KiB)) for i in range(4)]

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        return (yield from tb.client.multi_get("ks", [k for k, _ in pairs], tb.ctx))

    assert tb.run(proc()) == dict(pairs)


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


def test_zero_key_bulk_delete_charges_the_request_and_writes_nothing():
    tb = CsdTestbed()

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)

    tb.run(setup())
    ks = tb.device.keyspaces["ks"]
    free_zones = tb.device.zone_manager.free_zone_count
    metalog = tb.device.metalog.introspect()
    writes = tb.ssd.stats.write_ops
    t0 = tb.env.now
    tb.run(tb.client.bulk_delete("ks", [], tb.ctx))
    assert tb.env.now > t0  # the command still costs its round trip
    assert tb.device.zone_manager.free_zone_count == free_zones
    assert ks.klog_clusters == []
    assert tb.device.metalog.introspect() == metalog
    assert tb.ssd.stats.write_ops == writes
    assert ks.seq == 0


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


# ------------------------------------------------------------------ empty bulk PUT
def _empty_bulk_put(tb, name, asynchronous):
    """``bulk_put(name, [])``, synchronously or posted and then reaped."""
    client, ctx = tb.client, tb.ctx

    def proc():
        if not asynchronous:
            return (yield from client.bulk_put(name, [], ctx))
        tickets = yield from client.bulk_put_async(name, [], ctx)
        assert len(tickets) == 1  # an empty batch is still one command
        for ticket in tickets:
            yield from client.wait(ticket, ctx)

    return tb.run(proc())


@pytest.mark.parametrize("asynchronous", [False, True], ids=["sync", "async"])
def test_empty_bulk_put_on_a_missing_keyspace_raises(asynchronous):
    tb = CsdTestbed()
    with pytest.raises(KeyspaceNotFoundError):
        _empty_bulk_put(tb, "absent", asynchronous)


@pytest.mark.parametrize("asynchronous", [False, True], ids=["sync", "async"])
def test_empty_bulk_put_on_a_compacted_keyspace_raises(asynchronous):
    tb = CsdTestbed()

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", make_pairs(50), tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(setup())
    assert tb.device.keyspaces["ks"].state.name == "COMPACTED"
    with pytest.raises(KeyspaceStateError):
        _empty_bulk_put(tb, "ks", asynchronous)


@pytest.mark.parametrize("asynchronous", [False, True], ids=["sync", "async"])
def test_empty_bulk_put_on_a_writable_keyspace_succeeds_and_allocates_nothing(
    asynchronous,
):
    tb = CsdTestbed()
    dev = tb.device

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)

    tb.run(setup())
    free_zones = dev.zone_manager.free_zone_count
    _empty_bulk_put(tb, "ks", asynchronous)
    ks = dev.keyspaces["ks"]
    assert ks.state.name == "WRITABLE"
    assert ks.n_pairs == 0
    assert dev.zone_manager.free_zone_count == free_zones
    report = InvariantAuditor(dev).run("empty-bulk-put")
    assert report.ok, report.violations
