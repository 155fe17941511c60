"""Tests for the declarative NVMe-KV command dispatcher."""

import pytest

from repro.core.dispatch import KvCommandDispatcher
from repro.nvme.kv_commands import (
    BuildSidxCmd,
    CompactCmd,
    CreateKeyspaceCmd,
    DeleteKeyspaceCmd,
    KeyspaceStatCmd,
    KvBulkPutCmd,
    KvDeleteCmd,
    KvExistCmd,
    KvGetCmd,
    KvMultiGetCmd,
    ListKeyspacesCmd,
    OpenKeyspaceCmd,
    RangeQueryCmd,
    SidxRangeQueryCmd,
    WaitCompactionCmd,
)

from tests.core.conftest import CsdTestbed


@pytest.fixture
def dispatch_tb():
    tb = CsdTestbed()
    return tb, KvCommandDispatcher(tb.device)


def submit(tb, dispatcher, command):
    def proc():
        completion = yield from dispatcher.execute(command, tb.ctx)
        return completion

    return tb.run(proc())


def test_full_lifecycle_via_commands(dispatch_tb):
    tb, dispatcher = dispatch_tb
    assert submit(tb, dispatcher, CreateKeyspaceCmd(name="ks")).ok
    assert submit(tb, dispatcher, OpenKeyspaceCmd(name="ks")).ok
    pairs = [(f"k{i:04d}".encode(), bytes([i % 256]) * 16) for i in range(300)]
    put = KvBulkPutCmd(
        keyspace="ks",
        keys=tuple(k for k, _ in pairs),
        values=tuple(v for _, v in pairs),
    )
    assert submit(tb, dispatcher, put).ok
    assert submit(tb, dispatcher, CompactCmd(keyspace="ks")).ok
    assert submit(tb, dispatcher, WaitCompactionCmd(keyspace="ks")).ok

    got = submit(tb, dispatcher, KvGetCmd(keyspace="ks", key=b"k0042"))
    assert got.ok and got.value == pairs[42][1]

    rng = submit(tb, dispatcher, RangeQueryCmd(keyspace="ks", lo=b"k0010", hi=b"k0013"))
    assert rng.ok and [k for k, _ in rng.value] == [b"k0010", b"k0011", b"k0012"]

    stat = submit(tb, dispatcher, KeyspaceStatCmd(name="ks"))
    assert stat.ok and stat.value["state"] == "compacted"

    listing = submit(tb, dispatcher, ListKeyspacesCmd())
    assert listing.value == ["ks"]

    assert submit(tb, dispatcher, DeleteKeyspaceCmd(name="ks")).ok
    assert submit(tb, dispatcher, ListKeyspacesCmd()).value == []


def test_single_put_and_exist(dispatch_tb):
    tb, dispatcher = dispatch_tb
    submit(tb, dispatcher, CreateKeyspaceCmd(name="ks"))
    submit(tb, dispatcher, OpenKeyspaceCmd(name="ks"))
    assert submit(tb, dispatcher, KvBulkPutCmd(keyspace="ks", keys=(b"a",), values=(b"1",))).ok
    submit(tb, dispatcher, CompactCmd(keyspace="ks"))
    submit(tb, dispatcher, WaitCompactionCmd(keyspace="ks"))
    assert submit(tb, dispatcher, KvExistCmd(keyspace="ks", key=b"a")).value is True
    assert submit(tb, dispatcher, KvExistCmd(keyspace="ks", key=b"b")).value is False


def test_multi_get_commands(dispatch_tb):
    tb, dispatcher = dispatch_tb
    submit(tb, dispatcher, CreateKeyspaceCmd(name="ks"))
    submit(tb, dispatcher, OpenKeyspaceCmd(name="ks"))
    pairs = [(f"m{i:04d}".encode(), bytes([i % 256]) * 8) for i in range(200)]
    put = KvBulkPutCmd(
        keyspace="ks",
        keys=tuple(k for k, _ in pairs),
        values=tuple(v for _, v in pairs),
    )
    submit(tb, dispatcher, put)
    submit(tb, dispatcher, CompactCmd(keyspace="ks"))
    submit(tb, dispatcher, WaitCompactionCmd(keyspace="ks"))

    wanted = (b"m0003", b"m0150", b"absent!")
    expected = {b"m0003": pairs[3][1], b"m0150": pairs[150][1]}
    got = submit(tb, dispatcher, KvMultiGetCmd(keyspace="ks", keys=wanted))
    assert got.ok and got.value == expected


def test_delete_command_masks_key(dispatch_tb):
    tb, dispatcher = dispatch_tb
    submit(tb, dispatcher, CreateKeyspaceCmd(name="ks"))
    submit(tb, dispatcher, OpenKeyspaceCmd(name="ks"))
    submit(tb, dispatcher, KvBulkPutCmd(keyspace="ks", keys=(b"doomed",), values=(b"x",)))
    submit(tb, dispatcher, KvDeleteCmd(keyspace="ks", key=b"doomed"))
    submit(tb, dispatcher, CompactCmd(keyspace="ks"))
    submit(tb, dispatcher, WaitCompactionCmd(keyspace="ks"))
    assert submit(tb, dispatcher, KvExistCmd(keyspace="ks", key=b"doomed")).value is False


def test_sidx_commands(dispatch_tb):
    import struct

    tb, dispatcher = dispatch_tb
    submit(tb, dispatcher, CreateKeyspaceCmd(name="ks"))
    submit(tb, dispatcher, OpenKeyspaceCmd(name="ks"))
    keys, values = [], []
    for i in range(200):
        keys.append(f"p{i:06d}".encode())
        values.append(struct.pack("<I", i % 13) + bytes(8))
    submit(
        tb,
        dispatcher,
        KvBulkPutCmd(keyspace="ks", keys=tuple(keys), values=tuple(values)),
    )
    submit(tb, dispatcher, CompactCmd(keyspace="ks"))
    submit(tb, dispatcher, WaitCompactionCmd(keyspace="ks"))
    assert submit(
        tb,
        dispatcher,
        BuildSidxCmd(keyspace="ks", index_name="tag", value_offset=0, width=4, dtype="u32"),
    ).ok
    submit(tb, dispatcher, WaitCompactionCmd(keyspace="ks"))
    result = submit(
        tb,
        dispatcher,
        SidxRangeQueryCmd(
            keyspace="ks",
            index_name="tag",
            lo=struct.pack("<I", 5),
            hi=struct.pack("<I", 6),
        ),
    )
    expected = {k for k, v in zip(keys, values) if v[:4] == struct.pack("<I", 5)}
    assert {k for k, _ in result.value} == expected


def test_errors_become_error_completions(dispatch_tb):
    tb, dispatcher = dispatch_tb
    c = submit(tb, dispatcher, OpenKeyspaceCmd(name="ghost"))
    assert not c.ok
    assert c.status == "KeyspaceNotFoundError"

    submit(tb, dispatcher, CreateKeyspaceCmd(name="ks"))
    c = submit(tb, dispatcher, KvGetCmd(keyspace="ks", key=b"x"))
    assert not c.ok
    assert c.status == "KeyspaceStateError"


def test_unsupported_command_rejected(dispatch_tb):
    from repro.nvme.kv_commands import KvCommand

    tb, dispatcher = dispatch_tb
    c = submit(tb, dispatcher, KvCommand())
    assert not c.ok
    assert c.status == "ReproError"


def test_unsized_bulk_put_charges_like_a_sized_one():
    """The device charges a message by ``payload_bytes()`` — pair-count
    header included — whether or not the command carries its size."""
    pairs = [(f"k{i:04d}".encode(), bytes([i % 256]) * 16) for i in range(50)]
    sized = KvBulkPutCmd.of("ks", pairs)
    unsized = KvBulkPutCmd("ks", sized.keys, sized.values)
    clocks = []
    for command in (sized, unsized):
        tb = CsdTestbed()
        dispatcher = KvCommandDispatcher(tb.device)
        submit(tb, dispatcher, CreateKeyspaceCmd(name="ks"))
        submit(tb, dispatcher, OpenKeyspaceCmd(name="ks"))
        assert submit(tb, dispatcher, command).ok
        clocks.append(tb.env.now)
    assert clocks[0] == clocks[1]


def test_bulk_put_with_unequal_columns_is_refused(dispatch_tb):
    tb, dispatcher = dispatch_tb
    submit(tb, dispatcher, CreateKeyspaceCmd(name="ks"))
    submit(tb, dispatcher, OpenKeyspaceCmd(name="ks"))
    done = submit(tb, dispatcher, KvBulkPutCmd("ks", (b"a", b"b"), (b"1",)))
    assert done.status == "DbError" and "2 keys but 1 values" in done.value
    stat = submit(tb, dispatcher, KeyspaceStatCmd(name="ks")).value
    assert stat["n_pairs"] == 0
