"""KV commands size themselves; every command type has a decode path.

``payload_bytes``/``result_bytes`` must equal the reference isinstance
chains (``kv_sizing_reference.py``) for every ``KvCommand`` subclass, and
the dispatcher must decode every subclass — a new command type without
samples here, sizing, or a dispatcher branch fails this file.
"""

import struct

import pytest

from repro.core.dispatch import KvCommandDispatcher
from repro.nvme.kv_commands import (
    BuildSidxCmd,
    CompactCmd,
    CreateKeyspaceCmd,
    DeleteKeyspaceCmd,
    KeyspaceStatCmd,
    KvBulkDeleteCmd,
    KvBulkPutCmd,
    KvCommand,
    KvDeleteCmd,
    KvExistCmd,
    KvFsyncCmd,
    KvGetCmd,
    KvMultiGetCmd,
    ListKeyspacesCmd,
    OpenKeyspaceCmd,
    RangeQueryCmd,
    SidxPointQueryCmd,
    SidxRangeQueryCmd,
    WaitCompactionCmd,
)

from tests.core.conftest import CsdTestbed
from tests.nvme.kv_sizing_reference import command_payload_bytes, command_result_bytes

PAIRS = [(f"k{i:04d}".encode(), struct.pack("<I", i % 7) + bytes(i % 5)) for i in range(40)]

SAMPLES = {
    CreateKeyspaceCmd: [CreateKeyspaceCmd(name="fresh"), CreateKeyspaceCmd(name="")],
    DeleteKeyspaceCmd: [DeleteKeyspaceCmd(name="no-such-keyspace")],
    OpenKeyspaceCmd: [OpenKeyspaceCmd(name="ks")],
    ListKeyspacesCmd: [ListKeyspacesCmd()],
    KeyspaceStatCmd: [KeyspaceStatCmd(name="ks")],
    KvBulkPutCmd: [
        KvBulkPutCmd.of("ks", PAIRS),
        KvBulkPutCmd.of("ks", []),
        # message_bytes unset: sized from the pairs
        KvBulkPutCmd("ks", (b"a", b"bcd"), (b"", b"value")),
    ],
    KvGetCmd: [KvGetCmd("ks", b"k0003"), KvGetCmd("ks", b"")],
    KvMultiGetCmd: [KvMultiGetCmd("ks", (b"k0001", b"k0002", b"x")), KvMultiGetCmd("ks", ())],
    KvDeleteCmd: [KvDeleteCmd("ks", b"k0004")],
    KvBulkDeleteCmd: [KvBulkDeleteCmd("ks", (b"k0005", b"abc")), KvBulkDeleteCmd("ks", ())],
    KvExistCmd: [KvExistCmd("ks", b"k0006")],
    KvFsyncCmd: [KvFsyncCmd("ks")],
    CompactCmd: [
        CompactCmd("ks"),
        CompactCmd("ks", sidx=(("tag", 0, 4, "u32"), ("pad", 4, 1, "bytes"))),
    ],
    WaitCompactionCmd: [WaitCompactionCmd("ks")],
    BuildSidxCmd: [BuildSidxCmd("ks", "tag2", 0, 4, "u32")],
    RangeQueryCmd: [RangeQueryCmd("ks", b"k0010", b"k0020")],
    SidxPointQueryCmd: [SidxPointQueryCmd("ks", "tag", struct.pack("<I", 3))],
    SidxRangeQueryCmd: [
        SidxRangeQueryCmd("ks", "tag", struct.pack("<I", 1), struct.pack("<I", 4))
    ],
}

ROWS = [[], [(b"k1", b"v"), (b"key-2", b"value-2")]]
RESULTS = {
    KvGetCmd: [b"", b"some value"],
    ListKeyspacesCmd: [[], ["ks", "other-keyspace"]],
    KvMultiGetCmd: [{}, {b"k1": b"v", b"key-2": b"value-2"}],
    RangeQueryCmd: ROWS,
    SidxPointQueryCmd: ROWS,
    SidxRangeQueryCmd: ROWS,
}
OTHER_RESULTS = [None, True, False, {"state": "compacted"}]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from _subclasses(sub)


def test_every_command_type_has_samples():
    assert set(_subclasses(KvCommand)) == set(SAMPLES)


@pytest.mark.parametrize("cls", sorted(SAMPLES, key=lambda c: c.__name__))
def test_commands_size_themselves_like_the_reference(cls):
    for command in SAMPLES[cls]:
        assert command.payload_bytes() == command_payload_bytes(command)
        for value in RESULTS.get(cls, OTHER_RESULTS):
            assert command.result_bytes(value) == command_result_bytes(command, value)


def test_bulk_put_builder_sets_the_wire_size():
    command = KvBulkPutCmd.of("ks", PAIRS)
    assert command.keys == tuple(k for k, _ in PAIRS)
    assert command.values == tuple(v for _, v in PAIRS)
    unsized = KvBulkPutCmd("ks", command.keys, command.values)
    assert command.message_bytes == unsized.payload_bytes() > 0


def test_dispatcher_decodes_every_command_type():
    tb = CsdTestbed()
    dispatcher = KvCommandDispatcher(tb.device)

    def run(command):
        def proc():
            return (yield from dispatcher.execute(command, tb.ctx))

        return tb.run(proc())

    for command in (
        CreateKeyspaceCmd(name="ks"),
        OpenKeyspaceCmd(name="ks"),
        KvBulkPutCmd.of("ks", PAIRS),
        CompactCmd("ks", sidx=(("tag", 0, 4, "u32"),)),
        WaitCompactionCmd("ks"),
    ):
        assert run(command).ok
    for cls, commands in SAMPLES.items():
        for command in commands:
            completion = run(command)
            unsupported = completion.status == "ReproError" and "unsupported" in str(
                completion.value
            )
            assert not unsupported, cls.__name__
    assert not run(KvCommand()).ok
