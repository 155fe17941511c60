"""The async command path: legacy equivalence, batching, and backpressure.

The pre-refactor client called ``KvCsdDevice`` operation methods directly,
hand-interleaving link transfers around each call.  The refactored client
builds a :class:`KvCommand` per operation and routes it through the
:class:`KvCommandDispatcher` via an async :class:`KvQueuePair`.

``_LegacyDirectClient`` below is a verbatim replica of the deleted
direct-method path, kept **only in this test** as the golden reference:
with one command in flight the command path must be byte- and
virtual-time-identical to it.  Nothing in ``src/`` may use this shape any
more — ``test_no_direct_device_operation_callers`` enforces that.
"""

import re
from pathlib import Path

import pytest

from repro.core import KvCsdClient, SidxConfig
from repro.core.costs import ClientCostModel
from repro.core.wire import pair_wire_size, split_into_messages
from repro.errors import KeyNotFoundError
from repro.nvme.kv_commands import KvGetCmd
from repro.obs.audit import check_queue_pair_accounting
from repro.obs.trace import trace_span

from tests.core.conftest import CsdTestbed, make_pairs

COMMAND_WIRE_BYTES = 64


class _LegacyDirectClient:
    """Verbatim replica of the pre-refactor direct-method client."""

    def __init__(self, device, link, costs=None, bulk_message_bytes=128 * 1024):
        self.device = device
        self.link = link
        self.costs = costs or ClientCostModel()
        self.bulk_message_bytes = bulk_message_bytes
        self.env = device.env

    def _cmd(self, op, **args):
        return trace_span(self.env, f"cmd.{op}", "command", **args)

    def _send_command(self, payload_bytes, ctx):
        yield from ctx.execute(
            self.costs.per_command + self.costs.pack_per_byte * payload_bytes
        )
        yield from self.link.send(COMMAND_WIRE_BYTES + payload_bytes)

    def _receive_result(self, result_bytes, ctx):
        yield from self.link.receive(result_bytes)
        yield from ctx.execute(self.costs.unpack_per_byte * result_bytes)

    def create_keyspace(self, name, ctx):
        with self._cmd("create_keyspace", keyspace=name):
            yield from self._send_command(len(name), ctx)
            yield from self.device.create_keyspace(name, ctx)
            yield from self._receive_result(COMMAND_WIRE_BYTES, ctx)

    def open_keyspace(self, name, ctx):
        with self._cmd("open_keyspace", keyspace=name):
            yield from self._send_command(len(name), ctx)
            yield from self.device.open_keyspace(name, ctx)
            yield from self._receive_result(COMMAND_WIRE_BYTES, ctx)

    def delete_keyspace(self, name, ctx):
        with self._cmd("delete_keyspace", keyspace=name):
            yield from self._send_command(len(name), ctx)
            yield from self.device.delete_keyspace(name, ctx)
            yield from self._receive_result(COMMAND_WIRE_BYTES, ctx)

    def list_keyspaces(self, ctx):
        with self._cmd("list_keyspaces"):
            yield from self._send_command(0, ctx)
            names = self.device.list_keyspaces()
            yield from self._receive_result(sum(len(n) for n in names) + 16, ctx)
        return names

    def keyspace_stat(self, name, ctx):
        with self._cmd("keyspace_stat", keyspace=name):
            yield from self._send_command(len(name), ctx)
            stat = self.device.keyspace_stat(name)
            yield from self._receive_result(COMMAND_WIRE_BYTES, ctx)
        return stat

    def bulk_put(self, keyspace, pairs, ctx):
        with self._cmd("bulk_put", keyspace=keyspace, pairs=len(pairs)):
            for message in split_into_messages(list(pairs), self.bulk_message_bytes):
                message_bytes = 4 + sum(pair_wire_size(k, v) for k, v in message)
                yield from self._send_command(message_bytes, ctx)
                keys = [k for k, _v in message]
                values = [v for _k, v in message]
                yield from self.device.bulk_put(keyspace, keys, values, message_bytes, ctx)
                yield from self._receive_result(COMMAND_WIRE_BYTES, ctx)

    def bulk_delete(self, keyspace, keys, ctx):
        with self._cmd("bulk_delete", keyspace=keyspace, keys=len(keys)):
            payload = sum(len(k) + 2 for k in keys)
            yield from self._send_command(payload, ctx)
            yield from self.device.bulk_delete(keyspace, list(keys), ctx)
            yield from self._receive_result(COMMAND_WIRE_BYTES, ctx)

    def fsync(self, keyspace, ctx):
        with self._cmd("fsync", keyspace=keyspace):
            yield from self._send_command(len(keyspace), ctx)
            yield from self.device.fsync(keyspace, ctx)
            yield from self._receive_result(COMMAND_WIRE_BYTES, ctx)

    def compact(self, keyspace, ctx, secondary_indexes=()):
        with self._cmd("compact", keyspace=keyspace, sidx=len(secondary_indexes)):
            yield from self._send_command(
                len(keyspace) + 24 * len(secondary_indexes), ctx
            )
            yield from self.device.compact(
                keyspace, ctx, sidx_configs=tuple(secondary_indexes)
            )
            yield from self._receive_result(COMMAND_WIRE_BYTES, ctx)

    def build_secondary_index(
        self, keyspace, index_name, value_offset, width, dtype="bytes", ctx=None
    ):
        config = SidxConfig(
            name=index_name, value_offset=value_offset, width=width, dtype=dtype
        )
        with self._cmd("build_sidx", keyspace=keyspace, index=index_name):
            yield from self._send_command(len(keyspace) + len(index_name) + 16, ctx)
            yield from self.device.build_sidx(keyspace, config, ctx)
            yield from self._receive_result(COMMAND_WIRE_BYTES, ctx)

    def wait_for_device(self, keyspace, ctx):
        with self._cmd("wait_for_device", keyspace=keyspace):
            yield from self._send_command(len(keyspace), ctx)
            yield from self.device.wait_for_jobs(keyspace)
            yield from self._receive_result(COMMAND_WIRE_BYTES, ctx)

    def get(self, keyspace, key, ctx):
        with self._cmd("get", keyspace=keyspace):
            yield from self._send_command(len(key), ctx)
            value = yield from self.device.point_query(keyspace, key, ctx)
            yield from self._receive_result(len(value), ctx)
        return value

    def multi_get(self, keyspace, keys, ctx):
        with self._cmd("multi_get", keyspace=keyspace, keys=len(keys)):
            payload = sum(len(k) + 2 for k in keys)
            yield from self._send_command(payload, ctx)
            result = yield from self.device.multi_point_query(keyspace, list(keys), ctx)
            result_bytes = sum(len(k) + len(v) for k, v in result.items())
            yield from self._receive_result(result_bytes + COMMAND_WIRE_BYTES, ctx)
        return result

    def range_query(self, keyspace, lo, hi, ctx):
        with self._cmd("range_query", keyspace=keyspace):
            yield from self._send_command(len(lo) + len(hi), ctx)
            result = yield from self.device.range_query(keyspace, lo, hi, ctx)
            result_bytes = sum(len(k) + len(v) for k, v in result)
            yield from self._receive_result(result_bytes + COMMAND_WIRE_BYTES, ctx)
        return result

    def sidx_range_query(self, keyspace, index_name, lo_raw, hi_raw, ctx):
        with self._cmd("sidx_range_query", keyspace=keyspace, index=index_name):
            yield from self._send_command(
                len(lo_raw) + len(hi_raw) + len(index_name), ctx
            )
            result = yield from self.device.sidx_range_query(
                keyspace, index_name, lo_raw, hi_raw, ctx
            )
            result_bytes = sum(len(k) + len(v) for k, v in result)
            yield from self._receive_result(result_bytes + COMMAND_WIRE_BYTES, ctx)
        return result

    def sidx_point_query(self, keyspace, index_name, skey_raw, ctx):
        with self._cmd("sidx_point_query", keyspace=keyspace, index=index_name):
            yield from self._send_command(len(skey_raw) + len(index_name), ctx)
            result = yield from self.device.sidx_point_query(
                keyspace, index_name, skey_raw, ctx
            )
            result_bytes = sum(len(k) + len(v) for k, v in result)
            yield from self._receive_result(result_bytes + COMMAND_WIRE_BYTES, ctx)
        return result


def _mixed_workload(tb, client):
    """Every client operation, with a checkpoint after each phase.

    Returns (checkpoints, results): checkpoints are
    ``(label, env.now, bytes_tx, bytes_rx)`` tuples, results the collected
    operation return values.
    """
    import struct

    pairs = []
    for i in range(3000):
        pairs.append((f"k-{i:012d}".encode(), struct.pack("<I", i % 37) + bytes(28)))
    sidx = SidxConfig("tag", value_offset=0, width=4, dtype="u32")
    checkpoints = []
    results = []

    def mark(label):
        checkpoints.append((label, tb.env.now, tb.link.bytes_tx, tb.link.bytes_rx))

    def workload():
        ctx = tb.ctx
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        mark("open")
        yield from client.bulk_put("ks", pairs, ctx)
        mark("bulk_put")
        yield from client.fsync("ks", ctx)
        mark("fsync")
        yield from client.bulk_delete("ks", [k for k, _ in pairs[:100]], ctx)
        mark("bulk_delete")
        yield from client.compact("ks", ctx, secondary_indexes=[sidx])
        yield from client.wait_for_device("ks", ctx)
        mark("compact")
        results.append((yield from client.list_keyspaces(ctx)))
        stat = yield from client.keyspace_stat("ks", ctx)
        results.append((stat["state"], stat["secondary_indexes"]))
        mark("stat")
        for key, _ in pairs[200:240]:
            results.append((yield from client.get("ks", key, ctx)))
        mark("get")
        results.append(
            (yield from client.multi_get("ks", [k for k, _ in pairs[500:530]], ctx))
        )
        mark("multi_get")
        results.append(
            (yield from client.range_query("ks", pairs[600][0], pairs[640][0], ctx))
        )
        mark("range")
        results.append(
            sorted(
                (
                    yield from client.sidx_range_query(
                        "ks", "tag", struct.pack("<I", 5), struct.pack("<I", 7), ctx
                    )
                )
            )
        )
        results.append(
            sorted(
                (
                    yield from client.sidx_point_query(
                        "ks", "tag", struct.pack("<I", 11), ctx
                    )
                )
            )
        )
        mark("sidx")
        yield from client.create_keyspace("scratch", ctx)
        yield from client.delete_keyspace("scratch", ctx)
        mark("lifecycle")

    tb.run(workload())
    return checkpoints, results


def test_command_path_equivalent_to_legacy_direct_path():
    """The tentpole's regression guarantee: at queue depth 1 the dispatcher
    path reproduces the deleted direct-method path exactly — same results,
    same virtual-clock instants, same bytes on the wire, same media I/O."""
    tb_new = CsdTestbed()
    new_cp, new_results = _mixed_workload(tb_new, tb_new.client)

    tb_old = CsdTestbed()
    legacy = _LegacyDirectClient(tb_old.device, tb_old.link)
    old_cp, old_results = _mixed_workload(tb_old, legacy)

    assert new_results == old_results
    # Exact equality, not approx: the refactor must not move a single event.
    assert new_cp == old_cp
    assert tb_new.ssd.stats.bytes_read == tb_old.ssd.stats.bytes_read
    assert tb_new.ssd.stats.bytes_written == tb_old.ssd.stats.bytes_written
    assert (
        tb_new.device.stats.counter_values()
        == tb_old.device.stats.counter_values()
    )


def test_no_direct_device_operation_callers():
    """Outside the dispatcher, no production code invokes device operation
    methods — the command path is the only path."""
    ops = (
        "create_keyspace|open_keyspace|delete_keyspace|list_keyspaces"
        "|keyspace_stat|bulk_put|bulk_delete|fsync|compact|build_sidx"
        "|wait_for_jobs|point_query|multi_point_query|range_query"
        "|sidx_range_query|sidx_point_query"
    )
    pattern = re.compile(rf"\bdevice\.({ops})\(")
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "dispatch.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path.relative_to(src)}:{lineno}: {line.strip()}")
    assert offenders == []


# -- async API -----------------------------------------------------------------
def _loaded_testbed(**kwargs):
    tb = CsdTestbed(**kwargs)
    pairs = make_pairs(2000)

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(setup())
    return tb, pairs


def test_get_async_returns_ticket_and_value():
    tb, pairs = _loaded_testbed()

    def proc():
        tickets = []
        for key, _ in pairs[:8]:
            tickets.append((yield from tb.client.get_async("ks", key, tb.ctx)))
        values = []
        for ticket in tickets:
            completion = yield from tb.client.wait(ticket, tb.ctx)
            values.append(completion.value)
        return values

    values = tb.run(proc())
    assert values == [v for _, v in pairs[:8]]
    qp = tb.client.qp
    assert qp.inflight == 0
    assert qp.reaped == qp.completed


def test_put_async_then_wait_persists():
    tb = CsdTestbed()

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        tickets = []
        for i in range(16):
            ticket = yield from tb.client.put_async(
                "ks", b"key-%04d" % i, b"v" * 32, tb.ctx
            )
            tickets.append(ticket)
        for ticket in tickets:
            yield from tb.client.wait(ticket, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        return (yield from tb.client.get("ks", b"key-0007", tb.ctx))

    assert tb.run(proc()) == b"v" * 32


def test_submit_many_preserves_order():
    tb, pairs = _loaded_testbed(query_workers=2)
    keys = [k for k, _ in pairs[100:120]]

    def proc():
        commands = [KvGetCmd(keyspace="ks", key=k) for k in keys]
        return (yield from tb.client.submit_many(commands, tb.ctx))

    completions = tb.run(proc())
    assert [c.value for c in completions] == [v for k, v in pairs[100:120]]
    assert all(c.ok for c in completions)


def test_pipelined_gets_complete_faster_than_serial():
    """QD>1 from one thread overlaps device work: the whole point of the
    async path."""

    def run_gets(pipelined):
        tb, pairs = _loaded_testbed(query_workers=4)
        keys = [k for k, _ in pairs[:32]]
        t0 = tb.env.now

        def serial():
            for key in keys:
                yield from tb.client.get("ks", key, tb.ctx)

        def batched():
            commands = [KvGetCmd(keyspace="ks", key=k) for k in keys]
            yield from tb.client.submit_many(commands, tb.ctx)

        tb.run(batched() if pipelined else serial())
        return tb.env.now - t0

    assert run_gets(pipelined=True) < run_gets(pipelined=False)


# -- error isolation (satellite: batch error-completion semantics) -------------
def test_mid_batch_error_does_not_poison_queue_pair():
    tb, pairs = _loaded_testbed()
    keys = [pairs[0][0], b"no-such-key-0000", pairs[1][0], pairs[2][0]]

    def proc():
        commands = [KvGetCmd(keyspace="ks", key=k) for k in keys]
        completions = yield from tb.client.submit_many(commands, tb.ctx)
        # the queue pair survives: a later synchronous command still works
        follow_up = yield from tb.client.get("ks", pairs[3][0], tb.ctx)
        return completions, follow_up

    completions, follow_up = tb.run(proc())
    assert [c.ok for c in completions] == [True, False, True, True]
    assert completions[1].status == "KeyNotFoundError"
    assert isinstance(completions[1].error, KeyNotFoundError)
    assert completions[0].value == pairs[0][1]
    assert completions[2].value == pairs[1][1]
    assert completions[3].value == pairs[2][1]
    assert follow_up == pairs[3][1]
    qp = tb.client.qp
    assert qp.inflight == 0
    assert qp.submitted == qp.completed
    assert check_queue_pair_accounting(qp) == []


def test_sync_error_still_raises_original_exception():
    tb, _pairs = _loaded_testbed()

    def proc():
        yield from tb.client.get("ks", b"definitely-missing", tb.ctx)

    with pytest.raises(KeyNotFoundError):
        tb.run(proc())
    # the error ticket was reaped; accounting stays consistent
    assert check_queue_pair_accounting(tb.client.qp) == []


# -- backpressure (satellite: queue depth limits) ------------------------------
def test_post_blocks_at_full_depth():
    tb, pairs = _loaded_testbed()
    small = KvCsdClient(tb.device, tb.link, queue_depth=2)
    depth_seen = []

    def proc():
        tickets = []
        for key, _ in pairs[:6]:
            ticket = yield from small.get_async("ks", key, tb.ctx)
            depth_seen.append(small.qp.inflight)
            tickets.append(ticket)
        for ticket in tickets:
            yield from small.wait(ticket, tb.ctx)

    tb.run(proc())
    assert max(depth_seen) <= 2
    assert small.qp.submitted == 6
    assert small.qp.completed == 6
    assert check_queue_pair_accounting(small.qp) == []


def test_try_post_returns_none_when_full():
    tb, pairs = _loaded_testbed()
    small = KvCsdClient(tb.device, tb.link, queue_depth=1)

    def proc():
        first = yield from small.qp.try_post(
            KvGetCmd(keyspace="ks", key=pairs[0][0]), tb.ctx
        )
        assert first is not None
        # queue full: try_post must refuse without blocking
        second = yield from small.qp.try_post(
            KvGetCmd(keyspace="ks", key=pairs[1][0]), tb.ctx
        )
        assert second is None
        yield from small.qp.wait(first, tb.ctx)
        third = yield from small.qp.try_post(
            KvGetCmd(keyspace="ks", key=pairs[1][0]), tb.ctx
        )
        assert third is not None
        completion = yield from small.qp.wait(third, tb.ctx)
        return completion.value

    assert tb.run(proc()) == pairs[1][1]


def test_poll_reaps_ready_completions_without_blocking():
    tb, pairs = _loaded_testbed()
    base = tb.client.qp.reaped

    def proc():
        tickets = []
        for key, _ in pairs[:4]:
            tickets.append((yield from tb.client.get_async("ks", key, tb.ctx)))
        # nothing completed yet at the instant of the last post
        reaped = []
        while len(reaped) < 4:
            reaped.extend(tb.client.qp.poll())
            if len(reaped) < 4:
                yield tickets[len(reaped)].event
        return reaped

    reaped = tb.run(proc())
    assert len(reaped) == 4
    assert len({t.cid for t in reaped}) == 4  # each reported exactly once
    assert all(t.completion.ok for t in reaped)
    qp = tb.client.qp
    assert qp.reaped - base == 4
    assert qp.reaped == qp.completed
    assert qp.unreaped == 0


def test_auditor_covers_host_queue_pair_accounting():
    tb, _pairs = _loaded_testbed()
    from repro.obs.audit import InvariantAuditor

    auditor = InvariantAuditor(tb.device)
    report = auditor.run("test")
    assert report.ok
    # corrupt the host QP's counters: the queue-sanity invariant must trip
    tb.client.qp.submitted += 3
    report = auditor.run("test")
    assert not report.ok
    assert any(
        v.invariant == "nvme_queue_sanity" and "host-kv" in v.detail
        for v in report.violations
    )
