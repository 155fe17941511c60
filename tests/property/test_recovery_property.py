"""Property test: a power cycle at an arbitrary point never loses
acknowledged, log-resident data, nor resurrects deleted keys or dropped
keyspaces — with two keyspaces, drops and re-creations (also while a
compaction runs, and issued twice at once), and zones small enough that the
metadata log checkpoints inside a run.  The device stays auditor-clean after
every step."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import KvCsdClient, KvCsdDevice
from repro.core.keyspace import KeyspaceState
from repro.errors import KeyNotFoundError
from repro.host import ThreadCtx
from repro.nvme import PcieLink
from repro.nvme.kv_commands import DeleteKeyspaceCmd
from repro.obs.audit import InvariantAuditor
from repro.sim import CpuPool, Environment
from repro.soc import SocBoard
from repro.ssd import SsdGeometry, ZnsSsd
from repro.units import KiB

KEYSPACES = ("a", "b")
keyspace = st.sampled_from(KEYSPACES)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keyspace, st.binary(min_size=1, max_size=6),
                  st.binary(max_size=20)),
        st.tuples(st.just("delete"), keyspace, st.binary(min_size=1, max_size=6),
                  st.just(b"")),
        # drop the keyspace; a later put or delete on it re-creates it.
        # drop_compacting kicks off a compaction and drops without waiting
        # for it; drop_twice posts two deletes at once.
        st.tuples(
            st.sampled_from(["drop", "drop_compacting", "drop_twice"]),
            keyspace,
            st.just(b""),
            st.just(b""),
        ),
    ),
    min_size=10,
    max_size=30,
)


def make_device(env, ssd, seed):
    # 1 KiB zones of one zone per cluster: the metadata log fills and
    # checkpoints every few table changes
    return KvCsdDevice(
        SocBoard(env, ssd),
        rng=np.random.default_rng(seed),
        cluster_zones=1,
        membuf_bytes=1024,
        block_bytes=512,
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops_strategy, st.booleans())
def test_power_cycle_preserves_log_resident_state(ops, compact_before_cut):
    env = Environment()
    ssd = ZnsSsd(
        env,
        geometry=SsdGeometry(
            n_channels=2, n_zones=64, zone_size=1 * KiB, logical_block_size=512
        ),
    )
    device = make_device(env, ssd, 0)
    client = KvCsdClient(device, PcieLink(env))
    ctx = ThreadCtx(cpu=CpuPool(env, 2), core=0)
    auditor = InvariantAuditor(device)
    #: live keyspace -> its contents
    model: dict[str, dict[bytes, bytes]] = {}

    def create(name):
        yield from client.create_keyspace(name, ctx)
        yield from client.open_keyspace(name, ctx)
        model[name] = {}

    def drop(op, name):
        if op == "drop":
            yield from client.delete_keyspace(name, ctx)
            return
        if op == "drop_compacting":
            # the device defers the delete until the job ends; the host
            # does not wait for it
            yield from client.compact(name, ctx)
        deletes = [DeleteKeyspaceCmd(name=name)] * (2 if op == "drop_twice" else 1)
        first, *others = yield from client.submit_many(deletes, ctx)
        assert first.ok, first.status
        assert [c.status for c in others] == ["KeyspaceStateError"] * len(others)

    def phase1():
        for name in KEYSPACES:
            yield from create(name)
        for op, name, key, value in ops:
            if op.startswith("drop"):
                if name in model:
                    yield from drop(op, name)
                    del model[name]
            else:
                if name not in model:
                    yield from create(name)
                if op == "put":
                    yield from client.put(name, key, value, ctx)
                    model[name][key] = value
                else:
                    yield from client.bulk_delete(name, [key], ctx)
                    model[name].pop(key, None)
            report = auditor.run(op)
            assert report.ok, (op, report.violations)
        for name in sorted(model):
            if compact_before_cut:
                yield from client.compact(name, ctx)
                yield from client.wait_for_device(name, ctx)
            else:
                # make acknowledged writes durable (the paper's explicit fsync)
                yield from client.fsync(name, ctx)

    env.run(env.process(phase1()))

    # --- power cycle ---------------------------------------------------------
    device2 = make_device(env, ssd, 1)
    client2 = KvCsdClient(device2, PcieLink(env))

    def phase2():
        yield from device2.recover(ctx)
        # dropped keyspaces stay dead, live ones all come back
        assert device2.list_keyspaces() == sorted(model)
        report = InvariantAuditor(device2).run("mount")
        assert report.ok, report.violations
        for name, contents in sorted(model.items()):
            if device2.keyspaces[name].state is KeyspaceState.WRITABLE:
                yield from client2.compact(name, ctx)
                yield from client2.wait_for_device(name, ctx)
            for key, expected in contents.items():
                got = yield from client2.get(name, key, ctx)
                assert got == expected, (name, key)
            try:
                yield from client2.get(name, b"\xfe" * 7, ctx)
                raise AssertionError("ghost key present")
            except KeyNotFoundError:
                pass
            rows = yield from client2.range_query(name, b"", b"\xff" * 8, ctx)
            assert rows == sorted(contents.items())

    env.run(env.process(phase2()))
