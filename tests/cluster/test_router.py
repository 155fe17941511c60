"""Cluster router facade: one logical store over N devices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import build_cluster_testbed
from repro.errors import (
    KeyNotFoundError,
    KeyspaceNotFoundError,
    KeyspaceStateError,
    SimulationError,
)
from repro.nvme.kv_commands import KvDeleteCmd, KvExistCmd, KvGetCmd
from repro.obs.audit import InvariantAuditor
from repro.workloads import SyntheticSpec, generate_pairs, load_phase


def _pairs(n: int, seed: int = 11):
    return generate_pairs(
        SyntheticSpec(n_pairs=n, key_bytes=16, value_bytes=32, seed=seed)
    )


def _run(tb, gen):
    out = {}

    def body():
        out["value"] = yield from gen

    tb.env.run(tb.env.process(body()))
    return out["value"]


@pytest.fixture(scope="module")
def loaded():
    """A 2-device cluster with one sealed keyspace, loaded via the router."""
    tb = build_cluster_testbed(n_devices=2, seed=3)
    pairs = _pairs(1024)
    load_phase(tb.env, tb.adapter, [("ks", pairs, tb.thread_ctx(0))])

    def ready():
        yield from tb.adapter.prepare_queries("ks", tb.thread_ctx(0))

    tb.env.run(tb.env.process(ready()))
    return tb, pairs


class TestFacade:
    def test_every_key_readable_through_router(self, loaded):
        tb, pairs = loaded

        def gets():
            ctx = tb.thread_ctx(1)
            for key, value in pairs[::31]:
                got = yield from tb.router.get("ks", key, ctx)
                assert got == value
            return True

        assert _run(tb, gets())

    def test_data_is_actually_sharded(self, loaded):
        tb, _pairs_ = loaded
        stored = [node.ssd.stats.bytes_written for node in tb.nodes]
        assert all(b > 0 for b in stored), stored

    def test_missing_key_raises_key_not_found(self, loaded):
        tb, _pairs_ = loaded

        def miss():
            with pytest.raises(KeyNotFoundError):
                yield from tb.router.get("ks", b"no-such-key", tb.thread_ctx(1))
            return True

        assert _run(tb, miss())

    def test_multi_get_merges_across_devices(self, loaded):
        tb, pairs = loaded
        keys = [k for k, _ in pairs[::13]]

        def multi():
            return (
                yield from tb.router.multi_get("ks", keys, tb.thread_ctx(1))
            )

        got = _run(tb, multi())
        expect = {k: v for k, v in pairs if k in set(keys)}
        assert got == expect

    def test_range_query_is_globally_sorted_and_exact(self, loaded):
        tb, pairs = loaded
        sorted_pairs = sorted(pairs)
        lo = sorted_pairs[100][0]
        hi = sorted_pairs[900][0]

        def scan():
            return (
                yield from tb.router.range_query("ks", lo, hi, tb.thread_ctx(1))
            )

        rows = _run(tb, scan())
        expect = [(k, v) for k, v in sorted_pairs if lo <= k < hi]
        assert rows == expect

    def test_submit_many_preserves_input_order(self, loaded):
        tb, pairs = loaded
        picks = list(np.random.default_rng(5).integers(0, len(pairs), 64))
        commands = [KvGetCmd(keyspace="ks", key=pairs[p][0]) for p in picks]

        def batch():
            return (
                yield from tb.router.submit_many(commands, tb.thread_ctx(1))
            )

        completions = _run(tb, batch())
        assert len(completions) == len(commands)
        for p, completion in zip(picks, completions):
            assert completion.ok
            assert completion.value == pairs[p][1]

    def test_submit_many_returns_errors_in_place(self, loaded):
        tb, pairs = loaded
        commands = [
            KvGetCmd(keyspace="ks", key=pairs[0][0]),
            KvGetCmd(keyspace="ks", key=b"absent-key"),
            KvExistCmd(keyspace="ks", key=pairs[1][0]),
        ]

        def batch():
            return (
                yield from tb.router.submit_many(commands, tb.thread_ctx(1))
            )

        completions = _run(tb, batch())
        assert completions[0].ok and completions[0].value == pairs[0][1]
        assert not completions[1].ok
        assert completions[2].ok

    def test_submit_many_coalesces_duplicate_reads(self, loaded):
        tb, pairs = loaded
        hot_key, hot_value = pairs[0]
        commands = [
            KvGetCmd(keyspace="ks", key=hot_key) for _ in range(32)
        ] + [KvGetCmd(keyspace="ks", key=pairs[1][0])]
        before = tb.router.counters["coalesced_reads"]
        submitted_before = sum(
            node.client.qp.introspect()["submitted"] for node in tb.nodes
        )

        def batch():
            return (
                yield from tb.router.submit_many(commands, tb.thread_ctx(1))
            )

        completions = _run(tb, batch())
        # every duplicate position still gets its value...
        assert len(completions) == 33
        assert all(c.ok and c.value == hot_value for c in completions[:32])
        assert completions[32].value == pairs[1][1]
        # ...but the hot key cost one device command, not 32
        assert tb.router.counters["coalesced_reads"] - before == 31
        submitted = sum(
            node.client.qp.introspect()["submitted"] for node in tb.nodes
        ) - submitted_before
        assert submitted == 2

    def test_list_keyspaces_hides_migration_fragments(self, loaded):
        tb, _pairs_ = loaded

        def names():
            return (yield from tb.router.list_keyspaces(tb.thread_ctx(1)))

        assert "ks" in _run(tb, names())

    def test_unknown_sidx_raises(self, loaded):
        tb, _pairs_ = loaded

        def bad():
            with pytest.raises(SimulationError):
                yield from tb.router.sidx_point_query(
                    "ks", "nope", b"x", tb.thread_ctx(1)
                )
            return True

        assert _run(tb, bad())


class TestReplicatedReads:
    def test_replicas_serve_reads(self):
        tb = build_cluster_testbed(n_devices=3, seed=9, replicas=2)
        pairs = _pairs(512, seed=9)
        load_phase(tb.env, tb.adapter, [("r", pairs, tb.thread_ctx(0))])

        def ready():
            yield from tb.adapter.prepare_queries("r", tb.thread_ctx(0))

        tb.env.run(tb.env.process(ready()))

        def gets():
            ctx = tb.thread_ctx(1)
            for key, value in pairs[::17]:
                got = yield from tb.router.get("r", key, ctx)
                assert got == value
            return True

        assert _run(tb, gets())

    def test_delete_removes_from_all_replicas(self):
        tb = build_cluster_testbed(n_devices=2, seed=13, replicas=2)

        def flow():
            ctx = tb.thread_ctx(0)
            yield from tb.router.create_keyspace("d", ctx)
            yield from tb.router.open_keyspace("d", ctx)
            yield from tb.router.put("d", b"k1", b"v1", ctx)
            yield from tb.router.bulk_delete("d", [b"k1"], ctx)
            yield from tb.router.fsync("d", ctx)
            yield from tb.router.compact("d", ctx)
            yield from tb.router.wait_for_device("d", ctx)
            with pytest.raises(KeyNotFoundError):
                yield from tb.router.get("d", b"k1", ctx)
            return True

        assert _run(tb, flow())


class TestRouterGuards:
    def test_ring_devices_must_be_subset_of_fleet(self):
        from repro.cluster import ClusterRouter, HashRing

        tb = build_cluster_testbed(n_devices=2, seed=0)
        with pytest.raises(SimulationError):
            ClusterRouter(
                [(node.name, node.client) for node in tb.nodes],
                ring=HashRing(("dev0", "dev1", "dev9")),
            )

    def test_submit_many_rejects_writes(self):
        tb = build_cluster_testbed(n_devices=2, seed=0)

        def bad():
            ctx = tb.thread_ctx(0)
            yield from tb.router.create_keyspace("ks", ctx)
            with pytest.raises(SimulationError):
                yield from tb.router.submit_many(
                    [KvDeleteCmd(keyspace="ks", key=b"k")], ctx
                )
            return True

        assert _run(tb, bad())

    @pytest.mark.parametrize(
        "bad, error",
        [
            (KvGetCmd(keyspace="nope", key=b"a"), KeyspaceNotFoundError),
            (KvDeleteCmd(keyspace="ks", key=b"a"), SimulationError),
        ],
    )
    def test_submit_many_checks_the_batch_before_posting(self, bad, error):
        """A bad command anywhere in a batch raises before the first post,
        so no earlier read is left posted and never reaped."""
        tb = build_cluster_testbed(n_devices=2, seed=0)

        def batch():
            ctx = tb.thread_ctx(0)
            yield from tb.router.create_keyspace("ks", ctx)
            reads = [KvGetCmd(keyspace="ks", key=b"%d" % i) for i in range(4)]
            with pytest.raises(error):
                yield from tb.router.submit_many([*reads, bad], ctx)
            return True

        assert _run(tb, batch())
        for dev, qp in tb.router.introspect()["qp"].items():
            assert qp["submitted"] == qp["reaped"], (dev, qp)
            assert qp["unreaped"] == 0, (dev, qp)


class TestEmptyWrites:
    """An empty router write is one empty message to the keyspace's first
    base shard, so it is checked like a one-pair write (the single-device
    client's rule)."""

    @staticmethod
    def _empty_write(tb, op, name):
        ctx = tb.thread_ctx(0)
        if op == "put":
            return tb.router.bulk_put(name, [], ctx)
        return tb.router.bulk_delete(name, [], ctx)

    @pytest.mark.parametrize("op", ["put", "delete"])
    def test_empty_write_on_a_compacted_keyspace_raises(self, op):
        tb = build_cluster_testbed(n_devices=2, seed=5)
        load_phase(tb.env, tb.adapter, [("ks", _pairs(64), tb.thread_ctx(0))])

        def ready():
            yield from tb.adapter.prepare_queries("ks", tb.thread_ctx(0))

        tb.env.run(tb.env.process(ready()))

        def write():
            with pytest.raises(KeyspaceStateError):
                yield from self._empty_write(tb, op, "ks")
            return True

        assert _run(tb, write())

    @pytest.mark.parametrize("op", ["put", "delete"])
    def test_empty_write_on_a_writable_keyspace_allocates_nothing(self, op):
        tb = build_cluster_testbed(n_devices=2, seed=5)

        def setup():
            ctx = tb.thread_ctx(0)
            yield from tb.router.create_keyspace("ks", ctx)
            yield from tb.router.open_keyspace("ks", ctx)
            return True

        assert _run(tb, setup())
        free = [node.device.zone_manager.free_zone_count for node in tb.nodes]
        submitted = [node.client.qp.introspect()["submitted"] for node in tb.nodes]

        def write():
            yield from self._empty_write(tb, op, "ks")
            return True

        assert _run(tb, write())
        sent = [
            node.client.qp.introspect()["submitted"] - before
            for node, before in zip(tb.nodes, submitted)
        ]
        assert sent == [1, 0]  # one message, to the first base shard
        for node, zones in zip(tb.nodes, free):
            ks = node.device.keyspaces["ks"]
            assert ks.state.name == "WRITABLE"
            assert ks.n_pairs == 0
            assert node.device.zone_manager.free_zone_count == zones
            report = InvariantAuditor(node.device).run("empty-router-write")
            assert report.ok, report.violations


class TestDeterminism:
    def test_identical_runs_share_the_clock(self):
        def one_run():
            tb = build_cluster_testbed(n_devices=2, seed=21)
            pairs = _pairs(512, seed=21)
            load_phase(tb.env, tb.adapter, [("ks", pairs, tb.thread_ctx(0))])

            def ready():
                yield from tb.adapter.prepare_queries("ks", tb.thread_ctx(0))

            tb.env.run(tb.env.process(ready()))

            def gets():
                ctx = tb.thread_ctx(1)
                for key, _ in pairs[::7]:
                    yield from tb.router.get("ks", key, ctx)

            tb.env.run(tb.env.process(gets()))
            return tb.env.now, [n.ssd.stats.bytes_written for n in tb.nodes]

        assert one_run() == one_run()

    def test_device_rng_streams_are_fleet_independent(self):
        """dev0's name-seeded stream draws identically at any fleet size."""
        from repro.sim.rng import RngRegistry

        draws = []
        for _fleet in (2, 8):
            registry = RngRegistry(21)
            # consume other devices' streams first, like a bigger fleet does
            for i in range(_fleet):
                registry.stream(f"dev{i}.zones")
            draws.append(
                registry.stream("dev0.zones").integers(0, 1 << 30, 16).tolist()
            )
        assert draws[0] == draws[1]
