"""Concurrency behaviour of the device: latency hiding and deferred deletes."""

import pytest

from repro.core.keyspace import KeyspaceState

from tests.core.conftest import CsdTestbed, make_pairs


def test_queries_on_one_keyspace_while_another_compacts():
    """The whole point of device-side async compaction: foreground work on
    keyspace A proceeds while keyspace B compacts in the background."""
    tb = CsdTestbed()
    pairs_a = make_pairs(1000, prefix="a")
    pairs_b = make_pairs(20_000, prefix="b")  # long compaction

    def setup():
        for name, pairs in (("a", pairs_a), ("b", pairs_b)):
            yield from tb.client.create_keyspace(name, tb.ctx)
            yield from tb.client.open_keyspace(name, tb.ctx)
            yield from tb.client.bulk_put(name, pairs, tb.ctx)
        yield from tb.client.compact("a", tb.ctx)
        yield from tb.client.wait_for_device("a", tb.ctx)

    tb.run(setup())

    results = {}

    def queries_on_a():
        yield from tb.client.compact("b", tb.ctx)  # B compacts in background
        t0 = tb.env.now
        for key, _ in pairs_a[::100]:
            yield from tb.client.get("a", key, tb.ctx)
        results["query_time"] = tb.env.now - t0
        results["b_state_during"] = tb.device.keyspaces["b"].state
        yield from tb.client.wait_for_device("b", tb.ctx)
        results["b_state_after"] = tb.device.keyspaces["b"].state

    tb.run(queries_on_a())
    assert results["b_state_during"] == KeyspaceState.COMPACTING
    assert results["b_state_after"] == KeyspaceState.COMPACTED

    # Baseline: the same queries with no concurrent compaction.
    tb2 = CsdTestbed()

    def setup2():
        yield from tb2.client.create_keyspace("a", tb2.ctx)
        yield from tb2.client.open_keyspace("a", tb2.ctx)
        yield from tb2.client.bulk_put("a", pairs_a, tb2.ctx)
        yield from tb2.client.compact("a", tb2.ctx)
        yield from tb2.client.wait_for_device("a", tb2.ctx)
        t0 = tb2.env.now
        for key, _ in pairs_a[::100]:
            yield from tb2.client.get("a", key, tb2.ctx)
        results["baseline"] = tb2.env.now - t0

    tb2.run(setup2())
    # Queries contend with the compaction for SoC cores/channels but are
    # not *blocked* by it: within a small multiple of the baseline.
    assert results["query_time"] < 5 * results["baseline"]


def test_delete_keyspace_during_compaction_is_deferred():
    tb = CsdTestbed()
    pairs = make_pairs(10_000)

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        free_before = tb.device.zone_manager.free_zone_count
        yield from tb.client.compact("ks", tb.ctx)
        assert tb.device.keyspaces["ks"].state == KeyspaceState.COMPACTING
        # delete while the compaction job is still running
        yield from tb.client.delete_keyspace("ks", tb.ctx)
        return free_before

    tb.run(proc())
    assert "ks" not in tb.device.keyspaces
    # every zone came back (logs, sorted data, indexes, temp)
    total_zones = tb.device.zone_manager.free_zone_count
    assert total_zones == tb.ssd.geometry.n_zones - len(tb.device.metalog.zone_ids)


def test_many_keyspaces_compact_concurrently():
    tb = CsdTestbed(n_zones=128)
    n_ks = 8
    per = 2000

    def load():
        for i in range(n_ks):
            name = f"ks-{i}"
            yield from tb.client.create_keyspace(name, tb.ctx)
            yield from tb.client.open_keyspace(name, tb.ctx)
            yield from tb.client.bulk_put(
                name, make_pairs(per, key_bytes=24, prefix=name), tb.ctx
            )

    tb.run(load())

    def compact_all():
        t0 = tb.env.now
        for i in range(n_ks):
            yield from tb.client.compact(f"ks-{i}", tb.ctx)
        kick_time = tb.env.now - t0
        for i in range(n_ks):
            yield from tb.client.wait_for_device(f"ks-{i}", tb.ctx)
        return kick_time, tb.env.now - t0

    kick_time, total = tb.run(compact_all())
    durations = [
        tb.device.job_durations[(f"ks-{i}", "compaction")] for i in range(n_ks)
    ]
    # Kicks (final membuf flush + dispatch) cost far less than the sort work
    # they trigger, and the compactions overlap rather than serialise.
    assert kick_time < 0.5 * sum(durations)
    assert total < sum(durations)

    def verify():
        for i in (0, n_ks - 1):
            name = f"ks-{i}"
            pairs = make_pairs(per, key_bytes=24, prefix=name)
            value = yield from tb.client.get(name, pairs[77][0], tb.ctx)
            assert value == pairs[77][1]

    tb.run(verify())


def test_write_lock_serializes_shared_keyspace_ingestion():
    """Two threads into one keyspace take ~as long as one thread with the
    same total data (the device is the bottleneck, per Figure 7a)."""
    def run(n_threads):
        tb = CsdTestbed()
        total = 4096
        per = total // n_threads

        def setup():
            yield from tb.client.create_keyspace("ks", tb.ctx)
            yield from tb.client.open_keyspace("ks", tb.ctx)

        tb.run(setup())
        t0 = tb.env.now

        def writer(tid):
            pairs = make_pairs(per, prefix=f"t{tid}")
            yield from tb.client.bulk_put("ks", pairs, tb.ctx.pinned(tid % 4))

        procs = [tb.env.process(writer(t)) for t in range(n_threads)]
        tb.env.run()
        return tb.env.now - t0

    t1 = run(1)
    t4 = run(4)
    assert t4 > 0.7 * t1  # no 4x speedup: ingestion serialises in the device
