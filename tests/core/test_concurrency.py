"""Concurrency behaviour of the device: latency hiding and deferred deletes."""

import pytest

from repro.core import SidxConfig
from repro.core.keyspace import KeyspaceState
from repro.nvme.kv_commands import DeleteKeyspaceCmd
from repro.obs.audit import InvariantAuditor
from repro.ssd.faults import FaultPlan
from repro.units import KiB

from tests.core.conftest import CsdTestbed, make_pairs


def assert_all_zones_free_and_audit_clean(tb):
    free = tb.device.zone_manager.free_zone_count
    assert free == tb.ssd.geometry.n_zones - len(tb.device.metalog.zone_ids)
    report = InvariantAuditor(tb.device).run("test")
    assert report.ok, report.violations


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


def test_second_delete_in_flight_fails_typed_and_frees_nothing():
    """Two deletes of one compacting keyspace: the first waits for the job
    and frees the zones, the second finds the delete in flight and fails
    without releasing anything (freeing the zones twice would put duplicate
    ids in the free pool)."""
    tb = CsdTestbed()
    pairs = make_pairs(20_000)

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        return (
            yield from tb.client.submit_many(
                [DeleteKeyspaceCmd(name="ks"), DeleteKeyspaceCmd(name="ks")], tb.ctx
            )
        )

    first, second = tb.run(proc())
    assert first.ok
    assert second.status == "KeyspaceStateError"
    assert "ks" not in tb.device.keyspaces
    assert_all_zones_free_and_audit_clean(tb)


def test_delete_waits_for_the_jobs_a_job_spawns():
    """Values over the sort budget make the compaction spawn a separate
    index-scan job after the delete has started waiting; the delete waits
    for that one too, so no job writes zones of a deleted keyspace."""
    tb = CsdTestbed(sort_budget=64 * KiB)
    pairs = [(b"k%07d" % i, (i % 97).to_bytes(4, "little") + bytes(60)) for i in range(4000)]
    config = SidxConfig("tag", value_offset=0, width=4, dtype="u32")

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx, secondary_indexes=[config])
        yield from tb.client.delete_keyspace("ks", tb.ctx)

    tb.run(proc())
    tb.env.run()  # anything still running in the background finishes
    assert tb.device.stats.counter("sidx_builds").value == 1
    assert "ks" not in tb.device.keyspaces
    assert_all_zones_free_and_audit_clean(tb)


def test_deleted_keyspace_job_error_does_not_reach_its_successor():
    """A compaction fails and its keyspace is deleted before anyone waits on
    it; a new keyspace of the same name does not inherit the error."""
    tb = CsdTestbed()
    pairs = make_pairs(5000)

    def load(name):
        yield from tb.client.create_keyspace(name, tb.ctx)
        yield from tb.client.open_keyspace(name, tb.ctx)
        yield from tb.client.bulk_put(name, pairs, tb.ctx)
        yield from tb.client.fsync(name, tb.ctx)

    tb.run(load("ks"))
    # the fault skips the compact command's metadata append and lands on
    # the job's first write
    tb.ssd.faults = FaultPlan(fail_writes=1, after_writes=1)

    def fail_then_delete():
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.delete_keyspace("ks", tb.ctx)

    tb.run(fail_then_delete())
    assert tb.device.stats.counter("compaction_failures").value == 1
    tb.ssd.faults = None

    def successor():
        yield from load("ks")
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        return (yield from tb.client.get("ks", pairs[77][0], tb.ctx))

    assert tb.run(successor()) == pairs[77][1]


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
