"""Unit tests for zone clusters and the zone manager."""

import numpy as np
import pytest

from repro.core.zone_manager import ZoneCluster, ZoneManager
from repro.errors import OutOfSpaceError, StorageError, ZoneFullError
from repro.sim import Environment
from repro.ssd import SsdGeometry, ZnsSsd
from repro.units import KiB, MiB


def make_zm(env, n_channels=4, n_zones=16, zone_size=256 * KiB, cluster_zones=4, seed=0):
    ssd = ZnsSsd(
        env,
        geometry=SsdGeometry(
            n_channels=n_channels, n_zones=n_zones, zone_size=zone_size
        ),
    )
    return ZoneManager(ssd, np.random.default_rng(seed), cluster_zones), ssd


def run(env, gen):
    return env.run(env.process(gen))


def test_allocate_spreads_across_channels():
    env = Environment()
    zm, ssd = make_zm(env)
    cluster = zm.allocate_cluster(4)
    channels = {ssd.geometry.channel_of_zone(z) for z in cluster.zone_ids}
    assert len(channels) == 4  # one zone per channel


def test_allocate_reduces_free_pool():
    env = Environment()
    zm, _ = make_zm(env)
    before = zm.free_zone_count
    zm.allocate_cluster(4)
    assert zm.free_zone_count == before - 4
    assert zm.allocated_clusters == 1


def test_allocate_exhaustion():
    env = Environment()
    zm, _ = make_zm(env, n_zones=8)
    zm.allocate_cluster(8)
    with pytest.raises(OutOfSpaceError):
        zm.allocate_cluster(1)


def test_release_resets_and_returns_zones():
    env = Environment()
    zm, ssd = make_zm(env)
    cluster = zm.allocate_cluster(4)

    def proc():
        yield from cluster.append_group(b"data")
        yield from zm.release_cluster(cluster)

    run(env, proc())
    assert zm.free_zone_count == 16
    assert zm.allocated_clusters == 0
    assert all(ssd.zone(z).write_pointer == 0 for z in cluster.zone_ids)


def test_append_group_rotates_and_roundtrips():
    env = Environment()
    zm, ssd = make_zm(env)
    cluster = zm.allocate_cluster(4)

    def proc():
        ptrs = []
        for i in range(8):
            ptr = yield from cluster.append_group(f"group-{i}".encode())
            ptrs.append(ptr)
        datas = []
        for i, ptr in enumerate(ptrs):
            data = yield from cluster.read(ptr)
            datas.append(data)
        return ptrs, datas

    ptrs, datas = run(env, proc())
    assert datas == [f"group-{i}".encode() for i in range(8)]
    # 8 groups over 4 zones: each zone took 2 (round-robin)
    zones_used = [z for z, _o, _l in ptrs]
    assert all(zones_used.count(z) == 2 for z in set(zones_used))


def test_rotation_varies_with_rng():
    env = Environment()
    zm_a, _ = make_zm(env, seed=1)
    env2 = Environment()
    zm_b, _ = make_zm(env2, seed=2)
    rotations_a = [zm_a.allocate_cluster(4).rotation for _ in range(4)]
    rotations_b = [zm_b.allocate_cluster(4).rotation for _ in range(4)]
    # different seeds should eventually produce different rotations
    assert rotations_a != rotations_b or len(set(rotations_a)) > 1


def test_append_groups_batch_concurrent_and_correct():
    env = Environment()
    zm, ssd = make_zm(env)
    cluster = zm.allocate_cluster(4)
    groups = [bytes([i]) * 1000 for i in range(8)]

    def proc():
        t0 = env.now
        ptrs = yield from cluster.append_groups(groups)
        append_time = env.now - t0
        datas = []
        for ptr in ptrs:
            data = yield from cluster.read(ptr)
            datas.append(data)
        return ptrs, datas, append_time

    ptrs, datas, append_time = run(env, proc())
    assert datas == groups
    # Batch appends across 4 channels finish faster than 8 serial appends.
    serial_estimate = 8 * ssd.latency.write_time(1000)
    assert append_time < serial_estimate


def test_append_groups_overcommit_rejected_before_io():
    env = Environment()
    zm, ssd = make_zm(env, zone_size=4 * KiB)
    cluster = zm.allocate_cluster(2)
    # two groups that individually fit one zone but not together, plus more
    groups = [b"x" * (3 * KiB)] * 4

    def proc():
        yield from cluster.append_groups(groups)

    env.process(proc())
    with pytest.raises(ZoneFullError):
        env.run()
    # reservation failed before any append: zones untouched
    assert all(ssd.zone(z).write_pointer in (0,) for z in cluster.zone_ids)


def test_append_group_skips_full_zones():
    env = Environment()
    zm, ssd = make_zm(env, zone_size=4 * KiB)
    cluster = zm.allocate_cluster(2)

    def proc():
        ptrs = []
        # 2 groups fill both zones almost completely
        for _ in range(2):
            ptr = yield from cluster.append_group(b"x" * (3 * KiB))
            ptrs.append(ptr)
        # a small group still fits (1 KiB left in each zone)
        ptr = yield from cluster.append_group(b"y" * 512)
        ptrs.append(ptr)
        return ptrs

    ptrs = run(env, proc())
    assert len({z for z, _, _ in ptrs[:2]}) == 2


def test_cluster_capacity_accounting():
    env = Environment()
    zm, _ = make_zm(env, zone_size=4 * KiB)
    cluster = zm.allocate_cluster(2)
    assert cluster.remaining() == 8 * KiB
    assert cluster.max_group() == 4 * KiB

    def proc():
        yield from cluster.append_group(b"z" * 1024)

    run(env, proc())
    assert cluster.remaining() == 7 * KiB
    assert cluster.bytes_stored() == 1024


def test_read_all_returns_zone_contents():
    env = Environment()
    zm, _ = make_zm(env)
    cluster = zm.allocate_cluster(4)

    def proc():
        yield from cluster.append_group(b"alpha")
        yield from cluster.append_group(b"beta")
        contents = yield from cluster.read_all()
        return contents

    contents = run(env, proc())
    blobs = sorted(v for v in contents.values() if v)
    assert blobs == [b"alpha", b"beta"]
    assert len(contents) == 4  # empty zones present with empty bytes


def test_empty_cluster_rejected():
    env = Environment()
    zm, ssd = make_zm(env)
    with pytest.raises(StorageError):
        ZoneCluster(ssd, [], rotation=0)


def test_cluster_size_validation():
    env = Environment()
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=4, zone_size=MiB))
    with pytest.raises(StorageError):
        ZoneManager(ssd, np.random.default_rng(0), cluster_zones=0)


def test_reconcile_free_list_preserves_pool_order():
    env = Environment()
    zm, _ = make_zm(env)
    cluster = zm.allocate_cluster(4)
    order_before = list(zm._free)
    reclaimed = zm.reconcile_free_list(set(cluster.zone_ids))
    assert reclaimed == []
    assert zm._free == order_before


def test_reconcile_free_list_adopts_reclaimed_orphans():
    """EMPTY zones the pool lost track of (reset orphans) are re-adopted in
    zone-id order behind the surviving pool."""
    env = Environment()
    zm, ssd = make_zm(env)
    keep = zm.allocate_cluster(4)
    orphaned = zm.allocate_cluster(4)

    def write_then_reset():
        for zone_id in orphaned.zone_ids:
            yield from ssd.append(zone_id, b"partial job output")
        for zone_id in orphaned.zone_ids:
            yield from ssd.reset_zone(zone_id)

    run(env, write_then_reset())
    survivors = list(zm._free)
    reclaimed = zm.reconcile_free_list(set(keep.zone_ids))
    assert reclaimed == sorted(orphaned.zone_ids)
    assert zm._free == survivors + sorted(orphaned.zone_ids)


def test_reconcile_free_list_drops_used_and_nonempty_zones():
    env = Environment()
    zm, ssd = make_zm(env)
    dirty = zm._free[0]

    def write():
        yield from ssd.append(dirty, b"data the pool must not hand out")

    run(env, write())
    reclaimed = zm.reconcile_free_list(set())
    assert reclaimed == []
    assert dirty not in zm._free
    # every pooled zone really is EMPTY and allocatable
    from repro.ssd.zone import ZoneState

    assert all(ssd.zone(z).state == ZoneState.EMPTY for z in zm._free)


def test_sealed_partial_zone_not_appendable():
    """finish_zone at a partial write pointer (mount sealing a torn tail)
    removes the zone from append routing but keeps its data readable."""
    env = Environment()
    zm, ssd = make_zm(env)
    cluster = zm.allocate_cluster(2)

    def seal_and_append():
        zone_id, _off, _len = yield from cluster.append_group(b"x" * 1024)
        yield from ssd.finish_zone(zone_id)
        before = cluster.remaining()
        # appends route around the sealed zone instead of faulting
        for _ in range(4):
            yield from cluster.append_group(b"y" * 512)
        return zone_id, before

    target, before = run(env, seal_and_append())
    other = next(z for z in cluster.zone_ids if z != target)
    # the sealed zone contributed nothing; the later appends all landed on
    # the surviving zone
    assert before == ssd.zone(other).remaining + 4 * 512
    assert ssd.zone(target).write_pointer == 1024


def test_keyspace_streams_grow_cluster_chains_across_compaction_and_remount():
    """A keyspace larger than one cluster spills every stream into a chain.

    Paper-scale keyspaces take :meth:`ZoneManager.append_stream`'s grow
    branch on every write; at bench geometry (32 MiB clusters) no small run
    does.  64 KiB zones in 2-zone clusters and a 16 KiB membuf make 3,000
    small pairs spill KLOG, VLOG, PIDX and sorted-value streams over more
    than one cluster; the compacted data reads back before and after a power
    cycle and every invariant holds throughout.
    """
    from repro.bench import bench_geometry, build_kvcsd_testbed
    from repro.obs.audit import InvariantAuditor
    from repro.workloads import SyntheticSpec, generate_pairs

    kv = build_kvcsd_testbed(
        seed=3, geometry=bench_geometry(n_zones=64, zone_size=64 * KiB),
        cluster_zones=2, membuf_bytes=16 * KiB,
    )
    pairs = generate_pairs(
        SyntheticSpec(n_pairs=3000, key_bytes=16, value_bytes=100, seed=3)
    )
    probes = pairs[::7]

    def read_back():
        ctx = kv.thread_ctx(0)
        values = []
        for key, _ in probes:
            values.append((yield from kv.client.get("ks", key, ctx)))
        return values

    def ingest():
        ctx = kv.thread_ctx(0)
        yield from kv.client.create_keyspace("ks", ctx)
        yield from kv.client.open_keyspace("ks", ctx)
        yield from kv.client.bulk_put("ks", pairs, ctx)
        yield from kv.client.fsync("ks", ctx)

    kv.run(ingest())
    ks = kv.device.keyspaces["ks"]
    assert len(ks.klog_clusters) > 1 and len(ks.vlog_clusters) > 1
    assert InvariantAuditor(kv.device).run("ingest").ok

    def compact():
        ctx = kv.thread_ctx(0)
        yield from kv.client.compact("ks", ctx)
        yield from kv.client.wait_for_device("ks", ctx)

    kv.run(compact())
    ks = kv.device.keyspaces["ks"]
    assert len(ks.pidx_clusters) > 1 and len(ks.sorted_value_clusters) > 1
    assert kv.run(read_back()) == [value for _, value in probes]
    assert InvariantAuditor(kv.device).run("compacted").ok

    kv.power_cycle()
    assert kv.run(read_back()) == [value for _, value in probes]
    report = InvariantAuditor(kv.device).run("remounted")
    assert report.ok, report.format()
