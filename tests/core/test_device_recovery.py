"""Device power-cycle tests: the keyspace table survives in the metadata zone."""

import struct

import pytest

from repro.bench.calibration import KvcsdTestbed, bench_geometry
from repro.core import ClientCostModel, CsdCostModel, SidxConfig
from repro.core.keyspace import KeyspaceState
from repro.errors import DbError, SimulationError
from repro.obs.audit import InvariantAuditor
from repro.obs.journal import install_journal
from repro.ssd.faults import FaultPlan, PowerCut
from repro.units import KiB, MiB

from tests.core.conftest import CsdTestbed, make_pairs


def test_recover_compacted_keyspace_and_query(tb=None):
    tb = CsdTestbed()
    pairs = make_pairs(3000)

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(setup())
    tb.power_cycle()
    assert tb.device.keyspaces["ks"].state == KeyspaceState.COMPACTED
    assert tb.device.keyspaces["ks"].n_pairs == 3000
    assert tb.device.stats.counter("recoveries").value == 1

    def query():
        point = yield from tb.client.get("ks", pairs[1234][0], tb.ctx)
        rows = yield from tb.client.range_query(
            "ks", pairs[10][0], pairs[13][0], tb.ctx
        )
        return point, rows

    point, rows = tb.run(query())
    assert point == pairs[1234][1]
    assert [k for k, _ in rows] == sorted(k for k, _ in pairs[10:13])


def test_recover_secondary_index_sketch():
    tb = CsdTestbed()
    pairs = [
        (f"p{i:07d}".encode(), struct.pack("<I", i % 23) + bytes(8))
        for i in range(1000)
    ]

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact(
            "ks", tb.ctx,
            secondary_indexes=[SidxConfig("tag", value_offset=0, width=4, dtype="u32")],
        )
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(setup())
    tb.power_cycle()

    def query():
        rows = yield from tb.client.sidx_range_query(
            "ks", "tag", struct.pack("<I", 7), struct.pack("<I", 8), tb.ctx
        )
        return rows

    rows = tb.run(query())
    expected = {k for k, v in pairs if v[:4] == struct.pack("<I", 7)}
    assert {k for k, _ in rows} == expected


def test_recover_writable_keyspace_continues_ingest():
    tb = CsdTestbed()
    pairs = make_pairs(9000)  # > membuf, so KLOG/VLOG hold flushed data

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)

    tb.run(setup())
    flushed = tb.device.keyspaces["ks"].n_pairs  # includes membuf'd pairs
    tb.power_cycle()
    ks = tb.device.keyspaces["ks"]
    assert ks.state == KeyspaceState.WRITABLE
    # membuf contents were lost; KLOG-resident pairs survive
    assert 0 < ks.n_pairs <= flushed

    more = make_pairs(500, key_bytes=24, prefix="late")

    def continue_ingest():
        yield from tb.client.bulk_put("ks", more, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        v_new = yield from tb.client.get("ks", more[123][0], tb.ctx)
        v_old = yield from tb.client.get("ks", pairs[0][0], tb.ctx)
        return v_new, v_old

    v_new, v_old = tb.run(continue_ingest())
    assert v_new == more[123][1]
    assert v_old == pairs[0][1]


def test_recover_mid_compaction_reverts_to_writable():
    """Power fails while the job writes its outputs: the remount finds the
    keyspace WRITABLE over its intact logs, reclaims the job's partial
    outputs, and the re-run compaction serves reads."""
    tb = CsdTestbed()
    pairs = make_pairs(20_000)

    def load():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)

    def compact():
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(load())
    # the job's second cluster is its PIDX one: the sorted values are on
    # flash by then, referenced by nothing durable
    plan = FaultPlan(cut_at_event=2, cut_event_type="cluster.allocate")
    tb.ssd.faults = plan
    install_journal(tb.env).on_record = plan.observe_event
    with pytest.raises(PowerCut):
        tb.run(compact())
    assert tb.device.keyspaces["ks"].state == KeyspaceState.COMPACTING

    tb2 = CsdTestbed()
    tb2.ssd.load_flash_state(tb.ssd.flash_state())
    tb2.power_cycle()
    assert tb2.device.keyspaces["ks"].state == KeyspaceState.WRITABLE
    assert tb2.device.stats.counter("orphan_zones_reclaimed").value > 0
    tb2.env.run()
    report = InvariantAuditor(tb2.device).run("mount")
    assert report.ok, report.violations

    def redo():
        yield from tb2.client.compact("ks", tb2.ctx)
        yield from tb2.client.wait_for_device("ks", tb2.ctx)
        return (yield from tb2.client.get("ks", pairs[777][0], tb2.ctx))

    assert tb2.run(redo()) == pairs[777][1]


def test_recover_respects_deletions():
    tb = CsdTestbed()

    def setup():
        for name in ("keep", "drop"):
            yield from tb.client.create_keyspace(name, tb.ctx)
            yield from tb.client.open_keyspace(name, tb.ctx)
            yield from tb.client.bulk_put(
                name, make_pairs(100, key_bytes=24, prefix=name), tb.ctx
            )
        yield from tb.client.delete_keyspace("drop", tb.ctx)

    tb.run(setup())
    tb.power_cycle()
    assert tb.device.list_keyspaces() == ["keep"]


def test_recover_reclaims_free_zones_consistently():
    tb = CsdTestbed()

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", make_pairs(5000), tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(setup())
    free_before = tb.device.zone_manager.free_zone_count
    tb.power_cycle()
    assert tb.device.zone_manager.free_zone_count == free_before


def test_recover_requires_fresh_device():
    tb = CsdTestbed()

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)

    tb.run(setup())

    def bad():
        yield from tb.device.recover(tb.ctx)

    with pytest.raises(DbError):
        tb.run(bad())


def test_recover_empty_device():
    tb = CsdTestbed()
    tb.power_cycle()
    assert tb.device.list_keyspaces() == []

    def create_after():
        yield from tb.client.create_keyspace("fresh", tb.ctx)
        yield from tb.client.open_keyspace("fresh", tb.ctx)

    tb.run(create_after())
    assert tb.device.keyspaces["fresh"].state == KeyspaceState.WRITABLE


def test_power_cycle_keeps_the_testbed_configuration():
    csd_costs = CsdCostModel(request_overhead=3e-6)
    client_costs = ClientCostModel(per_command=2e-6)
    tb = KvcsdTestbed(
        seed=5,
        geometry=bench_geometry(n_channels=4, n_zones=64, zone_size=1 * MiB),
        csd_costs=csd_costs,
        client_costs=client_costs,
        cluster_zones=3,
        membuf_bytes=96 * KiB,
        bulk_message_bytes=64 * KiB,
        bloom_bits_per_key=7,
        queue_depth=8,
    )
    before = (tb.board, tb.device, tb.client, tb.ssd, tb.link)
    spec, qp_name = tb.board.spec, tb.client.qp.name
    tb.power_cycle()
    assert all(new is not old for new, old in zip((tb.board, tb.device, tb.client), before))
    assert (tb.ssd, tb.link) == before[3:]
    assert tb.board.spec == spec and tb.board.spec.bloom_bits_per_key == 7
    assert tb.device.membuf_bytes == 96 * KiB
    assert tb.device.cluster_zones == 3
    assert tb.client.bulk_message_bytes == 64 * KiB
    assert tb.client.qp.depth == 8
    assert (tb.device.costs, tb.client.costs) == (csd_costs, client_costs)
    assert (tb.device.name, tb.ssd.name, tb.client.qp.name) == (
        before[1].name, before[3].name, qp_name
    )
    assert tb.adapter.client is tb.client


def test_power_cycle_refuses_a_job_in_flight():
    tb = CsdTestbed()

    def start_compaction():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", make_pairs(5000), tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)

    tb.run(start_compaction())
    assert tb.device.keyspaces["ks"].jobs
    with pytest.raises(SimulationError, match="jobs in flight"):
        tb.power_cycle()


def test_power_cycle_refuses_an_unreaped_command():
    tb = CsdTestbed()

    def post():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        return (yield from tb.client.put_async("ks", b"k", b"v", tb.ctx))

    ticket = tb.run(post())
    tb.env.run()
    assert ticket.done and tb.client.qp.unreaped == 1
    with pytest.raises(SimulationError, match="host command in flight"):
        tb.power_cycle()
