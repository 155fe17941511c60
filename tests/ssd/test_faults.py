"""Failure injection: media errors propagate cleanly through every layer."""

import pytest

from repro.errors import NvmeError, StorageError
from repro.nvme import NvmeController, QueuePair, ZoneAppendCmd
from repro.sim import Environment
from repro.ssd import ConventionalSsd, SsdGeometry, ZnsSsd
from repro.ssd.faults import FaultPlan, MediaError
from repro.units import MiB

from tests.core.conftest import CsdTestbed, make_pairs


def test_fault_plan_budgets():
    plan = FaultPlan(fail_reads=2, after_reads=1)
    plan.check_read()  # skipped (after_reads)
    with pytest.raises(MediaError):
        plan.check_read()
    with pytest.raises(MediaError):
        plan.check_read()
    plan.check_read()  # budget exhausted -> success
    assert plan.injected == ["read", "read"]
    assert plan.exhausted


def test_zns_read_fault_raises():
    env = Environment()
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=4, zone_size=MiB))
    ssd.faults = FaultPlan(fail_reads=1)

    def proc():
        off = yield from ssd.append(0, b"data")
        yield from ssd.read(0, off, 4)

    env.process(proc())
    with pytest.raises(MediaError):
        env.run()


def test_conventional_write_fault_raises():
    env = Environment()
    ssd = ConventionalSsd(
        env,
        geometry=SsdGeometry(n_channels=2, n_zones=8, zone_size=MiB, pages_per_block=32),
    )
    ssd.faults = FaultPlan(fail_writes=1)

    def proc():
        yield from ssd.write(0, b"x" * 4096)

    env.process(proc())
    with pytest.raises(MediaError):
        env.run()


def test_controller_converts_fault_to_error_completion():
    env = Environment()
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=4, zone_size=MiB))
    ssd.faults = FaultPlan(fail_writes=1)
    qp = QueuePair(env, NvmeController(env, ssd), depth=4)

    def proc():
        yield from qp.submit(ZoneAppendCmd(zone_id=0, data=b"x"))

    env.process(proc())
    with pytest.raises(NvmeError, match="MediaError"):
        env.run()


def test_device_survives_after_fault_budget_exhausted():
    """A transient fault window passes; subsequent operations succeed and
    previously written data is intact."""
    env = Environment()
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=4, zone_size=MiB))

    def write_ok():
        yield from ssd.append(0, b"before")

    env.run(env.process(write_ok()))
    ssd.faults = FaultPlan(fail_writes=1)

    def write_faulted():
        try:
            yield from ssd.append(0, b"fails")
            return "no-error"
        except MediaError:
            return "raised"

    assert env.run(env.process(write_faulted())) == "raised"

    def write_after():
        off = yield from ssd.append(0, b"after")
        first = yield from ssd.read(0, 0, 6)
        second = yield from ssd.read(0, off, 5)
        return first, second

    first, second = env.run(env.process(write_after()))
    assert first == b"before"
    assert second == b"after"


def test_kvcsd_query_fault_reaches_client():
    """An injected media error during a device-side query surfaces to the
    application instead of returning corrupt data."""
    tb = CsdTestbed()
    pairs = make_pairs(500)

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(setup())
    tb.ssd.faults = FaultPlan(fail_reads=1)

    def query():
        yield from tb.client.get("ks", pairs[0][0], tb.ctx)

    with pytest.raises(StorageError):
        tb.run(query())
    # the fault window passed; the same query now succeeds
    tb.ssd.faults = None

    def retry():
        value = yield from tb.client.get("ks", pairs[0][0], tb.ctx)
        return value

    assert tb.run(retry()) == pairs[0][1]


def test_event_cut_kills_device_at_exact_sequence():
    from repro.obs.journal import install_journal, journal_event
    from repro.ssd.faults import PowerCut

    env = Environment()
    journal = install_journal(env)
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=4, zone_size=MiB))
    plan = FaultPlan(cut_at_event=2)
    ssd.faults = plan
    journal.on_record = plan.observe_event

    def proc():
        yield from ssd.append(0, b"first")
        journal_event(env, "membuf.flush")
        journal_event(env, "metadata.checkpoint")  # the cut fires here

    env.process(proc())
    with pytest.raises(PowerCut):
        env.run()
    assert plan.power_cut
    assert "power_cut" in plan.injected
    # the device is dead: reads, writes, and zone management all refuse
    for op in (ssd.append(0, b"x"), ssd.read(0, 0, 5),
               ssd.reset_zone(0), ssd.finish_zone(0)):
        with pytest.raises(PowerCut):
            env.run(env.process(op))
    # pre-cut data is intact on flash
    assert bytes(ssd.zone(0)._data) == b"first"


def test_torn_append_persists_exact_prefix():
    from repro.ssd.faults import PowerCut

    env = Environment()
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=4, zone_size=MiB))
    ssd.faults = FaultPlan(torn_after_writes=2, torn_keep_fraction=0.25)

    def proc():
        yield from ssd.append(0, b"A" * 100)  # write 1 lands fully
        yield from ssd.append(0, b"B" * 100)  # write 2 tears at 25%

    env.process(proc())
    with pytest.raises(PowerCut):
        env.run()
    assert bytes(ssd.zone(0)._data) == b"A" * 100 + b"B" * 25
    assert ssd.faults.power_cut


def test_flash_state_survives_power_cycle():
    from repro.ssd.faults import PowerCut

    env = Environment()
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=4, zone_size=MiB))
    ssd.faults = FaultPlan(torn_after_writes=2)

    def proc():
        yield from ssd.append(1, b"durable")
        yield from ssd.append(2, b"torn in half")

    env.process(proc())
    with pytest.raises(PowerCut):
        env.run()
    snapshot = ssd.flash_state()

    env2 = Environment()
    ssd2 = ZnsSsd(env2, geometry=SsdGeometry(n_channels=2, n_zones=4, zone_size=MiB))
    ssd2.load_flash_state(snapshot)

    def read_back():
        whole = yield from ssd2.read(1, 0, 7)
        prefix = yield from ssd2.read(2, 0, ssd2.zone(2).write_pointer)
        return whole, prefix

    whole, prefix = env2.run(env2.process(read_back()))
    assert whole == b"durable"
    assert prefix == b"torn i"  # half of the 12-byte append


def test_fault_plan_introspects_power_cut_state():
    plan = FaultPlan(cut_at_event=5, cut_event_type="membuf.flush",
                     torn_after_writes=3)
    state = plan.introspect()
    assert state["cut_at_event"] == 5
    assert state["cut_event_type"] == "membuf.flush"
    assert state["torn_after_writes"] == 3
    assert state["power_cut"] is False


def test_torn_append_keeps_the_prefix_of_a_mutable_buffer():
    from repro.ssd.faults import PowerCut

    env = Environment()
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=4, zone_size=MiB))
    ssd.faults = FaultPlan(torn_after_writes=1, torn_keep_fraction=0.5)
    data = bytearray(b"0123456789")

    def proc():
        yield from ssd.append(1, data)

    env.process(proc())
    with pytest.raises(PowerCut):
        env.run()
    data[:] = b"XXXXXXXXXX"
    assert ssd.zone(1).read(0, ssd.zone(1).write_pointer) == b"01234"
