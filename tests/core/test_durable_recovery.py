"""The metadata log and the mount pipeline: staged recovery, bloom reload,
A/B checkpoints, torn-tail tolerance, deletes that stay dead."""

import numpy as np

from repro.core import KvCsdClient, KvCsdDevice
from repro.core.device import MOUNT_STAGES
from repro.core.keyspace import KeyspaceState
from repro.errors import KeyNotFoundError
from repro.nvme import PcieLink
from repro.obs.audit import InvariantAuditor
from repro.obs.journal import install_journal
from repro.obs.trace import install_tracer
from repro.sim.sync import AllOf
from repro.soc import SocBoard
from repro.ssd.zone import ZoneState
from repro.units import KiB

from tests.core.conftest import CsdTestbed, make_pairs


def power_cycle(tb):
    """A fresh board + device over the same SSD (DRAM state is lost)."""
    board2 = SocBoard(tb.env, tb.ssd, spec=tb.board.spec)
    device2 = KvCsdDevice(
        board2,
        rng=np.random.default_rng(43),
        membuf_bytes=tb.device.membuf_bytes,
        cluster_zones=tb.device.cluster_zones,
    )
    client2 = KvCsdClient(device2, PcieLink(tb.env, lanes=16))

    def mount():
        yield from device2.recover(tb.ctx)

    tb.run(mount())
    return device2, client2


def load_and_compact(tb, pairs, name="ks"):
    def setup():
        yield from tb.client.create_keyspace(name, tb.ctx)
        yield from tb.client.open_keyspace(name, tb.ctx)
        yield from tb.client.bulk_put(name, pairs, tb.ctx)
        yield from tb.client.compact(name, tb.ctx)
        yield from tb.client.wait_for_device(name, tb.ctx)

    tb.run(setup())


def test_blooms_survive_power_cycle():
    """A recovered durable device keeps its persisted PIDX blooms — reads of
    absent keys stay eliminated without any reconstruction I/O."""
    tb = CsdTestbed(bloom_bits_per_key=10)
    pairs = make_pairs(3000)
    load_and_compact(tb, pairs)
    sketch = tb.device.keyspaces["ks"].pidx_sketch
    assert len(sketch.blooms) == len(sketch) > 0

    device2, client2 = power_cycle(tb)
    recovered = device2.keyspaces["ks"].pidx_sketch
    assert len(recovered.blooms) == len(recovered) == len(sketch)
    assert device2.stats.counter("blooms_reloaded").value == len(sketch)
    assert device2.stats.counter("blooms_reconstructed").value == 0

    absent = [f"zz-{i:012d}".encode().ljust(16, b"0") for i in range(20)]
    before = device2.stats.counter("pidx_block_reads").value

    def probe():
        hit = yield from client2.get("ks", pairs[42][0], tb.ctx)
        misses = 0
        for key in absent:
            try:
                yield from client2.get("ks", key, tb.ctx)
            except KeyNotFoundError:
                misses += 1
        return hit, misses

    hit, misses = tb.run(probe())
    assert hit == pairs[42][1]
    assert misses == len(absent)
    # reloaded blooms eliminate (nearly) every absent-key block read
    eliminated_misses = before + 1  # +1 block read for the present key
    assert device2.stats.counter("pidx_block_reads").value <= eliminated_misses + 2


def test_mount_stages_journaled_and_gauged():
    tb = CsdTestbed(bloom_bits_per_key=10)
    journal = install_journal(tb.env)
    load_and_compact(tb, make_pairs(1500))
    device2, _client2 = power_cycle(tb)

    assert set(device2._mount_stages) == set(MOUNT_STAGES)
    begins = [e for e in journal.events if e.type == "mount.stage_begin"]
    ends = [e for e in journal.events if e.type == "mount.stage_end"]
    assert [e.fields["stage"] for e in begins] == list(MOUNT_STAGES)
    assert [e.fields["stage"] for e in ends] == list(MOUNT_STAGES)

    assert device2.stats.counter("recoveries").value == 1.0
    gauges = device2.metric_gauges()
    assert gauges["recovery.mount_seconds"]() == sum(
        device2._mount_stages.values()
    )
    for stage in MOUNT_STAGES:
        assert gauges[f"recovery.stage_seconds.{stage}"]() >= 0.0


def test_ab_checkpoint_swaps_zones_and_survives_torn_target():
    tb = CsdTestbed(bloom_bits_per_key=10)
    load_and_compact(tb, make_pairs(1000))
    log = tb.device.metalog
    active, standby = log.zone_ids

    tb.run(log.checkpoint(tb.ctx))
    assert log.epoch == 1
    # the snapshot went to the standby zone; roles swapped
    assert log.zone_ids == [standby, active]
    assert tb.ssd.zone(active).write_pointer == 0

    # a crash mid-way through the *next* checkpoint: EPOCH(2) lands in the
    # new standby zone but COMMIT never does
    torn = log.codec.encode_epoch(2)

    def tear():
        yield from tb.ssd.append(active, torn)

    tb.run(tear())
    device2, client2 = power_cycle(tb)
    # mount fell back to the sealed epoch-1 stream, data intact
    assert device2.metalog.epoch == 1
    assert device2.metalog.zone_ids == [standby, active]
    assert device2.keyspaces["ks"].n_pairs == 1000

    def query():
        return (yield from client2.get("ks", make_pairs(1000)[5][0], tb.ctx))

    assert tb.run(query()) == make_pairs(1000)[5][1]


def test_torn_metadata_append_applies_intact_prefix():
    tb = CsdTestbed(bloom_bits_per_key=10)
    pairs = make_pairs(1200)
    load_and_compact(tb, pairs)
    ks = tb.device.keyspaces["ks"]
    log = tb.device.metalog
    record = log.codec.encode_upsert(ks, 9999)

    def tear():
        yield from tb.ssd.append(log.zone_ids[0], record[: len(record) // 2])

    tb.run(tear())
    device2, client2 = power_cycle(tb)
    assert device2.stats.counter("metadata_torn_tails").value == 1
    assert device2.keyspaces["ks"].state == KeyspaceState.COMPACTED
    assert device2.keyspaces["ks"].n_pairs == 1200

    def query():
        return (yield from client2.get("ks", pairs[7][0], tb.ctx))

    assert tb.run(query()) == pairs[7][1]


def pad_metadata_zone(tb, room):
    """Fill the active metadata zone with harmless records (deletes of
    names nobody uses) until its free space is at most ``room.stop - 1``
    and at least ``room.start`` bytes."""
    log = tb.device.metalog
    zone = tb.ssd.zone(log.zone_ids[0])

    def pad(size):
        # frame = 11 bytes, payload = type byte + u16 length + name
        return log.codec.encode_delete("x" * (size - 14))

    def fill():
        while zone.capacity - zone.write_pointer >= room.stop:
            free = zone.capacity - zone.write_pointer
            size = max(14, min(free - (room.start + room.stop) // 2, 0xFF00))
            yield from tb.ssd.append(zone.zone_id, pad(size))
        assert zone.capacity - zone.write_pointer in room

    tb.run(fill())
    return zone


def test_delete_surviving_zone_full_checkpoint_is_not_resurrected():
    """A delete whose record append overflows the metadata zone falls back
    to a checkpoint taken while the dying keyspace is still in the table
    (the delete is persisted *before* the data zones are released).  That
    checkpoint must leave the keyspace out — otherwise a later mount
    replays the snapshot and resurrects the keyspace pointing at freed,
    reusable zones."""
    tb = CsdTestbed(bloom_bits_per_key=10, zone_size=256 * KiB)
    load_and_compact(tb, make_pairs(1000), name="victim")
    dev = tb.device
    delete_len = len(dev.metalog.codec.encode_delete("victim"))
    # less free space than one "victim" delete record: the delete's append
    # raises ZoneFullError and checkpoints instead
    pad_metadata_zone(tb, range(0, delete_len))

    def drop():
        yield from tb.client.delete_keyspace("victim", tb.ctx)

    tb.run(drop())
    assert dev.stats.counter("metadata_checkpoints").value == 1
    assert "victim" not in dev.keyspaces

    device2, _client2 = power_cycle(tb)
    assert device2.metalog.epoch == 1
    assert device2.list_keyspaces() == []


def test_committed_delete_survives_another_writers_checkpoint():
    """The delete record lands, then ``delete_keyspace`` yields while it
    releases the victim's zones — the victim is still in the device table.
    Another keyspace's upsert that overflows the zone in that window
    checkpoints; the snapshot must leave the victim out, or the swap erases
    the stream holding its DELETE and the victim comes back at mount over
    released zones."""
    tb = CsdTestbed(bloom_bits_per_key=10, zone_size=256 * KiB)
    load_and_compact(tb, make_pairs(1000), name="victim")
    load_and_compact(tb, make_pairs(1000, prefix="o"), name="other")
    dev = tb.device
    log = dev.metalog
    delete_len = len(log.codec.encode_delete("victim"))
    upsert_len = len(log.codec.encode_upsert(dev.keyspaces["other"], 0))
    # room for the victim's delete record, not for one more upsert after it
    zone = pad_metadata_zone(tb, range(delete_len, delete_len + upsert_len))
    seen = {}

    def other_writer():
        wp = zone.write_pointer
        while zone.write_pointer == wp:  # the DELETE record has not landed
            yield tb.env.timeout(1e-6)
        seen["victim_in_table"] = "victim" in dev.keyspaces
        yield from log.upsert(tb.ctx, dev.keyspaces["other"])

    def drop():
        yield from tb.client.delete_keyspace("victim", tb.ctx)

    writer = tb.env.process(other_writer())
    tb.run(drop())
    tb.env.run(until=writer)
    assert seen["victim_in_table"]  # the race window was hit
    assert dev.stats.counter("metadata_checkpoints").value == 1
    assert dev.list_keyspaces() == ["other"]

    device2, _client2 = power_cycle(tb)
    assert device2.list_keyspaces() == ["other"]
    report = InvariantAuditor(device2).run("mount")
    assert report.ok, report.violations


def test_recreated_keyspace_is_snapshotted_again():
    """The snapshot rule ends when a keyspace of the dropped name is
    created anew: later checkpoints must carry the new keyspace."""
    tb = CsdTestbed(bloom_bits_per_key=10)
    pairs = make_pairs(500)
    load_and_compact(tb, pairs, name="ks")

    def drop():
        yield from tb.client.delete_keyspace("ks", tb.ctx)

    tb.run(drop())
    load_and_compact(tb, pairs[:100], name="ks")
    tb.run(tb.device.metalog.checkpoint(tb.ctx))

    device2, _client2 = power_cycle(tb)
    assert device2.metalog.epoch == 1
    assert device2.list_keyspaces() == ["ks"]
    assert device2.keyspaces["ks"].n_pairs == 100


def test_metadata_writers_serialized_by_meta_lock():
    """A checkpoint yields many times between its snapshot and erasing the
    old stream; an upsert issued meanwhile must queue on the metadata lock
    and land on the post-swap active zone, not on the old one the swap
    erases."""
    tb = CsdTestbed(bloom_bits_per_key=10)
    load_and_compact(tb, make_pairs(500))
    log = tb.device.metalog
    old_active, new_active = log.zone_ids

    checkpoint = tb.env.process(log.checkpoint(tb.ctx))
    upsert = tb.env.process(log.upsert(tb.ctx, tb.device.keyspaces["ks"]))
    tb.env.run(until=checkpoint)
    snapshot_bytes = tb.ssd.zone(new_active).write_pointer
    tb.env.run(until=upsert)
    assert log.zone_ids == [new_active, old_active]
    assert tb.ssd.zone(old_active).write_pointer == 0
    assert tb.ssd.zone(new_active).write_pointer > snapshot_bytes


def run_all(tb, *gens):
    """Run generators as concurrent processes until every one has ended."""

    def all_of():
        yield AllOf(tb.env, [tb.env.process(gen) for gen in gens])

    tb.run(all_of())


def test_concurrent_upserts_share_the_log():
    """Appends do not wait for each other: two keyspaces' upserts from
    different contexts overlap in virtual time and neither records a
    metadata-lock wait."""
    tb = CsdTestbed(bloom_bits_per_key=10)
    load_and_compact(tb, make_pairs(500), name="a")
    load_and_compact(tb, make_pairs(500, prefix="b"), name="b")
    dev, log = tb.device, tb.device.metalog
    tracer = install_tracer(tb.env)
    spans = {}

    def upsert(name, core):
        t0 = tb.env.now
        yield from log.upsert(tb.ctx.pinned(core), dev.keyspaces[name])
        spans[name] = (t0, tb.env.now)

    run_all(tb, upsert("a", 0), upsert("b", 1))
    (a0, a1), (b0, b1) = spans["a"], spans["b"]
    assert max(a0, b0) < min(a1, b1)
    assert not [s for s in tracer.spans if s.name == "dev.meta_lock_wait"]


def test_checkpoint_waits_for_an_append_in_flight():
    """A checkpoint requested while an append is charging its CRC blocks
    until that append has landed, and only then writes its snapshot."""
    tb = CsdTestbed(bloom_bits_per_key=10)
    load_and_compact(tb, make_pairs(500))
    log = tb.device.metalog
    standby = log.zone_ids[1]
    tracer = install_tracer(tb.env)
    seen = {}

    def upsert():
        yield from log.upsert(tb.ctx.pinned(0), tb.device.keyspaces["ks"])
        seen["landed"] = tb.env.now
        seen["standby_bytes"] = tb.ssd.zone(standby).write_pointer

    run_all(tb, upsert(), log.checkpoint(tb.ctx.pinned(1)))
    waits = [s for s in tracer.spans if s.name == "dev.meta_lock_wait"]
    assert waits[-1].end == seen["landed"] > waits[-1].start
    assert seen["standby_bytes"] == 0
    assert log.epoch == 1


def test_concurrent_appends_overflowing_the_zone_checkpoint_once():
    """N appends that all find the metadata zone full drop their shared
    hold and queue for the exclusive one: the first checkpoints, the rest
    see the epoch moved (its snapshot already holds their table change)."""
    tb = CsdTestbed(bloom_bits_per_key=10, zone_size=256 * KiB)
    names = [f"ks{i}" for i in range(4)]
    for i, name in enumerate(names):
        load_and_compact(tb, make_pairs(300, prefix=f"p{i}"), name=name)
    dev, log = tb.device, tb.device.metalog
    shortest = min(
        len(log.codec.encode_upsert(dev.keyspaces[name], 0)) for name in names
    )
    pad_metadata_zone(tb, range(0, shortest))
    checkpoints = dev.stats.counter("metadata_checkpoints").value

    run_all(tb, *(
        log.upsert(tb.ctx.pinned(core), dev.keyspaces[name])
        for core, name in enumerate(names)
    ))
    assert log.epoch == 1
    assert dev.stats.counter("metadata_checkpoints").value == checkpoints + 1

    device2, _client2 = power_cycle(tb)
    assert device2.list_keyspaces() == names
    for name in names:
        assert log.codec.encode_upsert(device2.keyspaces[name], 0) == (
            log.codec.encode_upsert(dev.keyspaces[name], 0)
        )
    report = InvariantAuditor(device2).run("mount")
    assert report.ok, report.violations


def test_racing_upserts_of_one_keyspace_remount_to_the_later_state():
    """An upsert whose CRC charge waits on a busy core claims zone space
    after a later upsert of the same keyspace; it must carry the table as
    it stands at its claim, or the stream ends on the older state."""
    tb = CsdTestbed(bloom_bits_per_key=10)
    tb.run(tb.client.create_keyspace("ks", tb.ctx))
    ks, log = tb.device.keyspaces["ks"], tb.device.metalog
    slow, fast = tb.ctx.pinned(0), tb.ctx.pinned(1)

    def race():
        hog = tb.env.process(slow.execute(1e-3))  # core 0 is busy
        first = tb.env.process(log.upsert(slow, ks))  # persists EMPTY...
        yield tb.env.timeout(1e-7)  # ...and now queues for core 0
        ks.open_for_write()
        second = tb.env.process(log.upsert(fast, ks))  # ...then WRITABLE
        yield AllOf(tb.env, [hog, first, second])

    tb.run(race())
    device2, _client2 = power_cycle(tb)
    assert device2.keyspaces["ks"].state == KeyspaceState.WRITABLE


def test_upsert_claiming_after_a_delete_of_its_keyspace_is_dropped():
    """The same race against a delete: the keyspace is still in the table
    (its zones are not released yet), but the committed DELETE supersedes
    the late upsert, so mount finds the keyspace gone."""
    tb = CsdTestbed(bloom_bits_per_key=10)
    load_and_compact(tb, make_pairs(500), name="victim")
    dev, log = tb.device, tb.device.metalog
    slow, fast = tb.ctx.pinned(0), tb.ctx.pinned(1)

    def race():
        hog = tb.env.process(slow.execute(1e-3))
        upsert = tb.env.process(log.upsert(slow, dev.keyspaces["victim"]))
        yield tb.env.timeout(1e-7)
        yield from log.delete(fast, "victim")
        yield AllOf(tb.env, [hog, upsert])

    tb.run(race())
    assert "victim" in dev.keyspaces
    device2, _client2 = power_cycle(tb)
    assert device2.list_keyspaces() == []
    report = InvariantAuditor(device2).run("mount")
    assert report.ok, report.violations


def test_torn_klog_tail_sealed_on_mount():
    tb = CsdTestbed(bloom_bits_per_key=10)
    pairs = make_pairs(9000)  # > membuf, so KLOG zones hold flushed data

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)

    tb.run(setup())
    ks = tb.device.keyspaces["ks"]
    target = next(
        z for z in ks.klog_clusters[0].zone_ids
        if tb.ssd.zone(z).write_pointer
        and tb.ssd.zone(z).state is ZoneState.OPEN
    )

    def tear():
        # half a KLOG record: a 16-byte key length prefix with no body
        yield from tb.ssd.append(target, b"\x10\x00" + b"xx")

    tb.run(tear())
    device2, client2 = power_cycle(tb)
    assert device2.stats.counter("klog_torn_tails").value >= 1
    # the torn zone was sealed so later appends cannot corrupt rescans
    assert tb.ssd.zone(target).state is ZoneState.FULL
    recovered = device2.keyspaces["ks"]
    assert recovered.state == KeyspaceState.WRITABLE
    assert recovered.n_pairs > 0

    more = make_pairs(500, key_bytes=24, prefix="late")

    def continue_ingest():
        yield from client2.bulk_put("ks", more, tb.ctx)
        yield from client2.compact("ks", tb.ctx)
        yield from client2.wait_for_device("ks", tb.ctx)
        v_new = yield from client2.get("ks", more[123][0], tb.ctx)
        v_old = yield from client2.get("ks", pairs[0][0], tb.ctx)
        return v_new, v_old

    v_new, v_old = tb.run(continue_ingest())
    assert v_new == more[123][1]
    assert v_old == pairs[0][1]


def test_durable_delete_then_power_cycle_reclaims_orphans():
    tb = CsdTestbed(bloom_bits_per_key=10)
    install_journal(tb.env)

    def setup():
        for name in ("keep", "drop"):
            yield from tb.client.create_keyspace(name, tb.ctx)
            yield from tb.client.open_keyspace(name, tb.ctx)
            yield from tb.client.bulk_put(
                name, make_pairs(3000, key_bytes=24, prefix=name), tb.ctx
            )
        yield from tb.client.delete_keyspace("drop", tb.ctx)

    tb.run(setup())
    device2, _client2 = power_cycle(tb)
    assert device2.list_keyspaces() == ["keep"]
    assert device2.zone_manager.free_zone_count == (
        tb.device.zone_manager.free_zone_count
    )
