"""Unit tests for the ZNS SSD device model."""

import pytest

from repro.errors import StorageError
from repro.sim import Environment
from repro.ssd import NandLatencyModel, SsdGeometry, ZnsSsd, ZoneState
from repro.units import KiB, MiB


def small_ssd(env, n_channels=2, n_zones=4, zone_size=MiB):
    return ZnsSsd(
        env,
        geometry=SsdGeometry(
            n_channels=n_channels, n_zones=n_zones, zone_size=zone_size
        ),
    )


def run(env, gen):
    return env.run(env.process(gen))


def test_append_read_roundtrip():
    env = Environment()
    ssd = small_ssd(env)

    def proc():
        off = yield from ssd.append(0, b"hello zns")
        data = yield from ssd.read(0, off, 9)
        return data

    assert run(env, proc()) == b"hello zns"


def test_append_returns_sequential_offsets():
    env = Environment()
    ssd = small_ssd(env)

    def proc():
        offs = []
        for chunk in (b"aa", b"bbb", b"c"):
            off = yield from ssd.append(0, chunk)
            offs.append(off)
        return offs

    assert run(env, proc()) == [0, 2, 5]


def test_io_takes_time():
    env = Environment()
    lat = NandLatencyModel()
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=4), latency=lat)

    def proc():
        yield from ssd.append(0, b"x" * 4096)

    run(env, proc())
    assert env.now == pytest.approx(lat.write_time(4096))


def test_same_channel_io_serializes():
    env = Environment()
    ssd = small_ssd(env, n_channels=2, n_zones=4)
    lat = ssd.latency
    done = []

    def writer(zone):
        yield from ssd.append(zone, b"x" * 4096)
        done.append(env.now)

    # zones 0 and 2 share channel 0
    env.process(writer(0))
    env.process(writer(2))
    env.run()
    t = lat.write_time(4096)
    assert done == [pytest.approx(t), pytest.approx(2 * t)]


def test_different_channels_parallel():
    env = Environment()
    ssd = small_ssd(env, n_channels=2, n_zones=4)
    lat = ssd.latency
    done = []

    def writer(zone):
        yield from ssd.append(zone, b"x" * 4096)
        done.append(env.now)

    # zones 0 and 1 are on different channels
    env.process(writer(0))
    env.process(writer(1))
    env.run()
    t = lat.write_time(4096)
    assert done == [pytest.approx(t), pytest.approx(t)]


def test_concurrent_appends_to_one_zone_do_not_collide():
    env = Environment()
    ssd = small_ssd(env)
    offsets = []

    def writer(payload):
        off = yield from ssd.append(0, payload)
        offsets.append((off, payload))

    env.process(writer(b"aaaa"))
    env.process(writer(b"bb"))
    env.run()
    # Offsets must be disjoint and data must land where claimed.
    assert sorted(off for off, _ in offsets) == [0, 4]

    def check():
        a = yield from ssd.read(0, 0, 4)
        b = yield from ssd.read(0, 4, 2)
        return a, b

    a, b = run(env, check())
    assert a == b"aaaa"
    assert b == b"bb"


def test_reset_zone_reclaims():
    env = Environment()
    ssd = small_ssd(env)

    def proc():
        yield from ssd.append(1, b"junk")
        yield from ssd.reset_zone(1)
        return ssd.zone(1).state

    assert run(env, proc()) == ZoneState.EMPTY
    assert ssd.stats.erase_ops == 1


def test_finish_zone():
    env = Environment()
    ssd = small_ssd(env)

    def proc():
        yield from ssd.append(1, b"data")
        yield from ssd.finish_zone(1)

    run(env, proc())
    assert ssd.zone(1).state == ZoneState.FULL


def test_stats_accumulate():
    env = Environment()
    ssd = small_ssd(env)

    def proc():
        yield from ssd.append(0, b"x" * 100)
        yield from ssd.read(0, 0, 50)

    run(env, proc())
    assert ssd.stats.bytes_written == 100
    assert ssd.stats.bytes_read == 50
    assert ssd.stats.write_ops == 1
    assert ssd.stats.read_ops == 1
    assert ssd.bytes_stored() == 100


def test_stats_delta():
    env = Environment()
    ssd = small_ssd(env)

    def phase1():
        yield from ssd.append(0, b"x" * 100)

    def phase2():
        yield from ssd.append(0, b"y" * 60)

    run(env, phase1())
    snap = ssd.stats.snapshot()
    run(env, phase2())
    d = ssd.stats.delta(snap)
    assert d.bytes_written == 60
    assert d.write_ops == 1


def test_free_zone_accounting():
    env = Environment()
    ssd = small_ssd(env, n_zones=4)
    assert ssd.free_zones == 4

    def proc():
        yield from ssd.append(0, b"x")

    run(env, proc())
    assert ssd.free_zones == 3
    assert ssd.zones_in_state(ZoneState.OPEN) == [0]


def test_bad_zone_id_rejected():
    env = Environment()
    ssd = small_ssd(env, n_zones=4)
    with pytest.raises(StorageError):
        ssd.zone(99)


def test_channel_busy_tracked():
    env = Environment()
    ssd = small_ssd(env, n_channels=2, n_zones=4)

    def proc():
        yield from ssd.append(0, b"x" * 8192)

    run(env, proc())
    assert ssd.stats.channel_busy[0] == pytest.approx(ssd.latency.write_time(8192))


def test_append_after_read_and_caller_buffers_stay_independent():
    """The zone keeps one copy of appended bytes, and a read leaves no
    buffer export behind that would stop the zone from growing."""
    env = Environment()
    ssd = small_ssd(env)
    buf = bytearray(b"abcdef")

    def proc():
        yield from ssd.append(0, buf)
        first = yield from ssd.read(0, 1, 3)
        buf[:] = b"XXXXXX"  # the caller reuses its buffer
        yield from ssd.append(0, b"gh")  # no BufferError after the read
        whole = yield from ssd.read(0, 0, 8)
        return first, whole

    first, whole = run(env, proc())
    assert type(first) is bytes and first == b"bcd"
    assert whole == b"abcdefgh"
