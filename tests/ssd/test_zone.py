"""Unit tests for Zone and SsdGeometry."""

import pytest

from repro.errors import (
    InvalidAddressError,
    StorageError,
    ZoneFullError,
    ZoneStateError,
)
from repro.ssd import SsdGeometry, Zone, ZoneState
from repro.units import KiB, MiB


def test_geometry_defaults_consistent():
    g = SsdGeometry()
    assert g.capacity == g.n_zones * g.zone_size
    assert g.blocks_per_zone == g.zone_size // g.logical_block_size


def test_geometry_validation():
    with pytest.raises(StorageError):
        SsdGeometry(n_channels=0)
    with pytest.raises(StorageError):
        SsdGeometry(n_zones=0)
    with pytest.raises(StorageError):
        SsdGeometry(zone_size=MiB + 1)  # not multiple of block size
    with pytest.raises(StorageError):
        SsdGeometry(n_zones=10, n_channels=8)  # uneven striping
    with pytest.raises(StorageError):
        SsdGeometry(logical_block_size=256)


def test_geometry_channel_mapping_round_robin():
    g = SsdGeometry(n_channels=4, n_zones=8)
    assert [g.channel_of_zone(z) for z in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
    with pytest.raises(StorageError):
        g.channel_of_zone(8)


def test_zone_initial_state():
    z = Zone(0, capacity=64 * KiB, channel=0)
    assert z.state == ZoneState.EMPTY
    assert z.write_pointer == 0
    assert z.remaining == 64 * KiB


def test_zero_length_append_leaves_an_empty_zone_empty():
    # a flush whose values are all empty appends a zero-length value group;
    # an OPEN zone with a rewound pointer breaks the zone state invariant
    z = Zone(0, capacity=100, channel=0)
    assert z.append(b"") == 0
    assert z.state == ZoneState.EMPTY
    z.append(b"x")
    assert z.append(b"") == 1
    assert z.state == ZoneState.OPEN


def test_zone_append_advances_pointer_and_state():
    z = Zone(0, capacity=100, channel=0)
    off = z.append(b"hello")
    assert off == 0
    assert z.write_pointer == 5
    assert z.state == ZoneState.OPEN
    off2 = z.append(b"world")
    assert off2 == 5
    assert z.read(0, 10) == b"helloworld"


def test_zone_fills_and_rejects_overflow():
    z = Zone(0, capacity=8, channel=0)
    z.append(b"12345678")
    assert z.state == ZoneState.FULL
    with pytest.raises(ZoneStateError):
        z.append(b"x")


def test_zone_append_beyond_capacity_rejected():
    z = Zone(0, capacity=8, channel=0)
    z.append(b"1234")
    with pytest.raises(ZoneFullError):
        z.append(b"567890")
    # failed append must not have altered the zone
    assert z.write_pointer == 4


def test_zone_read_beyond_write_pointer_rejected():
    z = Zone(0, capacity=100, channel=0)
    z.append(b"abc")
    with pytest.raises(InvalidAddressError):
        z.read(0, 4)
    with pytest.raises(InvalidAddressError):
        z.read(-1, 1)


def test_zone_finish_and_reset():
    z = Zone(0, capacity=100, channel=0)
    with pytest.raises(ZoneStateError):
        z.finish()  # cannot finish EMPTY
    z.append(b"abc")
    z.finish()
    assert z.state == ZoneState.FULL
    z.reset()
    assert z.state == ZoneState.EMPTY
    assert z.write_pointer == 0
    # reusable after reset
    z.append(b"xyz")
    assert z.read(0, 3) == b"xyz"
