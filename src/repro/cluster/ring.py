"""Placement: which devices own a ``(keyspace, key)`` pair.

The placement is a consistent-hash ring with virtual nodes (the DHT
construction SILT-style stores use for scale-out): each device contributes
``vnodes`` points on a 64-bit circle, a key hashes to a point, and its
owners are the next distinct devices clockwise.  Virtual nodes smooth the
per-device share to ``weight / total_weight`` and make a device
add/remove move only ~``1/N`` of the keys — the property online
rebalancing depends on.

Rings are immutable: :meth:`~HashRing.with_devices` returns a *new* ring
for a changed fleet, so a router can hold the whole epoch
chain (creation-time ring, post-migration rings) and resolve any key's
location at any epoch.  Hash points are derived from sha256, like
:func:`repro.sim.rng.derive_seed` — stable across processes and Python
versions, never from ``hash()``.

:meth:`~HashRing.owners` places one key, :meth:`~HashRing.slots` a column of
:func:`key_points`; both read one slot table per replica count.  A point is
the same on every ring, so an epoch-chain walk hashes a key once.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Sequence
from functools import cached_property
from operator import methodcaller

import numpy as np

from repro.errors import SimulationError

__all__ = ["HashRing"]


def _point64(label: bytes) -> int:
    """Stable 64-bit position on the ring for an arbitrary label."""
    return int.from_bytes(hashlib.sha256(label).digest()[:8], "big")


def key_point(keyspace: str, key: bytes) -> int:
    """Ring position of one ``(keyspace, key)`` pair."""
    return _point64(keyspace.encode() + b"\x00" + key)


def key_points(keyspace: str, keys: Sequence[bytes]) -> np.ndarray:
    """Batch :func:`key_point`: each digest's first 8 bytes, as ``>u8``."""
    prefixed = map((keyspace.encode() + b"\x00").__add__, keys)
    digests = b"".join(map(methodcaller("digest"), map(hashlib.sha256, prefixed)))
    return np.frombuffer(digests, ">u8")[::4]


class HashRing:
    """Consistent-hash ring with weighted virtual nodes.

    ``devices`` is the ordered fleet (order is the deterministic tie-break
    everywhere); ``owners`` maps a pair to its primary plus replica
    devices; ``with_devices`` rebuilds the ring for a changed fleet (the
    rebalancer's input).
    """

    def __init__(
        self,
        devices: Sequence[str],
        vnodes: int = 64,
        weights: dict[str, float] | None = None,
        salt: str = "kvcsd-ring",
    ):
        if not devices:
            raise SimulationError("a hash ring needs at least one device")
        if len(set(devices)) != len(devices):
            raise SimulationError("duplicate device names on the ring")
        if vnodes < 1:
            raise SimulationError("vnodes must be >= 1")
        self.devices = tuple(devices)
        self.vnodes = vnodes
        self.weights = dict(weights or {})
        self.salt = salt
        points: list[tuple[int, str]] = []
        for dev in self.devices:
            n_points = max(1, round(vnodes * self.weights.get(dev, 1.0)))
            for i in range(n_points):
                points.append(
                    (_point64(f"{salt}:{dev}:{i}".encode()), dev)
                )
        points.sort()
        self._points = points
        self._positions = [p for p, _ in points]
        self._owners_at = [d for _, d in points]
        #: n -> (slot table, its rows as name tuples), built on first use
        self._tables: dict[int, tuple[np.ndarray, list[tuple[str, ...]]]] = {}

    def table(self, n: int) -> tuple[np.ndarray, list[tuple[str, ...]]]:
        """The slot table for ``n`` owners (clamped as in :meth:`owners`):
        row ``s`` indexes ``devices`` with the first ``n`` distinct devices
        clockwise from position ``s``; beside it, the rows as name tuples."""
        n = min(n, len(self.devices))
        if n not in self._tables:
            at = np.array([self.devices.index(dev) for dev in self._owners_at])
            table = at[:, None]
            if n > 1:  # each device's next slot, over two laps: the n nearest
                laps = np.arange(2 * len(at))[:, None]
                hits = np.where(
                    np.tile(at, 2)[:, None] == np.arange(len(self.devices)),
                    laps, len(laps),
                )
                nearest = np.minimum.accumulate(hits[::-1])[::-1][: len(at)]
                table = np.argsort(nearest, axis=1)[:, :n]
            names = np.array(self.devices, dtype=object)[table].tolist()
            rows = list(map(tuple, names))
            shared: dict = {}  # one tuple object per distinct owner set
            self._tables[n] = (table, list(map(shared.setdefault, rows, rows)))
        return self._tables[n]

    @cached_property
    def _position_array(self) -> np.ndarray:
        return np.array(self._positions, np.uint64)

    def slots(self, points: np.ndarray) -> np.ndarray:
        """Each point's :meth:`table` row, over :func:`key_points`."""
        slots = np.searchsorted(self._position_array, points, side="right")
        return slots % len(self._positions)

    def owners(self, keyspace: str, key: bytes, n: int = 1) -> tuple[str, ...]:
        """The first ``n`` *distinct* devices clockwise from the key's point.

        ``n`` is clamped to the fleet size, so asking for 3 replicas on a
        2-device ring yields both devices rather than raising.
        """
        return self.owners_at(key_point(keyspace, key), n)

    def owners_at(self, point: int, n: int = 1) -> tuple[str, ...]:
        """:meth:`owners` of one ring point."""
        slot = bisect_right(self._positions, point) % len(self._positions)
        return self.table(n)[1][slot]

    def primary(self, keyspace: str, key: bytes) -> str:
        return self.owners(keyspace, key, 1)[0]

    def with_devices(self, devices: Sequence[str]) -> "HashRing":
        return HashRing(
            devices, vnodes=self.vnodes, weights=self.weights, salt=self.salt
        )

    def add_device(self, name: str, weight: float = 1.0) -> "HashRing":
        """A new ring with ``name`` added; moves ~``weight/total`` of keys."""
        weights = dict(self.weights)
        if weight != 1.0:
            weights[name] = weight
        return HashRing(
            (*self.devices, name), vnodes=self.vnodes, weights=weights,
            salt=self.salt,
        )

    def remove_device(self, name: str) -> "HashRing":
        """A new ring without ``name``; its keys scatter over the rest."""
        if name not in self.devices:
            raise SimulationError(f"device {name!r} is not on the ring")
        remaining = tuple(d for d in self.devices if d != name)
        weights = {d: w for d, w in self.weights.items() if d != name}
        return HashRing(
            remaining, vnodes=self.vnodes, weights=weights, salt=self.salt
        )

    def share(self, name: str, samples: int = 4096) -> float:
        """Fraction of the ring arc owned by ``name`` (for skew checks)."""
        if name not in self.devices:
            return 0.0
        total = 1 << 64
        owned = 0
        prev = self._positions[-1] - total  # wrap-around arc
        for pos, dev in self._points:
            if dev == name:
                owned += pos - prev
            prev = pos
        return owned / total
