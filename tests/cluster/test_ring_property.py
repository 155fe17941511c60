"""Slot tables and batch placement equal the per-key walks they replaced.

:meth:`HashRing.owners`, :meth:`HashRing.slots` and every row of the slot
table are held to ``router_reference``'s clockwise walk on weighted rings
of 1–6 devices with 1–64 vnodes, for replica counts from 1 to one past
the fleet (the clamp).  :meth:`LogicalKeyspace.locate_many` (and the scalar
``locate``/``locate_pending``) are held, key by key, to the reference
epoch-chain walk over drawn ring changes with and without an active
migration.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HashRing, LogicalKeyspace
from repro.cluster.ring import key_points
from repro.cluster.router import _Migration

from tests.cluster import router_reference as ref

DEVICES = tuple(f"dev{i}" for i in range(6))
WEIGHTS = st.sampled_from([None, 0.25, 0.5, 1.5, 3.0])
KEYS = st.lists(st.binary(max_size=12), max_size=32)
CHANGES = st.tuples(st.sampled_from(DEVICES), WEIGHTS)
#: 0–11 completed migrations, every length equally likely
CHAINS = st.integers(0, 11).flatmap(
    lambda n: st.lists(CHANGES, min_size=n, max_size=n)
)


@st.composite
def rings(draw):
    devices = draw(st.lists(st.sampled_from(DEVICES), min_size=1, unique=True))
    weights = {dev: w for dev in devices if (w := draw(WEIGHTS)) is not None}
    return HashRing(
        devices, vnodes=draw(st.integers(1, 64)), weights=weights,
        salt=draw(st.sampled_from(["kvcsd-ring", "alt"])),
    )


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(ring=rings(), keys=KEYS, data=st.data())
def test_slot_tables_match_the_ring_walk(ring, keys, data):
    n = data.draw(st.integers(1, len(ring.devices) + 1))
    table, names = ring.table(n)
    assert table.shape == (len(ring._points), min(n, len(ring.devices)))
    for slot, row in enumerate(table.tolist()):
        assert tuple(ring.devices[j] for j in row) == ref.walk_from(ring, slot, n)
        assert names[slot] == ref.walk_from(ring, slot, n)
    assert ring.slots(key_points("ks", keys)).tolist() == [
        ref.ring_slot(ring, "ks", key) for key in keys
    ]
    for key in keys:
        assert ring.owners("ks", key, n) == ref.ring_owners(ring, "ks", key, n)


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(
    ring=rings(),
    replicas=st.integers(1, 4),
    past=CHAINS,
    migration=st.none() | CHANGES,
    keys=KEYS,
)
def test_locate_many_matches_the_chain_walk(ring, replicas, past, migration, keys):
    lk = LogicalKeyspace("ks", ring, replicas)
    for dev, weight in past:
        lk.rings.append(ref.ring_change(lk.rings[-1], dev, weight))
    names, owners, epochs = lk.locate_many(keys)
    for i, key in enumerate(keys):
        devs, epoch = ref.locate_chain(lk, lk.rings, key)
        assert epochs[i] == epoch
        assert tuple(names[j] for j in owners[i] if j >= 0) == devs
        assert lk.locate(key) == ref.locate(lk, key)
    if migration is None:
        return
    lk.migration = _Migration(ref.ring_change(lk.rings[-1], *migration), len(lk.rings))
    names, owners, epochs = lk.locate_many(keys, pending=True)
    for i, key in enumerate(keys):
        moved = ref.locate_pending(lk, key)
        assert lk.locate_pending(key) == moved
        if moved is None:
            assert epochs[i] == -1
        else:
            assert epochs[i] == len(lk.rings)
            assert tuple(names[j] for j in owners[i] if j >= 0) == moved[0]
