"""Reference placement: the ring walk, epoch chain and owner grouping the
router ran key by key before its slot tables and array split.

``ring_owners`` walks a ring clockwise from one key's point, and
``locate_chain`` walks a keyspace's epoch chain comparing Python sets;
``test_ring_property`` holds :meth:`HashRing.owners`, :meth:`HashRing.slots`,
the slot table and :meth:`LogicalKeyspace.locate_many` to them.  Each
``*_targets`` function rebuilds, key by key, the ``(device, command)``
targets one grouped router path posts: ``locate`` every key, collect it
under its ``(device, physical keyspace)`` with ``setdefault(...).append``,
then sort the groups by fleet order and keyspace name; ``scatter_rows``
merges a range query's runs checking one ``holds`` per row.
``test_split_property`` holds :meth:`ClusterRouter._split` and the scan
filters to these.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from itertools import zip_longest

from repro.cluster.ring import HashRing, key_point
from repro.core.wire import split_into_messages
from repro.nvme.kv_commands import KvBulkDeleteCmd, KvBulkPutCmd, KvMultiGetCmd


def walk_from(ring, start, n):
    """The first ``n`` distinct devices clockwise from ring slot ``start``."""
    n = min(n, len(ring.devices))
    chosen = []
    seen = set()
    total = len(ring._points)
    for step in range(total):
        dev = ring._owners_at[(start + step) % total]
        if dev not in seen:
            seen.add(dev)
            chosen.append(dev)
            if len(chosen) == n:
                break
    return tuple(chosen)


def ring_slot(ring, keyspace, key):
    return bisect_right(ring._positions, key_point(keyspace, key)) % len(ring._points)


def ring_owners(ring, keyspace, key, n=1):
    """``HashRing.owners`` as a per-key walk of the ring."""
    return walk_from(ring, ring_slot(ring, keyspace, key), n)


def locate_chain(lk, rings, key):
    owners = chosen = ring_owners(rings[0], lk.name, key, lk.replicas)
    epoch = 0
    for e in range(1, len(rings)):
        nxt = ring_owners(rings[e], lk.name, key, lk.replicas)
        if set(nxt) != set(owners):
            epoch, chosen = e, nxt
        owners = nxt
    return chosen, epoch


def ring_change(ring, dev, weight):
    """One drawn ring change: ``weight`` ``None`` adds ``dev`` or removes it
    (unless it is the last device); a weight (re)weights it, adding it if
    absent."""
    if weight is None:
        if dev not in ring.devices:
            return ring.add_device(dev)
        return ring.remove_device(dev) if len(ring.devices) > 1 else ring
    devices = ring.devices if dev in ring.devices else (*ring.devices, dev)
    return HashRing(
        devices, vnodes=ring.vnodes, weights={**ring.weights, dev: weight},
        salt=ring.salt,
    )


def _phys(lk, epoch):
    return lk.name if epoch == 0 else lk.fragment_name(epoch)


def locate(lk, key):
    """Authoritative ``(replica devices, physical keyspace)`` of ``key``."""
    devs, epoch = locate_chain(lk, lk.rings, key)
    return devs, _phys(lk, epoch)


def locate_pending(lk, key):
    """Where the active migration moves ``key``, or ``None`` if it stays."""
    devs, epoch = locate_chain(lk, [*lk.rings, lk.migration.new_ring], key)
    return (devs, _phys(lk, epoch)) if epoch == len(lk.rings) else None


def after_cutover(lk, key):
    """Where ``key`` lives once the active migration cuts over."""
    devs, epoch = locate_chain(lk, [*lk.rings, lk.migration.new_ring], key)
    return devs, _phys(lk, epoch)


def holds(lk, dev, phys, key):
    """Whether ``dev``'s copy of ``key`` in ``phys`` is authoritative."""
    devs, loc_phys = locate(lk, key)
    return phys == loc_phys and dev in devs


def moves(lk, key):
    """Whether the active migration changes ``key``'s owners."""
    devs, phys = locate(lk, key)
    new_devs, new_phys = after_cutover(lk, key)
    return (set(new_devs), new_phys) != (set(devs), phys)


def _sorted_groups(router, groups):
    return sorted(
        groups.items(), key=lambda kv: (router._order[kv[0][0]], kv[0][1])
    )


def bulk_put_targets(router, lk, pairs):
    groups = {}
    for key, value in pairs:
        devs, phys = locate(lk, key)
        for dev in devs:
            groups.setdefault((dev, phys), []).append((key, value))
    per_owner = [
        [
            (dev, KvBulkPutCmd.of(phys, message))
            for message in split_into_messages(
                group, router.clients[dev].bulk_message_bytes
            )
        ]
        for (dev, phys), group in _sorted_groups(router, groups)
    ]
    return [
        target for round_ in zip_longest(*per_owner)
        for target in round_ if target is not None
    ]


def bulk_delete_targets(router, lk, keys):
    groups = {}
    for key in keys:
        devs, phys = locate(lk, key)
        for dev in devs:
            groups.setdefault((dev, phys), []).append(key)
    return [
        (dev, KvBulkDeleteCmd(keyspace=phys, keys=tuple(group)))
        for (dev, phys), group in _sorted_groups(router, groups)
    ]


def multi_get_targets(router, lk, keys):
    """Primary groups, then the shadow groups of a ready migration."""
    groups = {}
    pending_groups = {}
    mig = lk.migration
    dual = mig is not None and mig.fragment_ready
    for key in keys:
        devs, phys = locate(lk, key)
        groups.setdefault((router._pick(devs), phys), []).append(key)
        if dual and moves(lk, key):
            new_devs, new_phys = after_cutover(lk, key)
            pending_groups.setdefault(
                (router._pick(new_devs), new_phys), []
            ).append(key)
    return [
        (dev, KvMultiGetCmd(keyspace=phys, keys=tuple(group)))
        for bucket in (groups, pending_groups)
        for (dev, phys), group in _sorted_groups(router, bucket)
    ]


def migration_copy_targets(router, lk, rows):
    """Copy messages per destination, in fleet order, for the authoritative
    scan ``rows``; rows whose owners do not change are dropped."""
    fragment = lk.fragment_name(lk.migration.epoch)
    moved = []
    move_dests = {}
    for key, value in rows:
        if moves(lk, key):
            moved.append((key, value))
            move_dests[key] = after_cutover(lk, key)[0]
    per_dev = {}
    for key, value in moved:
        for dev in move_dests[key]:
            per_dev.setdefault(dev, []).append((key, value))
    return [
        (dev, KvBulkPutCmd.of(fragment, message))
        for dev, pairs in sorted(
            per_dev.items(), key=lambda kv: router._order[kv[0]]
        )
        for message in split_into_messages(
            pairs, router.clients[dev].bulk_message_bytes
        )
    ]


def migration_verify_targets(router, lk, batch):
    """Old-location MultiGets, then fragment MultiGets, for a batch of
    keys that all move."""
    fragment = lk.fragment_name(lk.migration.epoch)
    old_groups = {}
    new_groups = {}
    for key in batch:
        loc_devs, loc_phys = locate(lk, key)
        old_groups.setdefault((router._pick(loc_devs), loc_phys), []).append(key)
        new_devs, _ = after_cutover(lk, key)
        new_groups.setdefault(router._pick(new_devs), []).append(key)
    return [
        (dev, KvMultiGetCmd(keyspace=phys, keys=tuple(group)))
        for (dev, phys), group in _sorted_groups(router, old_groups)
    ] + [
        (dev, KvMultiGetCmd(keyspace=fragment, keys=tuple(group)))
        for dev, group in sorted(
            new_groups.items(), key=lambda kv: router._order[kv[0]]
        )
    ]


def scatter_rows(lk, sources, runs, sort_key):
    """``_scatter_sorted``'s merge: a row is checked as the merge reaches it."""
    merged = []
    last_key = None
    for skey, dev, phys, row in heapq.merge(*(
        [(sort_key(row), dev, phys, row) for row in run]
        for (dev, phys), run in zip(sources, runs)
    )):
        if not holds(lk, dev, phys, row[0]):
            continue
        if last_key is not None and skey == last_key and merged and merged[-1] == row:
            continue
        merged.append(row)
        last_key = skey
    return merged

