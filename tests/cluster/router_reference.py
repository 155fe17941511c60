"""Reference owner grouping: the router's per-key loops before ``_split``.

Each function rebuilds, key by key, the ``(device, command)`` targets one
grouped router path posts: ``locate`` every key, collect it under its
``(device, physical keyspace)`` with ``setdefault(...).append``, then sort
the groups by fleet order and keyspace name.  ``test_split_property``
holds :meth:`ClusterRouter._split` to these lists.
"""

from __future__ import annotations

from itertools import zip_longest

from repro.core.wire import split_into_messages
from repro.nvme.kv_commands import KvBulkDeleteCmd, KvBulkPutCmd, KvMultiGetCmd


def _locate_pending(lk, key):
    """Where ``key`` lives once the active migration cuts over."""
    rings = [*lk.rings, lk.migration.new_ring]
    devs, epoch = lk._locate_chain(rings, key)
    return devs, (lk.name if epoch == 0 else lk.fragment_name(epoch))


def moves(lk, key):
    """Whether the active migration changes ``key``'s owners."""
    devs, phys = lk.locate(key)
    new_devs, new_phys = _locate_pending(lk, key)
    return (set(new_devs), new_phys) != (set(devs), phys)


def _sorted_groups(router, groups):
    return sorted(
        groups.items(), key=lambda kv: (router._order[kv[0][0]], kv[0][1])
    )


def bulk_put_targets(router, lk, pairs):
    groups = {}
    for key, value in pairs:
        devs, phys = lk.locate(key)
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
        devs, phys = lk.locate(key)
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
        devs, phys = lk.locate(key)
        groups.setdefault((router._pick(devs), phys), []).append(key)
        if dual and moves(lk, key):
            new_devs, new_phys = _locate_pending(lk, key)
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
            move_dests[key] = _locate_pending(lk, key)[0]
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
        loc_devs, loc_phys = lk.locate(key)
        old_groups.setdefault((router._pick(loc_devs), loc_phys), []).append(key)
        new_devs, _ = _locate_pending(lk, key)
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
