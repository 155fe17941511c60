"""Online rebalancing: migrate keyspace slices between devices, live.

A :class:`RingChange` moves the cluster from its current placement ring to
a new one (device added, device drained, weights retuned) while foreground
traffic keeps flowing.  Per sealed keyspace the migration:

1. **scans** every physical slice (full-range queries fanned out to all
   holding devices) and keeps the rows whose owner set changes under the
   new ring;
2. **copies** them into a ``<keyspace>.m<epoch>`` fragment on the
   destination devices through a bounded bulk-put pipeline (``copy_qd``
   outstanding messages per destination, so the copy shares queue slots
   with foreground commands instead of starving them);
3. **seals** the fragment — fsync, compact (replaying the keyspace's
   secondary-index configs), wait — and flips ``fragment_ready``, at which
   point the router dual-reads moving keys from both locations (old copy
   authoritative, new copy compared against it);
4. **verifies** the copy with batched old-vs-new multi-GETs (the bench
   requires zero mismatches), then
5. **cuts over**: the new ring is appended to the keyspace's epoch chain
   and the fragment becomes the authoritative home of the moved slice.

Source shards are *not* rewritten — the router's locate-filter drops the
stale copies from scans, which is what makes cutover a metadata-only flip.
Unsealed (still-writable) keyspaces keep their creation-time placement and
are skipped; they seal before they ever need to move.

Progress (``cluster.migration.progress`` / ``copied_pairs``) is exported
through the router's :meth:`~repro.cluster.router.ClusterRouter.metric_gauges`
and every phase journals ``ring.change_*`` / ``migrate.*`` events, so the
timeline and the explain report can attribute foreground tail latency to a
migration in flight.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter, LogicalKeyspace, _Migration
from repro.core.wire import split_into_messages
from repro.errors import SimulationError
from repro.nvme.kv_commands import (
    CompactCmd,
    CreateKeyspaceCmd,
    KvBulkPutCmd,
    KvFsyncCmd,
    KvMultiGetCmd,
    OpenKeyspaceCmd,
    RangeQueryCmd,
    WaitCompactionCmd,
)
from repro.obs.journal import journal_event
from repro.obs.trace import CAT_JOB, trace_span

__all__ = [
    "RingChange",
    "MigrationReport",
    "plan_ring_change",
    "execute_ring_change",
]

#: upper bound above any real key (keys are tens of bytes)
_KEY_MAX = b"\xff" * 64
#: keys per verification multi-GET batch
_VERIFY_BATCH = 256


@dataclass(frozen=True)
class RingChange:
    """A planned placement change: which ring, which keyspaces move."""

    new_ring: HashRing
    #: sealed keyspaces whose slices may move (scanned by the executor)
    keyspaces: tuple[str, ...]
    #: still-writable keyspaces left on their creation-time placement
    skipped: tuple[str, ...]
    devices_added: tuple[str, ...]
    devices_removed: tuple[str, ...]


@dataclass(frozen=True)
class KeyspaceMigration:
    """Per-keyspace outcome of one executed ring change."""

    keyspace: str
    epoch: int
    scanned_pairs: int
    moved_pairs: int
    destinations: tuple[str, ...]
    verified_pairs: int
    mismatches: int


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of :func:`execute_ring_change`."""

    started_at: float
    finished_at: float
    keyspaces: tuple[KeyspaceMigration, ...] = field(default_factory=tuple)
    skipped: tuple[str, ...] = ()

    @property
    def moved_pairs(self) -> int:
        return sum(m.moved_pairs for m in self.keyspaces)

    @property
    def scanned_pairs(self) -> int:
        return sum(m.scanned_pairs for m in self.keyspaces)

    @property
    def verified_pairs(self) -> int:
        return sum(m.verified_pairs for m in self.keyspaces)

    @property
    def mismatches(self) -> int:
        return sum(m.mismatches for m in self.keyspaces)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


def plan_ring_change(
    router: ClusterRouter, new_ring: HashRing
) -> RingChange:
    """Describe what moving to ``new_ring`` would touch (no simulation)."""
    unknown = set(new_ring.devices) - set(router.devices)
    if unknown:
        raise SimulationError(
            f"ring change names devices the router does not own: "
            f"{sorted(unknown)}"
        )
    old = set(router.ring.devices)
    new = set(new_ring.devices)
    sealed = tuple(
        name for name, lk in sorted(router.keyspaces.items()) if lk.sealed
    )
    skipped = tuple(
        name for name, lk in sorted(router.keyspaces.items()) if not lk.sealed
    )
    return RingChange(
        new_ring=new_ring,
        keyspaces=sealed,
        skipped=skipped,
        devices_added=tuple(sorted(new - old)),
        devices_removed=tuple(sorted(old - new)),
    )


def execute_ring_change(
    router: ClusterRouter,
    new_ring: HashRing,
    ctx,
    copy_qd: int = 4,
) -> Generator:
    """Migrate to ``new_ring`` under live traffic; returns a report.

    ``ctx`` is the host thread driving the migration — its CPU charges and
    queue waits contend with foreground threads exactly like any other
    client, which is the point: the bench measures foreground p99 *while*
    this generator runs.  ``copy_qd`` bounds outstanding copy messages per
    destination device.
    """
    change = plan_ring_change(router, new_ring)
    env = router.env
    started_at = env.now
    journal_event(
        env, "ring.change_begin",
        devices=len(new_ring.devices),
        added=list(change.devices_added),
        removed=list(change.devices_removed),
        keyspaces=len(change.keyspaces),
    )
    migrations: list[KeyspaceMigration] = []
    with trace_span(
        env, "migrate.ring_change", CAT_JOB, lane="cluster",
        devices=len(new_ring.devices),
    ):
        for name in change.keyspaces:
            lk = router.keyspaces[name]
            outcome = yield from _migrate_keyspace(
                router, lk, new_ring, ctx, copy_qd
            )
            if outcome is not None:
                migrations.append(outcome)
    router.ring = new_ring
    journal_event(
        env, "ring.change_end",
        devices=len(new_ring.devices),
        moved_pairs=sum(m.moved_pairs for m in migrations),
    )
    return MigrationReport(
        started_at=started_at,
        finished_at=env.now,
        keyspaces=tuple(migrations),
        skipped=change.skipped,
    )


def _migrate_keyspace(
    router: ClusterRouter,
    lk: LogicalKeyspace,
    new_ring: HashRing,
    ctx,
    copy_qd: int,
) -> Generator:
    """Move one sealed keyspace's affected slice; ``None`` if nothing moves."""
    env = router.env
    epoch = len(lk.rings)
    mig = _Migration(new_ring, epoch)
    lk.migration = mig

    # -- scan every slice, keep authoritative rows whose owners change
    sources = lk.physical_locations()
    scans = yield from router._fan_out(
        (
            (dev, RangeQueryCmd(keyspace=phys, lo=b"", hi=_KEY_MAX))
            for dev, phys in sources
        ),
        ctx, "range_query", migrate=lk.name,
    )
    scanned = 0
    moved: list[tuple[bytes, bytes]] = []
    move_dests: dict[bytes, tuple[str, ...]] = {}
    seen: set[bytes] = set()
    for (dev, phys), completion in zip(sources, scans):
        scanned += len(completion.value)
        for key, value in completion.value:
            loc_devs, loc_phys = lk.locate(key)
            if phys != loc_phys or dev not in loc_devs or key in seen:
                continue  # stale leftover or replica duplicate
            seen.add(key)
            new_devs, new_phys = lk.locate_pending(key)
            if (set(new_devs), new_phys) != (set(loc_devs), loc_phys):
                moved.append((key, value))
                move_dests[key] = new_devs
    if not moved:
        lk.migration = None
        return None
    mig.total_pairs = len(moved)
    fragment = lk.fragment_name(epoch)
    dests = tuple(sorted({d for devs in move_dests.values() for d in devs}))
    journal_event(
        env, "migrate.slice_begin",
        keyspace=lk.name, epoch=epoch, pairs=len(moved), dests=list(dests),
    )

    # -- create the fragment on every destination
    yield from router._fan_out(
        [(d, CreateKeyspaceCmd(name=fragment)) for d in dests],
        ctx, "create_keyspace", migrate=lk.name,
    )
    yield from router._fan_out(
        [(d, OpenKeyspaceCmd(name=fragment)) for d in dests],
        ctx, "open_keyspace", migrate=lk.name,
    )

    # -- bounded bulk-put pipeline, messages round-robined across dests
    per_dev: dict[str, list[tuple[bytes, bytes]]] = {}
    for key, value in moved:
        for dev in move_dests[key]:
            per_dev.setdefault(dev, []).append((key, value))
    message_queues = [
        (dev, deque(split_into_messages(
            pairs, router.clients[dev].bulk_message_bytes
        )))
        for dev, pairs in sorted(
            per_dev.items(), key=lambda kv: router._order[kv[0]]
        )
    ]
    window = max(1, copy_qd) * len(message_queues)
    outstanding: deque = deque()
    while any(q for _, q in message_queues):
        for dev, q in message_queues:
            if not q:
                continue
            if len(outstanding) >= window:
                client, ticket, npairs = outstanding.popleft()
                yield from client.qp.wait(ticket, ctx)
                mig.copied_pairs += npairs
            message = q.popleft()
            client = router.clients[dev]
            ticket = yield from client.qp.post(
                KvBulkPutCmd.of(fragment, message), ctx, op="bulk_put",
                span_args={"dev": dev, "migrate": lk.name},
            )
            outstanding.append((client, ticket, len(message)))
    while outstanding:
        client, ticket, npairs = outstanding.popleft()
        yield from client.qp.wait(ticket, ctx)
        mig.copied_pairs += npairs

    # -- seal the fragment: fsync, compact with the keyspace's indexes, wait
    yield from router._fan_out(
        [(d, KvFsyncCmd(keyspace=fragment)) for d in dests],
        ctx, "fsync", migrate=lk.name,
    )
    sidx_wire = tuple(
        (c.name, c.value_offset, c.width, c.dtype)
        for c in router.sidx_configs.get(lk.name, ())
    )
    yield from router._fan_out(
        [(d, CompactCmd(keyspace=fragment, sidx=sidx_wire)) for d in dests],
        ctx, "compact", migrate=lk.name,
    )
    yield from router._fan_out(
        [(d, WaitCompactionCmd(keyspace=fragment)) for d in dests],
        ctx, "wait_for_device", migrate=lk.name,
    )

    # -- both copies queryable: foreground GETs start dual-reading
    mig.fragment_ready = True

    # -- verify the copy old-vs-new in batches before trusting cutover
    verified = mismatches = 0
    keys = [k for k, _ in moved]
    for i in range(0, len(keys), _VERIFY_BATCH):
        batch = keys[i : i + _VERIFY_BATCH]
        old_groups: dict[tuple[str, str], list[bytes]] = {}
        new_groups: dict[str, list[bytes]] = {}
        for key in batch:
            loc_devs, loc_phys = lk.locate(key)
            old_groups.setdefault(
                (router._pick(loc_devs), loc_phys), []
            ).append(key)
            new_groups.setdefault(router._pick(move_dests[key]), []).append(key)
        targets = [
            (dev, KvMultiGetCmd(keyspace=phys, keys=tuple(group)))
            for (dev, phys), group in sorted(
                old_groups.items(),
                key=lambda kv: (router._order[kv[0][0]], kv[0][1]),
            )
        ] + [
            (dev, KvMultiGetCmd(keyspace=fragment, keys=tuple(group)))
            for dev, group in sorted(
                new_groups.items(), key=lambda kv: router._order[kv[0]]
            )
        ]
        completions = yield from router._fan_out(
            targets, ctx, "multi_get", migrate=lk.name
        )
        old_vals: dict[bytes, bytes] = {}
        new_vals: dict[bytes, bytes] = {}
        n_old = len(old_groups)
        for j, completion in enumerate(completions):
            (old_vals if j < n_old else new_vals).update(completion.value)
        for key in batch:
            verified += 1
            if old_vals.get(key) != new_vals.get(key):
                mismatches += 1
    journal_event(
        env, "migrate.slice_end",
        keyspace=lk.name, epoch=epoch, verified=verified,
        mismatches=mismatches,
    )
    if mismatches:
        lk.migration = None
        raise SimulationError(
            f"migration verify failed for {lk.name!r}: {mismatches} of "
            f"{verified} moved pairs differ between old and new copies"
        )

    # -- cutover: metadata-only flip, the fragment is now authoritative
    lk.rings.append(new_ring)
    lk.fragment_devices[epoch] = dests
    lk.migration = None
    router.counters["migrated_pairs"] += len(moved)
    journal_event(
        env, "migrate.cutover",
        keyspace=lk.name, epoch=epoch, pairs=len(moved),
    )
    return KeyspaceMigration(
        keyspace=lk.name,
        epoch=epoch,
        scanned_pairs=scanned,
        moved_pairs=len(moved),
        destinations=dests,
        verified_pairs=verified,
        mismatches=mismatches,
    )
