"""Host-side cluster router: N KV-CSD devices as one logical store.

The router serves the calls :class:`~repro.workloads.adapters.KvCsdAdapter`
makes of a :class:`~repro.core.client.KvCsdClient` (create/open, bulk PUT,
compact, wait, GET, range query) plus the few the benches and ``perf/``
use (``submit_many``, ``multi_get``, ``put``/``bulk_delete``, ``fsync``,
``sidx_point_query``), while owning one
:class:`~repro.nvme.queues.KvQueuePair` per device and driving them
concurrently:

* one owner split (:meth:`ClusterRouter._split`) groups every keyed batch
  by ``(device, physical keyspace)`` in fleet order — bulk PUTs/deletes,
  multi-GETs and the rebalancer's copy and verify all use it;
* reads go to the least-loaded replica (live ``qp.inflight``, fleet order
  as the deterministic tie-break); writes go to every replica;
* ``submit_many`` posts a batch of point reads at QD>1 — one slow device
  backpressures only its own queue slots;
* bulk PUTs round-robin their 128 KB messages across the owning devices'
  queues;
* range/SIDX scans scatter to every device holding a slice and stream an
  ordered merge on the host (``heapq.merge`` over per-device sorted runs).

Placement history is an *epoch chain*: every logical keyspace remembers
the ring it was created under plus one ring per completed migration.  A
key's location is decided by the last epoch at which its owner set
changed — it lives in the base keyspace on its epoch-0 owners, or in the
``<name>.m<epoch>`` fragment written by that epoch's migration.  Writable
keyspaces keep their creation-time placement (the device only accepts
writes before sealing); rebalancing migrates sealed keyspaces, which is
exactly the compacted, query-ready data worth moving.

Observability: every routed operation opens a ``cluster.<op>`` command
span; the per-device ``cmd.*`` spans it fans out are parented under it
(and stamped with ``dev=<device>``), so ``repro run cluster --explain``
attributes cluster-level tail latency to device-labeled queue-pair resources and
``validate_trace.py`` can check the fan-out tree shape.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator, Iterable, Sequence
from dataclasses import replace as dc_replace
from itertools import zip_longest
from typing import Any, Optional

import numpy as np

from repro.cluster.ring import HashRing, key_point, key_points
from repro.core.client import KvCsdClient
from repro.core.sidx import SidxConfig
from repro.core.wire import split_into_messages
from repro.errors import KeyspaceNotFoundError, NvmeError, SimulationError
from repro.nvme.commands import Completion
from repro.nvme.kv_commands import (
    CompactCmd,
    CreateKeyspaceCmd,
    KvBulkDeleteCmd,
    KvBulkPutCmd,
    KvCommand,
    KvExistCmd,
    KvFsyncCmd,
    KvGetCmd,
    KvMultiGetCmd,
    ListKeyspacesCmd,
    OpenKeyspaceCmd,
    RangeQueryCmd,
    SidxPointQueryCmd,
    WaitCompactionCmd,
)
from repro.obs.trace import CAT_COMMAND, trace_span

__all__ = ["ClusterRouter", "LogicalKeyspace"]

#: the point reads ``submit_many`` routes, with the op name their command
#: span gets (matching the single-device client's vocabulary)
_BATCH_OPS = {KvGetCmd: "get", KvExistCmd: "exist"}


class _Migration:
    """Live state of one in-flight ring change for a keyspace."""

    __slots__ = ("new_ring", "epoch", "fragment_ready", "total_pairs",
                 "copied_pairs")

    def __init__(self, new_ring: HashRing, epoch: int):
        self.new_ring = new_ring
        self.epoch = epoch
        #: flips once the destination fragment is compacted and queryable —
        #: only then do foreground GETs dual-read old + new locations
        self.fragment_ready = False
        self.total_pairs = 0
        self.copied_pairs = 0


class LogicalKeyspace:
    """Router-side routing state for one logical keyspace."""

    def __init__(self, name: str, ring: HashRing, replicas: int):
        self.name = name
        #: epoch chain: ring at creation plus one ring per completed
        #: migration; never mutated in place (rings are immutable)
        self.rings: list[HashRing] = [ring]
        #: epoch -> devices that received that migration's fragment
        self.fragment_devices: dict[int, tuple[str, ...]] = {}
        self.replicas = replicas
        self.sealed = False
        self.migration: Optional[_Migration] = None

    def fragment_name(self, epoch: int) -> str:
        """The physical keyspace written at ``epoch`` (0: the base)."""
        return f"{self.name}.m{epoch}" if epoch else self.name

    def _walk(
        self, rings: Sequence[HashRing], key: bytes
    ) -> tuple[tuple[str, ...], int]:
        """Scalar :meth:`locate_many`: the owners at the last epoch whose
        owner set differs from the epoch before (0 if none does)."""
        point = key_point(self.name, key)
        sets = [ring.owners_at(point, self.replicas) for ring in rings]
        epoch = max(
            (e for e in range(1, len(sets)) if set(sets[e]) != set(sets[e - 1])),
            default=0,
        )
        return sets[epoch], epoch

    def locate(self, key: bytes) -> tuple[tuple[str, ...], str]:
        """Authoritative ``(replica devices, physical keyspace)`` of a key."""
        devs, epoch = self._walk(self.rings, key)
        return devs, self.fragment_name(epoch)

    def locate_pending(
        self, key: bytes
    ) -> Optional[tuple[tuple[str, ...], str]]:
        """Where the active migration moves the key, or ``None`` when its
        owner set does not change (it stays where :meth:`locate` says)."""
        devs, epoch = self._walk([*self.rings, self.migration.new_ring], key)
        return (devs, self.fragment_name(epoch)) if epoch == len(self.rings) else None

    def locate_many(
        self, keys: Sequence[bytes], pending: bool = False
    ) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """Batch :meth:`locate` (:meth:`locate_pending`): ``(names, owners,
        epochs)``; ``owners[i]`` indexes ``names`` (-1 pads a clamped replica
        set), ``epochs[i]`` is -1 where ``pending`` leaves a key.  One pass
        per ring; owner sets compare as one bit per device."""
        rings = [*self.rings, self.migration.new_ring] if pending else self.rings
        names = tuple(dict.fromkeys(d for ring in rings for d in ring.devices))
        rows = np.arange(len(keys))[:, None]
        points = key_points(self.name, keys)
        for e, ring in enumerate(rings):
            table = ring.table(self.replicas)[0]
            nxt = np.full((len(keys), self.replicas), -1)
            nxt[:, : table.shape[1]] = np.array(
                [names.index(dev) for dev in ring.devices]
            )[table[ring.slots(points)]]
            mask = np.zeros((len(keys), len(names) + 1), bool)  # last: padding
            mask[rows, nxt] = True
            if e == 0:
                owners, epochs = nxt, np.zeros(len(keys), np.intp)
            else:
                moved = (mask != members).any(axis=1)
                owners[moved], epochs[moved] = nxt[moved], e
            members = mask
        if pending:
            epochs[epochs != len(self.rings)] = -1
        return names, owners, epochs

    def held(self, dev: str, phys: str, rows: Sequence[tuple]) -> list[tuple]:
        """The ``(key, ...)`` rows whose copy on ``dev`` in ``phys`` is
        authoritative — not a leftover a past migration moved elsewhere."""
        names, owners, epochs = self.locate_many([row[0] for row in rows])
        epoch = {self.fragment_name(e): e for e in (0, *self.fragment_devices)}
        keep = (epochs == epoch.get(phys, -1)) & (owners == names.index(dev)).any(axis=1)
        return [row for row, ok in zip(rows, keep.tolist()) if ok]

    def physical_locations(self) -> list[tuple[str, str]]:
        """Every ``(device, physical keyspace)`` holding a slice of this
        keyspace — base shards first, then fragments by epoch."""
        locs = [(dev, self.name) for dev in self.rings[0].devices]
        for epoch in sorted(self.fragment_devices):
            locs.extend(
                (dev, self.fragment_name(epoch))
                for dev in self.fragment_devices[epoch]
            )
        return locs


class ClusterRouter:
    """One logical KV-CSD built from N devices behind per-device QPs."""

    def __init__(
        self,
        clients: Sequence[tuple[str, KvCsdClient]],
        ring: Optional[HashRing] = None,
        replicas: int = 1,
        merge_cpu_per_pair: float = 2e-8,
    ):
        if not clients:
            raise SimulationError("a cluster router needs at least one device")
        self.clients: dict[str, KvCsdClient] = dict(clients)
        if len(self.clients) != len(clients):
            raise SimulationError("duplicate device names")
        self.devices: tuple[str, ...] = tuple(name for name, _ in clients)
        self._order = {name: i for i, name in enumerate(self.devices)}
        first = self.clients[self.devices[0]]
        self.env = first.env
        self.ring: HashRing = ring or HashRing(self.devices)
        unknown = set(self.ring.devices) - set(self.devices)
        if unknown:
            raise SimulationError(f"ring names unknown devices: {sorted(unknown)}")
        if replicas < 1 or replicas > len(self.devices):
            raise SimulationError("replicas must be in [1, n_devices]")
        self.replicas = replicas
        #: host CPU charged per merged row in scatter/merge scans
        self.merge_cpu_per_pair = merge_cpu_per_pair
        self.keyspaces: dict[str, LogicalKeyspace] = {}
        #: secondary-index configs seen per keyspace, replayed onto
        #: migration fragments so SIDX queries keep working after a move
        self.sidx_configs: dict[str, tuple[SidxConfig, ...]] = {}
        #: cluster-level counters: dual-read verification + routing volume
        self.counters = {
            "gets": 0,
            "dual_reads": 0,
            "stale_reads": 0,
            "migrated_pairs": 0,
            "coalesced_reads": 0,
        }
        self._rid = 0

    # ------------------------------------------------------------------ plumbing
    def _lk(self, name: str) -> LogicalKeyspace:
        lk = self.keyspaces.get(name)
        if lk is None:
            raise KeyspaceNotFoundError(f"unknown keyspace {name!r}")
        return lk

    def _span(self, op: str, **args):
        self._rid += 1
        return trace_span(
            self.env, f"cluster.{op}", CAT_COMMAND, lane="cluster",
            rid=self._rid, **args,
        )

    def _pick(self, devs: Sequence[str]) -> str:
        """Least-loaded replica; fleet order breaks ties deterministically."""
        return min(
            devs,
            key=lambda d: (self.clients[d].qp.inflight, self._order[d]),
        )

    def _post(
        self, dev: str, command: KvCommand, ctx, op: str, **span_args
    ) -> Generator:
        """Post one command to ``dev``; its span is stamped with the device
        (and a bulk PUT's with its pair count)."""
        client = self.clients[dev]
        if isinstance(command, KvBulkPutCmd):
            span_args["pairs"] = len(command.keys)
        ticket = yield from client.qp.post(
            command, ctx, op=op, span_args={"dev": dev, **span_args}
        )
        return client, ticket

    def _fan_out(
        self, targets: Iterable[tuple[str, KvCommand]], ctx, op: str,
        **span_args,
    ) -> Generator:
        """Post one command per ``(device, command)`` target, in order,
        then reap them all; completions come back in target order (see
        :meth:`_wait_all`)."""
        parts = []
        for dev, command in targets:
            parts.append((yield from self._post(dev, command, ctx, op, **span_args)))
        return (yield from self._wait_all(parts, ctx))

    def _wait_all(
        self, parts: Sequence[tuple[KvCsdClient, Any]], ctx
    ) -> Generator:
        """Reap every ticket, then surface the first error (if any).

        Reaping everything before raising keeps the queue pairs' slot
        accounting exact even when one device fails — no orphaned tickets.
        """
        completions: list[Completion] = []
        for client, ticket in parts:
            completions.append(
                (yield from client.qp.wait(ticket, ctx, raise_on_error=False))
            )
        for completion in completions:
            if not completion.ok:
                if completion.error is not None:
                    raise completion.error
                raise NvmeError(completion.status, "cluster op failed")
        return completions

    def _split(
        self,
        lk: LogicalKeyspace,
        keys: Sequence[bytes],
        write: bool,
        pending: bool = False,
    ) -> list[tuple[str, str, list[int]]]:
        """Group ``keys`` by owner: ``[(device, physical keyspace, indices)]``.

        Groups come in fleet order, then by physical keyspace; each group's
        indices into ``keys`` keep input order, duplicates included.  A
        write goes to every replica, a read to the least-loaded one.  With
        ``pending`` a key goes where the active migration moves it, and a
        key that does not move is dropped.
        """
        names, owners, epochs = lk.locate_many(keys, pending)
        if write:  # every replica, key-major: each group keeps input order
            rows = np.repeat(np.arange(len(keys)), owners.shape[1])
            devs, epochs = owners.ravel(), epochs[rows]
        else:  # ``qp.inflight`` cannot move here: one pick per owner tuple
            rows = np.arange(len(keys))
            unique, inverse = np.unique(owners, axis=0, return_inverse=True)
            devs = np.array([
                names.index(self._pick([names[j] for j in row if j >= 0]))
                for row in unique.tolist()
            ], np.intp)[inverse.reshape(-1)]
        phys = [*map(lk.fragment_name, range(len(lk.rings) + pending))]
        rank = np.argsort(np.argsort(phys))  # string order: "ks.m10" < "ks.m2"
        code = np.array([self._order[dev] for dev in names])[devs] * len(phys)
        code += rank[epochs]
        keep = np.flatnonzero((devs >= 0) & (epochs >= 0))
        perm = keep[np.argsort(code[keep], kind="stable")]
        starts = np.flatnonzero(np.diff(code[perm], prepend=-1))
        return [
            (names[devs[perm[s]]], phys[epochs[perm[s]]], idx.tolist())
            for s, idx in zip(starts.tolist(), np.split(rows[perm], starts[1:]))
        ]

    def _write_split(
        self, lk: LogicalKeyspace, keys: Sequence[bytes]
    ) -> list[tuple[str, str, list[int]]]:
        """:meth:`_split` for a write; no keys still make one empty group on
        the first base shard, so the device checks the keyspace exactly as
        it does for one pair (the single-device client's rule)."""
        return self._split(lk, keys, write=True) or [
            (lk.rings[0].devices[0], lk.name, [])
        ]

    def _multi_get_targets(
        self, lk: LogicalKeyspace, keys: Sequence[bytes], dual: bool
    ) -> tuple[list[tuple[str, KvMultiGetCmd]], int]:
        """One MultiGet per primary group, then (with ``dual``) one per
        group the active migration moves; returns them and the primary
        count."""
        groups = self._split(lk, keys, write=False)
        n_primary = len(groups)
        if dual:
            groups += self._split(lk, keys, write=False, pending=True)
        targets = [
            (dev, KvMultiGetCmd(keyspace=phys, keys=tuple(keys[i] for i in idx)))
            for dev, phys, idx in groups
        ]
        return targets, n_primary

    def _broadcast(
        self, command: KvCommand, devices: Sequence[str], ctx, op: str
    ) -> Generator:
        """Post ``command`` to every device concurrently; returns {dev: value}."""
        completions = yield from self._fan_out(
            ((dev, command) for dev in devices), ctx, op
        )
        return {
            dev: completion.value for dev, completion in zip(devices, completions)
        }

    def metric_gauges(self) -> dict:
        """Ring + migration state for MetricsHub/timeline sampling."""

        def active() -> float:
            return float(
                sum(1 for lk in self.keyspaces.values() if lk.migration)
            )

        def progress() -> float:
            total = copied = 0
            for lk in self.keyspaces.values():
                if lk.migration is not None:
                    total += lk.migration.total_pairs
                    copied += lk.migration.copied_pairs
            return copied / total if total else 1.0

        def copied() -> float:
            return float(
                sum(
                    lk.migration.copied_pairs
                    for lk in self.keyspaces.values()
                    if lk.migration is not None
                )
            )

        return {
            "cluster.ring.devices": lambda: float(len(self.ring.devices)),
            "cluster.migration.active": active,
            "cluster.migration.progress": progress,
            "cluster.migration.copied_pairs": copied,
            "cluster.stale_reads": lambda: float(self.counters["stale_reads"]),
        }

    def introspect(self) -> dict:
        return {
            "devices": list(self.devices),
            "ring_devices": list(self.ring.devices),
            "replicas": self.replicas,
            "keyspaces": sorted(self.keyspaces),
            "counters": dict(self.counters),
            "qp": {dev: c.qp.introspect() for dev, c in self.clients.items()},
        }

    # ------------------------------------------------------------------ keyspaces
    def create_keyspace(self, name: str, ctx) -> Generator:
        """Create the keyspace on every current ring device."""
        lk = LogicalKeyspace(name, self.ring, self.replicas)
        with self._span("create_keyspace", keyspace=name):
            yield from self._broadcast(
                CreateKeyspaceCmd(name=name), lk.rings[0].devices, ctx,
                "create_keyspace",
            )
        self.keyspaces[name] = lk

    def open_keyspace(self, name: str, ctx) -> Generator:
        lk = self._lk(name)
        with self._span("open_keyspace", keyspace=name):
            yield from self._broadcast(
                OpenKeyspaceCmd(name=name), lk.rings[0].devices, ctx,
                "open_keyspace",
            )

    def list_keyspaces(self, ctx) -> Generator:
        """Union of device listings, minus internal migration fragments."""
        with self._span("list_keyspaces"):
            per_dev = yield from self._broadcast(
                ListKeyspacesCmd(), self.devices, ctx, "list_keyspaces"
            )
        names: set[str] = set()
        for listed in per_dev.values():
            names.update(listed)
        fragments = {
            lk.fragment_name(epoch)
            for lk in self.keyspaces.values()
            for epoch in lk.fragment_devices
        }
        return sorted(names - fragments)

    # ------------------------------------------------------------------ writes
    def put(self, keyspace: str, key: bytes, value: bytes, ctx) -> Generator:
        yield from self.bulk_put(keyspace, [(key, value)], ctx)

    def bulk_put(
        self, keyspace: str, pairs: Sequence[tuple[bytes, bytes]], ctx
    ) -> Generator:
        """Split pairs by owner; post 128 KB messages to all owners at QD>1.

        Messages round-robin across the owning devices so every device's
        submission queue fills in parallel — aggregate ingest scales with
        the fleet instead of draining one device at a time.
        """
        lk = self._lk(keyspace)
        per_owner = [
            [
                (dev, KvBulkPutCmd.of(phys, message))
                for message in split_into_messages(
                    [pairs[i] for i in idx], self.clients[dev].bulk_message_bytes
                ) or [[]]
            ]
            for dev, phys, idx in self._write_split(lk, [key for key, _ in pairs])
        ]
        # one message per owner per round
        targets = [
            target for round_ in zip_longest(*per_owner)
            for target in round_ if target is not None
        ]
        with self._span("bulk_put", keyspace=keyspace, pairs=len(pairs)):
            yield from self._fan_out(targets, ctx, "bulk_put", keyspace=keyspace)

    def bulk_delete(self, keyspace: str, keys: Sequence[bytes], ctx) -> Generator:
        lk = self._lk(keyspace)
        with self._span("bulk_delete", keyspace=keyspace, keys=len(keys)):
            yield from self._fan_out(
                (
                    (dev, KvBulkDeleteCmd(
                        keyspace=phys, keys=tuple(keys[i] for i in idx)
                    ))
                    for dev, phys, idx in self._write_split(lk, keys)
                ),
                ctx, "bulk_delete", keyspace=keyspace,
            )

    def fsync(self, keyspace: str, ctx) -> Generator:
        lk = self._lk(keyspace)
        with self._span("fsync", keyspace=keyspace):
            yield from self._fan_out(
                (
                    (dev, KvFsyncCmd(keyspace=phys))
                    for dev, phys in lk.physical_locations()
                ),
                ctx, "fsync", keyspace=keyspace,
            )

    # ------------------------------------------------------------------ offloaded
    def compact(
        self, keyspace: str, ctx, secondary_indexes: Sequence[SidxConfig] = ()
    ) -> Generator:
        """Kick off compaction on every base shard; seals the keyspace.

        Sealing freezes the keyspace's placement epoch — from here on a
        ring change migrates its slices instead of re-routing writes.
        """
        lk = self._lk(keyspace)
        if secondary_indexes:
            self.sidx_configs[keyspace] = tuple(secondary_indexes)
        sidx_wire = tuple(
            (c.name, c.value_offset, c.width, c.dtype)
            for c in secondary_indexes
        )
        with self._span("compact", keyspace=keyspace):
            yield from self._broadcast(
                CompactCmd(keyspace=keyspace, sidx=sidx_wire),
                lk.rings[0].devices, ctx, "compact",
            )
        lk.sealed = True

    def wait_for_device(self, keyspace: str, ctx) -> Generator:
        """Wait for offloaded jobs on every shard-holding device."""
        lk = self._lk(keyspace)
        with self._span("wait_for_device", keyspace=keyspace):
            yield from self._fan_out(
                (
                    (dev, WaitCompactionCmd(keyspace=phys))
                    for dev, phys in lk.physical_locations()
                ),
                ctx, "wait_for_device", keyspace=keyspace,
            )

    # ------------------------------------------------------------------ queries
    def get(self, keyspace: str, key: bytes, ctx) -> Generator:
        """Point GET from the least-loaded replica of the owning device.

        During an active migration whose destination fragment is already
        queryable, keys that are moving are read from *both* locations
        concurrently: the old copy stays authoritative until cutover, the
        new copy is compared against it (``stale_reads`` counts any
        mismatch — the bench requires zero).
        """
        lk = self._lk(keyspace)
        self.counters["gets"] += 1
        devs, phys = lk.locate(key)
        mig = lk.migration
        with self._span("get", keyspace=keyspace):
            moved = (
                lk.locate_pending(key)
                if mig is not None and mig.fragment_ready else None
            )
            if moved is not None:
                return (yield from self._dual_get(key, devs, phys, *moved, ctx))
            (completion,) = yield from self._fan_out(
                [(self._pick(devs), KvGetCmd(keyspace=phys, key=key))], ctx,
                "get", keyspace=keyspace,
            )
            return completion.value

    def _dual_get(self, key, devs, phys, new_devs, new_phys, ctx) -> Generator:
        self.counters["dual_reads"] += 1
        old_client, old_ticket = yield from self._post(
            self._pick(devs), KvGetCmd(keyspace=phys, key=key), ctx, "get",
        )
        new_client, new_ticket = yield from self._post(
            self._pick(new_devs), KvGetCmd(keyspace=new_phys, key=key), ctx,
            "get",
        )
        old_c = yield from old_client.qp.wait(old_ticket, ctx, raise_on_error=False)
        new_c = yield from new_client.qp.wait(new_ticket, ctx, raise_on_error=False)
        if old_c.ok and new_c.ok and old_c.value != new_c.value:
            self.counters["stale_reads"] += 1
        if old_c.ok and not new_c.ok:
            # the migration copy is incomplete for this key — a lost read
            # after cutover; surfaced here so the bench's zero-lost check
            # can catch it before cutover ever happens
            self.counters["stale_reads"] += 1
        if not old_c.ok:
            if old_c.error is not None:
                raise old_c.error
            raise NvmeError(old_c.status, "get failed")
        return old_c.value

    def multi_get(self, keyspace: str, keys: Sequence[bytes], ctx) -> Generator:
        """Batched GETs: one MultiGet per owning device, merged on the host."""
        lk = self._lk(keyspace)
        mig = lk.migration
        targets, n_primary = self._multi_get_targets(
            lk, keys, dual=mig is not None and mig.fragment_ready
        )
        with self._span("multi_get", keyspace=keyspace, keys=len(keys)):
            completions = yield from self._fan_out(
                targets, ctx, "multi_get", keyspace=keyspace
            )
            merged: dict[bytes, bytes] = {}
            shadow: dict[bytes, bytes] = {}
            for j, completion in enumerate(completions):
                (merged if j < n_primary else shadow).update(completion.value)
            if shadow:
                self.counters["dual_reads"] += len(shadow)
                for key, value in shadow.items():
                    if key in merged and merged[key] != value:
                        self.counters["stale_reads"] += 1
            if len(keys) > 1:
                yield from ctx.execute(self.merge_cpu_per_pair * len(merged))
            return merged

    def _scatter_sorted(
        self,
        lk: LogicalKeyspace,
        make_cmd,
        ctx,
        op: str,
        sort_key,
    ) -> Generator:
        """Scatter a scan to every slice-holding device; ordered merge.

        Per-device results arrive sorted; ``heapq.merge`` streams them
        into one run.  Rows are kept only when their authoritative
        location matches the device+keyspace they came from — that drops
        both the pre-migration copies left behind in source shards and
        (adjacent-duplicate elimination) the extra replica copies.
        """
        sources = lk.physical_locations()
        completions = yield from self._fan_out(
            ((dev, make_cmd(phys)) for dev, phys in sources), ctx, op
        )
        total = sum(len(completion.value) for completion in completions)
        runs = [
            [(sort_key(row), dev, phys, row) for row in lk.held(dev, phys, c.value)]
            for (dev, phys), c in zip(sources, completions)
        ]
        merged = []
        last_key = None
        for skey, dev, phys, row in heapq.merge(*runs):
            if last_key is not None and skey == last_key and merged and merged[-1] == row:
                continue  # replica duplicate
            merged.append(row)
            last_key = skey
        if total:
            yield from ctx.execute(self.merge_cpu_per_pair * total)
        return merged

    def range_query(self, keyspace: str, lo: bytes, hi: bytes, ctx) -> Generator:
        lk = self._lk(keyspace)
        with self._span("range_query", keyspace=keyspace):
            rows = yield from self._scatter_sorted(
                lk,
                lambda phys: RangeQueryCmd(keyspace=phys, lo=lo, hi=hi),
                ctx, "range_query", sort_key=lambda row: row[0],
            )
        return rows

    def _sidx_key(self, keyspace: str, index_name: str):
        for config in self.sidx_configs.get(keyspace, ()):
            if config.name == index_name:
                off, width = config.value_offset, config.width
                return lambda row: (row[1][off : off + width], row[0])
        raise SimulationError(
            f"unknown secondary index {index_name!r} on {keyspace!r} — the "
            "router only merges indexes it saw configured via compact()"
        )

    def sidx_point_query(
        self, keyspace: str, index_name: str, skey_raw: bytes, ctx
    ) -> Generator:
        lk = self._lk(keyspace)
        sort_key = self._sidx_key(keyspace, index_name)
        with self._span("sidx_point_query", keyspace=keyspace, index=index_name):
            rows = yield from self._scatter_sorted(
                lk,
                lambda phys: SidxPointQueryCmd(
                    keyspace=phys, index_name=index_name, skey=skey_raw
                ),
                ctx, "sidx_point_query", sort_key=sort_key,
            )
        return rows

    # ------------------------------------------------------------------ batches
    def submit_many(self, commands: Iterable[KvCommand], ctx) -> Generator:
        """Post a batch of point reads (GET/EXIST) to their owners at QD>1,
        then reap in input order.

        Each read goes to its least-loaded replica.  Returns one
        :class:`Completion` per input command; error completions are
        returned, not raised — same contract as the single-device client.

        Identical point reads (same command type, keyspace and key) are
        *coalesced*: one device command is posted and its completion fans
        back to every duplicate position.  Under a zipfian read mix the
        hottest keys repeat many times per batch and all land on one
        shard — coalescing charges that shard once per batch instead of
        once per occurrence, which is what keeps the hot device from
        pacing the whole fleet.
        """
        with self._span("submit_many"):
            commands = list(commands)
            for command in commands:  # all checked before the first post
                if type(command) not in _BATCH_OPS:
                    raise SimulationError(
                        f"submit_many routes point reads, not "
                        f"{type(command).__name__}; use the router's method"
                    )
                self._lk(command.keyspace)
            posted: list[tuple[KvCsdClient, Any]] = []
            slot_of: list[int] = []
            seen: dict[tuple, int] = {}
            for command in commands:
                op = _BATCH_OPS[type(command)]
                read_key = (op, command.keyspace, command.key)
                slot = seen.get(read_key)
                if slot is not None:
                    self.counters["coalesced_reads"] += 1
                    slot_of.append(slot)
                    continue
                # located and picked at post time, as a cutover or a reap
                # between two posts moves the next one
                devs, phys = self._lk(command.keyspace).locate(command.key)
                if phys != command.keyspace:
                    command = dc_replace(command, keyspace=phys)
                seen[read_key] = len(posted)
                slot_of.append(len(posted))
                posted.append((yield from self._post(self._pick(devs), command, ctx, op)))
            unique: list[Completion] = []
            for client, ticket in posted:
                unique.append(
                    (yield from client.qp.wait(ticket, ctx, raise_on_error=False))
                )
            return [unique[slot] for slot in slot_of]
