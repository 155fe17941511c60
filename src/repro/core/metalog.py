"""The metadata log: where the keyspace table lives on flash.

The firmware keeps the keyspace table in SoC DRAM (Section IV of the
paper) and journals every change of it to two reserved zones.  A ZNS zone
can only be appended to or reset, so the two zones take turns:

* the *active* zone takes one framed record per table change — an
  ``UPSERT`` of a keyspace's full entry or a ``DELETE`` (the framing is
  :mod:`repro.core.meta`'s);
* when it fills, a checkpoint writes ``EPOCH(n+1) | one UPSERT per live
  keyspace | COMMIT(n+1)`` to the *standby* zone, the zones swap roles, and
  only then is the old stream erased.  A power cut at any point leaves at
  least one sealed stream, and mount picks it.

Appends share the log (a zone append assigns offsets to concurrent
writers); only a checkpoint is exclusive.  It yields many times between
taking its snapshot and erasing the old stream, and an append landing on
the old active zone in that window would be erased with it, so it blocks
new appends and waits for in-flight ones to drain.  A record is encoded
from the live table in the instant it claims zone space, so the stream
orders records the way the table changed.

Snapshot rule: once a keyspace's delete is committed to the log, no
checkpoint snapshots it again (until an upsert recreates it), although
the device keeps it in its table while it releases the keyspace's zones.
A checkpoint in that window would otherwise erase the stream holding the
``DELETE`` and resurrect the keyspace over released zones.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.core.costs import CsdCostModel
from repro.core.keyspace import Keyspace
from repro.core.meta import MetaCodec, MetaStream, choose_stream
from repro.core.zone_manager import ZoneCluster, ZoneManager
from repro.errors import ZoneFullError
from repro.host.threads import ThreadCtx
from repro.obs.trace import trace_wait
from repro.sim.resources import Resource
from repro.sim.stats import StatsRegistry
from repro.soc.board import SocBoard

__all__ = ["METADATA_ZONE_IDS", "MetadataLog"]

#: The two reserved zones; a freshly formatted device appends to the first.
METADATA_ZONE_IDS = (0, 1)


class MetadataLog:
    """The A/B metadata log of one device.

    ``keyspaces`` is the device's live keyspace table; the log reads it
    (entries and their sequence numbers) when it encodes a record or a
    snapshot, never writes it.
    """

    def __init__(
        self, board: SocBoard, zone_manager: ZoneManager, costs: CsdCostModel,
        stats: StatsRegistry, journal: Callable[..., None], keyspaces: dict[str, Keyspace],
    ):
        self.env = board.env
        self.ssd = board.ssd
        self._board = board
        self._costs = costs
        self._stats = stats
        self._journal = journal
        self._keyspaces = keyspaces
        self.codec = MetaCodec()
        #: held by a checkpoint; appends only pass through it.  A waiting
        #: checkpoint wakes on ``_drained`` once ``_inflight`` appends end.
        self._lock = Resource(self.env, capacity=1)
        self._inflight = 0
        self._drained = None
        self._active: ZoneCluster = zone_manager.reserve_zone(METADATA_ZONE_IDS[0])
        self._standby: ZoneCluster = zone_manager.reserve_zone(METADATA_ZONE_IDS[1])
        #: checkpoint epoch of the active stream (0 = never checkpointed)
        self.epoch = 0
        #: keyspaces whose delete is committed; snapshots leave them out
        self._deleted: set[str] = set()

    @property
    def zone_ids(self) -> list[int]:
        """Both metadata zones, the active one first."""
        return self._active.zone_ids + self._standby.zone_ids

    # ------------------------------------------------------------------ writers
    def upsert(self, ctx: ThreadCtx, ks: Keyspace) -> Generator:
        """Persist ``ks``'s table entry as it stands when its record claims
        zone space."""
        name = ks.name
        self._deleted.discard(name)

        def encode() -> bytes | None:
            live = self._keyspaces.get(name)
            if live is None or name in self._deleted:
                return None  # a delete requested since supersedes it
            return self.codec.encode_upsert(live, live.seq)

        return self._append(ctx, encode)

    def delete(self, ctx: ThreadCtx, name: str) -> Generator:
        """Persist the deletion of keyspace ``name``."""
        # Marked first: if the zone is full, the checkpoint that replaces
        # the append is what commits the delete.
        self._deleted.add(name)
        record = self.codec.encode_delete(name)
        return self._append(ctx, lambda: record)

    def checkpoint(self, ctx: ThreadCtx, since: int | None = None) -> Generator:
        """Snapshot the table into the standby zone, then swap roles —
        exclusively: new appends queue, in-flight ones drain first.  Skipped
        if the epoch has moved past ``since`` (when given) meanwhile."""
        with self._lock.request() as lock:
            yield from trace_wait(self.env, lock, "dev.meta_lock_wait")
            if self._inflight:
                self._drained = self.env.event()
                yield from trace_wait(self.env, self._drained, "dev.meta_lock_wait")
            if since is None or since == self.epoch:
                yield from self._checkpoint(ctx)

    def _charge(self, ctx: ThreadCtx, nbytes: int) -> Generator:
        """CRC ``nbytes`` of metadata frames on the SoC."""
        return self._board.charge(ctx, self._costs.checksum_per_byte * nbytes)

    def _append(self, ctx: ThreadCtx, encode: Callable) -> Generator:
        """Append ``encode()`` under a shared hold (``None``: nothing to
        append); a full zone checkpoints."""
        if self._lock.count or self._lock.queue_len:
            # A checkpoint runs or waits for the log: queue behind it.
            with self._lock.request() as turn:
                yield from trace_wait(self.env, turn, "dev.meta_lock_wait")
        self._inflight += 1
        full_at = None
        try:
            yield from self._charge(ctx, len(encode() or b""))
            # Encoded as it claims zone space, with no yield in between.
            record = encode()
            if record is not None:
                yield from self._active.append_group(record)
        except ZoneFullError:
            full_at = self.epoch
        finally:
            self._inflight -= 1
            if not self._inflight and self._drained is not None:
                self._drained.succeed()
                self._drained = None
        if full_at is not None:
            # Shared hold dropped first.  The table change preceded this
            # append, so any checkpoint from here on snapshots it.
            yield from self.checkpoint(ctx, since=full_at)
        self._stats.counter("metadata_updates").add()

    def _checkpoint(self, ctx: ThreadCtx) -> Generator:
        """Write ``EPOCH | live upserts | COMMIT`` to the standby zone, swap
        roles, then erase the old stream.  Runs with the log held
        exclusively."""
        target = self._standby
        for zone_id in target.zone_ids:
            if self.ssd.zone(zone_id).write_pointer:
                yield from self.ssd.reset_zone(zone_id)
        epoch = self.epoch + 1
        self._deleted.intersection_update(self._keyspaces)
        records = [self.codec.encode_epoch(epoch)]
        for name, ks in sorted(self._keyspaces.items()):
            if name not in self._deleted:
                records.append(self.codec.encode_upsert(ks, ks.seq))
        records.append(self.codec.encode_commit(epoch))
        yield from self._charge(ctx, sum(len(r) for r in records))
        for record in records:
            yield from target.append_group(record)
        # The commit landed: swap roles, then retire the old stream.
        self._active, self._standby = target, self._active
        for zone_id in self._standby.zone_ids:
            yield from self.ssd.reset_zone(zone_id)
        self.epoch = epoch
        self._stats.counter("metadata_checkpoints").add()
        self._journal(
            "metadata.checkpoint", keyspaces=len(self._keyspaces), epoch=epoch
        )

    # ------------------------------------------------------------------ mount
    def scan(self, ctx: ThreadCtx, fields: dict) -> Generator:
        """Mount stage 1: read and parse both zones, adopt the roles of the
        chosen stream (sealed first, then highest epoch).

        Returns the chosen :class:`MetaStream`; ``fields`` receives the
        stage's journal fields.
        """
        streams: list[MetaStream] = []
        for cluster in (self._active, self._standby):
            zone_id = cluster.zone_ids[0]
            wp = self.ssd.zone(zone_id).write_pointer
            blob = b""
            if wp:
                blob = yield from self.ssd.read(zone_id, 0, wp)
                yield from self._charge(ctx, len(blob))
            streams.append(self.codec.parse_stream(blob, self.ssd))
        chosen = choose_stream(streams)
        if chosen is streams[1]:
            # The sealed checkpoint lives in the standby zone: the dying
            # device crashed after a swap; adopt its role assignment.
            self._active, self._standby = self._standby, self._active
        self.epoch = chosen.epoch
        fields.update(
            zones=len(streams),
            active_zone=self._active.zone_ids[0],
            epoch=chosen.epoch,
            records=chosen.records,
            torn=chosen.torn,
            crc_failures=sum(s.crc_failures for s in streams),
        )
        if chosen.torn or chosen.crc_failures:
            self._stats.counter("metadata_torn_tails").add()
        return chosen

    # ------------------------------------------------------------------ observability
    def introspect(self) -> dict:
        return {
            "zone_ids": list(self._active.zone_ids),
            "bytes_stored": self._active.bytes_stored(),
            "epoch": self.epoch,
            "standby_zone_ids": list(self._standby.zone_ids),
        }

    def metric_gauges(self) -> dict:
        return {"meta.epoch": lambda: float(self.epoch)}
