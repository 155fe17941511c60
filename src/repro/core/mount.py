"""Device mount: rebuild the keyspace table after a power cycle.

A staged, auditable pipeline; each stage emits ``mount.stage_begin`` /
``mount.stage_end`` journal events, records its virtual-time latency in the
device's ``mount_stages``, and leaves the device snapshot-able via
``repro.obs.inspect.device_snapshot``:

1. **scan** — :meth:`MetadataLog.scan` parses both A/B metadata streams and
   mounts the sealed stream with the highest epoch, so a crash inside a
   checkpoint falls back to the previous sealed snapshot; a torn record
   tail is detected (CRC frames) and the intact prefix applied.
2. **replay** — rebuild the keyspace table: states, zone-cluster maps,
   sketches, sequence numbers.  Keyspaces caught COMPACTING revert to
   WRITABLE (their logs are intact, the job re-runs).
3. **indexes** — account the PIDX/SIDX block blooms the records' annexes
   carried, charging their reload and DRAM.  A record without blooms (its
   device ran without them) mounts without them: queries stay correct, they
   just read the blocks a bloom would have skipped.
4. **rescan** — re-derive seq/pair-count/key-bounds of WRITABLE keyspaces
   from their KLOG tails (the log may postdate the last table write).
5. **reclaim** — reset orphan zones (partial job outputs nobody references)
   and reconcile the zone manager's free list through the public
   :meth:`ZoneManager.reconcile_free_list` API.

Data buffered in the 192 KB membuf at power loss is gone — the same
volatility window a real device has unless it flushes on plug-pull.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from contextlib import contextmanager

from repro.core.costs import CsdCostModel
from repro.core.keyspace import Keyspace, KeyspaceState
from repro.core.klog import unpack_klog_records_prefix
from repro.core.metalog import MetadataLog
from repro.core.zone_manager import ZoneManager
from repro.errors import DbError
from repro.host.threads import ThreadCtx
from repro.sim.stats import StatsRegistry
from repro.soc.board import SocBoard
from repro.ssd.zone import ZoneState

__all__ = ["MOUNT_STAGES", "Mount"]

#: Mount pipeline stage names, in execution order.
MOUNT_STAGES = ("scan", "replay", "indexes", "rescan", "reclaim")


class Mount:
    """The mount pipeline of one device.

    ``stages`` is the device's ``stage -> seconds`` table of the latest
    mount; ``membuf_bytes`` sizes each recovered keyspace's membuf.
    """

    def __init__(
        self, board: SocBoard, zone_manager: ZoneManager, costs: CsdCostModel,
        stats: StatsRegistry, metalog: MetadataLog, keyspaces: dict[str, Keyspace],
        membuf_bytes: int, stages: dict[str, float],
        journal: Callable[..., None], audit: Callable[[str], None],
    ):
        self.env = board.env
        self.ssd = board.ssd
        self.board = board
        self.zone_manager = zone_manager
        self.costs = costs
        self.stats = stats
        self.metalog = metalog
        self.keyspaces = keyspaces
        self.membuf_bytes = membuf_bytes
        self.stages = stages
        self._journal = journal
        self._audit = audit

    @contextmanager
    def _stage(self, stage: str):
        """Bracket one mount stage with journal events + latency accounting.

        Yields a dict the stage body may fill in; its contents ride on the
        ``mount.stage_end`` event.  Stage events record no simulation
        events, so an instrumented mount's virtual timeline is identical to
        an uninstrumented one.
        """
        t0 = self.env.now
        self._journal("mount.stage_begin", stage=stage)
        fields: dict = {}
        yield fields
        seconds = self.env.now - t0
        self.stages[stage] = seconds
        self._journal("mount.stage_end", stage=stage, seconds=seconds, **fields)

    def recover(self, ctx: ThreadCtx) -> Generator:
        """Rebuild the keyspace table of a freshly constructed device from
        flash, in the five stages above."""
        if self.keyspaces:
            raise DbError("recover() requires a freshly constructed device")
        self.stages.clear()

        # ---- stage 1: metadata-zone scan
        with self._stage("scan") as fields:
            chosen = yield from self.metalog.scan(ctx, fields)

        # ---- stage 2: keyspace-table replay
        with self._stage("replay") as fields:
            used_zones: set[int] = set(self.metalog.zone_ids)
            recovered_clusters = 0
            for name, (ks, last_seq) in chosen.table.items():
                if ks.state is KeyspaceState.COMPACTING:
                    # The job died with the power; its inputs (KLOG/VLOG) are
                    # referenced by the recovered record, its partial outputs
                    # are orphans reclaimed in stage 5.
                    ks.state = KeyspaceState.WRITABLE
                self.keyspaces[name] = ks
                ks.attach_runtime(self.env, self.membuf_bytes, last_seq)
                for cluster in ks.all_clusters():
                    used_zones.update(cluster.zone_ids)
                    recovered_clusters += 1
                self._journal(
                    "keyspace.recover", keyspace=name, state=ks.state.value
                )
            fields["keyspaces"] = len(self.keyspaces)

        # ---- stage 3: bloom reload from the records' annexes
        with self._stage("indexes") as fields:
            reloaded = 0
            reloaded_bytes = 0
            for name in sorted(self.keyspaces):
                ks = self.keyspaces[name]
                sketches = [sketch for _config, sketch in ks.sidx.values()]
                if ks.pidx_sketch is not None:
                    sketches.append(ks.pidx_sketch)
                annex_bytes = sum(sketch.bloom_bytes for sketch in sketches)
                if annex_bytes:
                    n_blooms = sum(len(sketch.blooms) for sketch in sketches)
                    yield from self.board.charge(
                        ctx, self.costs.bloom_reload_per_byte * annex_bytes
                    )
                    yield from self.board.dram.reserve(annex_bytes)
                    ks.bloom_dram += annex_bytes
                    reloaded += n_blooms
                    reloaded_bytes += annex_bytes
                    self._journal(
                        "sketch.reload", keyspace=name, blooms=n_blooms,
                        bytes=annex_bytes,
                    )
            if reloaded:
                self.stats.counter("blooms_reloaded").add(reloaded)
                self.stats.counter("bloom_reload_bytes").add(reloaded_bytes)
            fields.update(blooms_reloaded=reloaded, bloom_bytes=reloaded_bytes)

        # ---- stage 4: KLOG tail rescan
        with self._stage("rescan") as fields:
            rescanned = 0
            for name in chosen.table:
                ks = self.keyspaces[name]
                if ks.state is KeyspaceState.WRITABLE and ks.klog_clusters:
                    yield from self._rescan_klog(ks, ctx)
                    rescanned += 1
            fields["keyspaces"] = rescanned

        # ---- stage 5: orphan-zone reclamation + free-list reconciliation
        with self._stage("reclaim") as fields:
            self.zone_manager.mark_used(sorted(used_zones), recovered_clusters)
            # Orphans: written zones nobody references (failed jobs, torn
            # flushes, released-after-persist compaction inputs).
            orphans = 0
            for zone in self.ssd.zones:
                if (
                    zone.state is not ZoneState.EMPTY
                    and zone.zone_id not in used_zones
                ):
                    yield from self.ssd.reset_zone(zone.zone_id)
                    self.stats.counter("orphan_zones_reclaimed").add()
                    self._journal("zone.orphan_reclaim", zone=zone.zone_id)
                    orphans += 1
            self.zone_manager.reconcile_free_list(used_zones)
            fields["orphan_zones"] = orphans

        self.stats.counter("recoveries").add()
        # Invariants only fully hold once every stage has run (the free list
        # is reconciled last), so the audit boundary sits at mount exit.
        self._audit("mount")

    def _rescan_klog(self, ks: Keyspace, ctx: ThreadCtx) -> Generator:
        """Re-derive seq/pair-count/key-bounds from a WRITABLE keyspace's log."""
        max_seq = ks.seq
        n_pairs = 0
        torn_zones: list[int] = []
        for cluster in ks.klog_clusters:
            contents = yield from cluster.read_all()
            for zone_id, blob in contents.items():
                records, torn_bytes = unpack_klog_records_prefix(blob)
                if torn_bytes:
                    torn_zones.append(zone_id)
                for key, seq, pointer in records:
                    max_seq = max(max_seq, seq)
                    if pointer is not None:
                        n_pairs += 1
                        ks.observe_key(key)
        for zone_id in torn_zones:
            # A power cut tore the final append mid-record.  Seal the zone:
            # appending after the garbage suffix would make every future
            # rescan of this zone unparseable.
            yield from self.ssd.finish_zone(zone_id)
            self.stats.counter("klog_torn_tails").add()
        yield from self.board.charge(ctx, self.costs.record_parse * max(1, n_pairs))
        ks.seq = max_seq
        ks.n_pairs = n_pairs
