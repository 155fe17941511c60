"""Continuous invariant auditing: cross-structure consistency checks.

The simulated device stores data for real (zones hold the actual bytes), so
its global invariants are *checkable*: every KLOG record must point into a
live VLOG zone, every PIDX block must agree with its sketch pivot, every
``<secondary key, primary key>`` pair must resolve through the primary
index to a value whose extracted bytes re-encode to that secondary key,
zone ownership must partition cleanly between keyspaces / metadata / the
free pool, and the block cache must never hold bytes that differ from the
zone they claim to mirror.

:class:`InvariantAuditor` runs the registered checks on demand
(the final pass of ``repro run <id> --audit``), or continuously at
flush/compaction-phase boundaries via the device's audit boundary hook
when attached with ``level="phase"``.  Audits are **pure state reads**: every check goes
through :meth:`repro.ssd.zone.Zone.read` (a plain function) rather than the
timed SSD operations, so an audited run's virtual timeline is byte-identical
to an unaudited one.  Violations carry the journal tail recorded up to the
failure, joining the *what is broken* to the *what just happened*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.keyspace import KeyspaceState
from repro.core.klog import unpack_klog_records
from repro.core.pidx import unpack_value_pointer
from repro.core.sidx import encode_skey, read_sidx_block
from repro.core.zone_manager import ZonePointer
from repro.errors import SimulationError
from repro.lsm.block import BlockReader
from repro.obs.journal import journal_event
from repro.ssd.zone import ZoneState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.device import KvCsdDevice

__all__ = [
    "AUDIT_LEVELS",
    "INVARIANTS",
    "Violation",
    "AuditReport",
    "InvariantAuditor",
    "attach_auditor",
    "format_audit_report",
]

#: ``off`` leaves the device unhooked; ``phase`` audits at every membuf
#: flush, compaction phase end and secondary-index build.
AUDIT_LEVELS = ("off", "phase")

#: Detail lines retained per invariant per run; a badly corrupted device
#: would otherwise flood reports with one line per record.
MAX_DETAILS = 25


def _pidx_entries(blob: bytes) -> list[tuple[bytes, ZonePointer]]:
    """One PIDX block, entry by entry.

    The auditor decodes index blocks through the block format's reader
    (SIDX blocks: :func:`~repro.core.sidx.read_sidx_block`, the same), never
    through the column views the query path and the index build read them
    with: it must not share the code it audits.
    """
    return [
        (key, unpack_value_pointer(value)) for key, value in BlockReader(blob).entries()
    ]


def _read_extent(device: "KvCsdDevice", pointer: ZonePointer) -> bytes:
    """Synchronously read one extent (bounds-checked, no simulation events)."""
    zone_id, offset, length = pointer
    return device.ssd.zone(zone_id).read(offset, length)


# ------------------------------------------------------------------ checks
# Each check takes the device and returns detail strings, one per problem.
def check_klog_vlog_pointers(device: "KvCsdDevice") -> list[str]:
    """Every KLOG value pointer lands inside one of its keyspace's VLOG
    zones, below that zone's write pointer."""
    problems: list[str] = []
    for name in sorted(device.keyspaces):
        ks = device.keyspaces[name]
        vlog_zones = {z for c in ks.vlog_clusters for z in c.zone_ids}
        for cluster in ks.klog_clusters:
            for zone_id in cluster.zone_ids:
                zone = device.ssd.zone(zone_id)
                if zone.write_pointer == 0:
                    continue
                try:
                    records = unpack_klog_records(
                        zone.read(0, zone.write_pointer)
                    )
                except Exception as exc:
                    problems.append(
                        f"{name}: KLOG zone {zone_id} unparseable: {exc}"
                    )
                    continue
                for key, _seq, pointer in records:
                    if pointer is None:
                        continue  # tombstone
                    vzone, off, length = pointer
                    if vzone not in vlog_zones:
                        problems.append(
                            f"{name}: key {key.hex()} points at zone {vzone} "
                            f"outside the keyspace's VLOG zones"
                        )
                        continue
                    wp = device.ssd.zone(vzone).write_pointer
                    if off + length > wp:
                        problems.append(
                            f"{name}: key {key.hex()} points at "
                            f"[{off}, {off + length}) past write pointer "
                            f"{wp} of zone {vzone}"
                        )
    return problems


def check_pidx_block_agreement(device: "KvCsdDevice") -> list[str]:
    """PIDX sketch pivots strictly increase and equal the first key of the
    block they point to; in-block entries are strictly sorted."""
    problems: list[str] = []
    for name in sorted(device.keyspaces):
        sketch = device.keyspaces[name].pidx_sketch
        if sketch is None:
            continue
        prev: Optional[bytes] = None
        for pivot, pointer in zip(sketch.pivots, sketch.block_pointers):
            if prev is not None and pivot <= prev:
                problems.append(
                    f"{name}: sketch pivots not strictly increasing at "
                    f"{pivot.hex()}"
                )
            prev = pivot
            try:
                entries = _pidx_entries(_read_extent(device, pointer))
            except Exception as exc:
                problems.append(
                    f"{name}: PIDX block at {pointer} unreadable: {exc}"
                )
                continue
            if not entries:
                problems.append(f"{name}: PIDX block at {pointer} is empty")
                continue
            if entries[0][0] != pivot:
                problems.append(
                    f"{name}: sketch pivot {pivot.hex()} != block first key "
                    f"{entries[0][0].hex()}"
                )
            keys = [key for key, _ptr in entries]
            if keys != sorted(set(keys)):
                problems.append(
                    f"{name}: PIDX block at {pointer} entries not strictly "
                    f"sorted"
                )
    return problems


def check_pidx_value_resolution(device: "KvCsdDevice") -> list[str]:
    """A COMPACTED keyspace's PIDX entries cover exactly ``n_pairs`` keys
    and every value pointer lands in a SORTED_VALUES zone, in bounds."""
    problems: list[str] = []
    for name in sorted(device.keyspaces):
        ks = device.keyspaces[name]
        if ks.state is not KeyspaceState.COMPACTED:
            continue
        sketch = ks.pidx_sketch
        if sketch is None:
            problems.append(f"{name}: COMPACTED without a PIDX sketch")
            continue
        sv_zones = {z for c in ks.sorted_value_clusters for z in c.zone_ids}
        total = 0
        for pointer in sketch.block_pointers:
            try:
                entries = _pidx_entries(_read_extent(device, pointer))
            except Exception:
                continue  # reported by check_pidx_block_agreement
            total += len(entries)
            for key, (vzone, off, length) in entries:
                if vzone not in sv_zones:
                    problems.append(
                        f"{name}: key {key.hex()} resolves to zone {vzone} "
                        f"outside the SORTED_VALUES zones"
                    )
                elif off + length > device.ssd.zone(vzone).write_pointer:
                    problems.append(
                        f"{name}: key {key.hex()} value extent "
                        f"[{off}, {off + length}) past write pointer of "
                        f"zone {vzone}"
                    )
        if total != ks.n_pairs:
            problems.append(
                f"{name}: PIDX holds {total} entries but the keyspace "
                f"table says n_pairs={ks.n_pairs}"
            )
    return problems


def check_sidx_primary_resolution(device: "KvCsdDevice") -> list[str]:
    """Every SIDX pair resolves through the primary index to a value whose
    extracted secondary key re-encodes to the stored one."""
    problems: list[str] = []
    for name in sorted(device.keyspaces):
        ks = device.keyspaces[name]
        if not ks.sidx:
            continue
        primary: dict[bytes, ZonePointer] = {}
        if ks.pidx_sketch is not None:
            for pointer in ks.pidx_sketch.block_pointers:
                try:
                    primary.update(
                        _pidx_entries(_read_extent(device, pointer))
                    )
                except Exception:
                    pass  # reported by check_pidx_block_agreement
        for iname in sorted(ks.sidx):
            config, sketch = ks.sidx[iname]
            for pointer in sketch.block_pointers:
                try:
                    pairs = read_sidx_block(
                        _read_extent(device, pointer), sketch.skey_width
                    )
                except Exception as exc:
                    problems.append(
                        f"{name}/{iname}: SIDX block at {pointer} "
                        f"unreadable: {exc}"
                    )
                    continue
                for skey_enc, pkey in pairs:
                    vptr = primary.get(pkey)
                    if vptr is None:
                        problems.append(
                            f"{name}/{iname}: pair references unknown "
                            f"primary key {pkey.hex()}"
                        )
                        continue
                    try:
                        value = _read_extent(device, vptr)
                        expected = encode_skey(
                            config.extract(value), config.dtype
                        )
                    except Exception as exc:
                        problems.append(
                            f"{name}/{iname}: value of {pkey.hex()} "
                            f"unresolvable: {exc}"
                        )
                        continue
                    if expected != skey_enc:
                        problems.append(
                            f"{name}/{iname}: stored skey "
                            f"{skey_enc.hex()} != re-extracted "
                            f"{expected.hex()} for key {pkey.hex()}"
                        )
    return problems


def check_zone_ownership_disjoint(device: "KvCsdDevice") -> list[str]:
    """No zone belongs to two owners (metadata / keyspace clusters), and no
    owned zone sits in the free pool.  Zones owned by neither (e.g. an
    external sort's temporary clusters) are legal."""
    problems: list[str] = []
    claims: dict[int, list[str]] = {}
    for zone_id in device.metalog.zone_ids:
        claims.setdefault(zone_id, []).append("metadata")
    for name in sorted(device.keyspaces):
        for cluster in device.keyspaces[name].all_clusters():
            for zone_id in cluster.zone_ids:
                claims.setdefault(zone_id, []).append(f"keyspace:{name}")
    for zone_id, owners in sorted(claims.items()):
        if len(owners) > 1:
            problems.append(
                f"zone {zone_id} claimed {len(owners)}x: {', '.join(owners)}"
            )
    for zone_id in device.zone_manager._free:
        if zone_id in claims:
            problems.append(
                f"zone {zone_id} is in the free pool but owned by "
                f"{claims[zone_id][0]}"
            )
    return problems


def check_zone_accounting(device: "KvCsdDevice") -> list[str]:
    """With no job in flight, every zone is metadata-owned, keyspace-owned
    or free, and the zone manager counts exactly the owned clusters.

    A running job's outputs (and an external sort's temporary clusters)
    belong to no keyspace until it commits, and a cluster being released
    to none until its zones are reset, so the check waits for quiescence:
    a zone lost between owner and pool would otherwise surface only when
    the pool runs dry.
    """
    manager = device.zone_manager
    if manager.releasing or any(ks.jobs for ks in device.keyspaces.values()):
        return []
    owned = set(device.metalog.zone_ids)
    # each metadata zone is a one-zone cluster of its own
    clusters = len(owned)
    for ks in device.keyspaces.values():
        for cluster in ks.all_clusters():
            owned.update(cluster.zone_ids)
            clusters += 1
    problems: list[str] = []
    accounted = owned.union(manager._free)
    lost = [z.zone_id for z in device.ssd.zones if z.zone_id not in accounted]
    if lost:
        problems.append(
            f"{len(lost)} zone(s) neither owned nor free: {lost[:16]}"
        )
    if manager.allocated_clusters != clusters:
        problems.append(
            f"zone manager counts {manager.allocated_clusters} allocated "
            f"cluster(s), owners hold {clusters}"
        )
    return problems


def check_free_list_zones_empty(device: "KvCsdDevice") -> list[str]:
    """The free pool holds no duplicates and only EMPTY, rewound zones."""
    problems: list[str] = []
    free = device.zone_manager._free
    if len(set(free)) != len(free):
        dupes = sorted({z for z in free if free.count(z) > 1})
        problems.append(f"free pool holds duplicate zone ids: {dupes}")
    for zone_id in free:
        zone = device.ssd.zone(zone_id)
        if zone.state is not ZoneState.EMPTY or zone.write_pointer:
            problems.append(
                f"free zone {zone_id} is {zone.state.value} with write "
                f"pointer {zone.write_pointer}"
            )
    return problems


def check_zone_state_write_pointer(device: "KvCsdDevice") -> list[str]:
    """Zone state machine vs write pointer: EMPTY <=> rewound, full zones
    marked FULL, pointer within capacity."""
    problems: list[str] = []
    for zone in device.ssd.zones:
        wp = zone.write_pointer
        if wp > zone.capacity:
            problems.append(
                f"zone {zone.zone_id}: write pointer {wp} exceeds capacity "
                f"{zone.capacity}"
            )
        if zone.state is ZoneState.EMPTY and wp:
            problems.append(
                f"zone {zone.zone_id}: EMPTY with write pointer {wp}"
            )
        if zone.state is not ZoneState.EMPTY and wp == 0:
            problems.append(
                f"zone {zone.zone_id}: {zone.state.value} with rewound "
                f"write pointer"
            )
        if wp == zone.capacity and zone.state is not ZoneState.FULL:
            problems.append(
                f"zone {zone.zone_id}: at capacity but {zone.state.value}"
            )
    return problems


def check_block_cache_coherence(device: "KvCsdDevice") -> list[str]:
    """Every cached extent matches the bytes currently in its zone, and the
    cache's byte accounting matches its contents."""
    cache = device.block_cache
    if cache is None:
        return []
    problems: list[str] = []
    total = 0
    for pointer, blob in cache.iter_entries():
        total += len(blob)
        zone_id, offset, length = pointer
        if len(blob) != length:
            problems.append(
                f"cached extent {pointer} holds {len(blob)} bytes, pointer "
                f"says {length}"
            )
        try:
            current = device.ssd.zone(zone_id).read(offset, length)
        except Exception as exc:
            problems.append(f"cached extent {pointer} is stale: {exc}")
            continue
        if current != blob:
            problems.append(
                f"cached extent {pointer} differs from zone contents "
                f"(zone was reused without invalidation)"
            )
    if total != cache.used_bytes:
        problems.append(
            f"cache accounts {cache.used_bytes} bytes but holds {total}"
        )
    if cache.used_bytes > cache.capacity_bytes:
        problems.append(
            f"cache holds {cache.used_bytes} bytes over capacity "
            f"{cache.capacity_bytes}"
        )
    return problems


def check_keyspace_job_legality(device: "KvCsdDevice") -> list[str]:
    """In-flight jobs only exist for keyspaces in a state that can host
    them, and EMPTY/COMPACTED keyspaces carry no stale log state."""
    problems: list[str] = []
    for name, ks in sorted(device.keyspaces.items()):
        if ks.jobs and not ks.deletion_pending and ks.state in (
            KeyspaceState.EMPTY,
            KeyspaceState.WRITABLE,
        ):
            problems.append(
                f"{name}: {len(ks.jobs)} in-flight job(s) while {ks.state.value}"
            )
        membuf = ks.membuf
        if membuf is None:
            problems.append(f"{name}: keyspace has no membuf")
        if ks.state is KeyspaceState.EMPTY:
            if ks.n_pairs or ks.all_clusters():
                problems.append(
                    f"{name}: EMPTY but holds {ks.n_pairs} pairs / "
                    f"{len(ks.all_clusters())} cluster(s)"
                )
            if membuf is not None and len(membuf) > 0:
                problems.append(f"{name}: EMPTY with a non-empty membuf")
        if ks.state is KeyspaceState.COMPACTED and (
            ks.klog_clusters or ks.vlog_clusters
        ):
            problems.append(
                f"{name}: COMPACTED but still owns "
                f"{len(ks.klog_clusters)} KLOG / {len(ks.vlog_clusters)} "
                f"VLOG cluster(s)"
            )
    return problems


def check_dram_budget_accounting(device: "KvCsdDevice") -> list[str]:
    """DRAM budget occupancy stays within [0, capacity]."""
    problems: list[str] = []
    dram = device.board.dram
    if not 0 <= dram.available <= dram.capacity:
        problems.append(
            f"DRAM budget reports {dram.available} available of "
            f"{dram.capacity}"
        )
    return problems


def check_nvme_queue_sanity(device: "KvCsdDevice") -> list[str]:
    """Queue-pair accounting is consistent with the queue depth.

    Covers every host KV queue pair registered on the device.  With async
    post/reap the in-flight set is first-class state, so beyond the counter
    ordering this checks the identity ``submitted - completed + posting ==
    inflight`` (a slot is held from before its capsule is packed until the
    command completes) and that unreaped completions reconcile with the
    reap counters.
    """
    problems: list[str] = []
    for i, qp in enumerate(device.host_qps):
        problems += [f"host-kv-{i}: {p}" for p in check_queue_pair_accounting(qp)]
    return problems


def check_queue_pair_accounting(qp) -> list[str]:
    """Accounting invariants shared by block and KV queue pairs."""
    problems: list[str] = []
    if qp.completed > qp.submitted:
        problems.append(
            f"queue pair completed {qp.completed} > submitted {qp.submitted}"
        )
    if not 0 <= qp.inflight <= qp.depth:
        problems.append(
            f"queue pair inflight {qp.inflight} outside [0, {qp.depth}]"
        )
    if qp.submitted - qp.completed + qp.posting != qp.inflight:
        problems.append(
            f"queue pair submitted {qp.submitted} - completed {qp.completed} "
            f"+ posting {qp.posting} "
            f"!= inflight {qp.inflight}"
        )
    if qp.reaped > qp.completed:
        problems.append(
            f"queue pair reaped {qp.reaped} > completed {qp.completed}"
        )
    if qp.unreaped != qp.completed - qp.reaped - qp.errors:
        problems.append(
            f"queue pair holds {qp.unreaped} unreaped completions but "
            f"completed {qp.completed} - reaped {qp.reaped} - errors "
            f"{qp.errors} = {qp.completed - qp.reaped - qp.errors}"
        )
    return problems


#: The registry, in the order checks run.  Names are part of the report
#: schema: tests and operators grep for them.
INVARIANTS: list[tuple[str, Callable[["KvCsdDevice"], list[str]]]] = [
    ("klog_vlog_pointers", check_klog_vlog_pointers),
    ("pidx_block_agreement", check_pidx_block_agreement),
    ("pidx_value_resolution", check_pidx_value_resolution),
    ("sidx_primary_resolution", check_sidx_primary_resolution),
    ("zone_ownership_disjoint", check_zone_ownership_disjoint),
    ("free_list_zones_empty", check_free_list_zones_empty),
    ("zone_accounting", check_zone_accounting),
    ("zone_state_write_pointer", check_zone_state_write_pointer),
    ("block_cache_coherence", check_block_cache_coherence),
    ("keyspace_job_legality", check_keyspace_job_legality),
    ("dram_budget_accounting", check_dram_budget_accounting),
    ("nvme_queue_sanity", check_nvme_queue_sanity),
]


# ------------------------------------------------------------------ reports
@dataclass
class Violation:
    """One invariant failure, with the journal tail leading up to it."""

    invariant: str
    detail: str
    time: float
    boundary: str
    journal_tail: list[dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "time": self.time,
            "boundary": self.boundary,
            "journal_tail": self.journal_tail,
        }


@dataclass
class AuditReport:
    """The outcome of one full pass over :data:`INVARIANTS`."""

    time: float
    boundary: str
    checks: list[str]
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "boundary": self.boundary,
            "ok": self.ok,
            "checks": list(self.checks),
            "violations": [v.as_dict() for v in self.violations],
        }

    def format(self) -> str:
        """Human-readable report (see :func:`format_audit_report`)."""
        return format_audit_report(self.as_dict())


def format_audit_report(report: dict[str, Any]) -> str:
    """Render one :meth:`AuditReport.as_dict`, failures first-hand."""
    verdict = "PASS" if report["ok"] else "FAIL"
    lines = [
        f"audit @ t={report['time']:.6f}s (boundary={report['boundary']}): "
        f"{verdict}, {len(report['checks'])} checks, "
        f"{len(report['violations'])} violation(s)"
    ]
    for violation in report["violations"]:
        lines.append(f"  FAIL {violation['invariant']}: {violation['detail']}")
        for event in violation["journal_tail"][-5:]:
            lines.append(
                f"    journal: #{event['seq']} {event['type']} "
                f"@ t={event['time']:.6f}s"
            )
    return "\n".join(lines) + "\n"


class InvariantAuditor:
    """Runs the invariant registry against one device.

    Attach with :func:`attach_auditor` (or set ``device.auditor``) to audit
    continuously at flush/phase boundaries; call :meth:`run` for a one-shot
    pass.  All reports accumulate in :attr:`reports`.
    """

    def __init__(
        self,
        device: "KvCsdDevice",
        level: str = "phase",
        journal_tail: int = 16,
    ):
        if level not in AUDIT_LEVELS:
            raise SimulationError(
                f"audit level must be one of {AUDIT_LEVELS}, got {level!r}"
            )
        self.device = device
        self.level = level
        self.journal_tail = journal_tail
        self.reports: list[AuditReport] = []
        self.total_violations = 0

    def run(self, boundary: str = "manual") -> AuditReport:
        """One full pass; returns (and retains) the report."""
        env = self.device.env
        violations: list[Violation] = []
        for name, fn in INVARIANTS:
            try:
                details = fn(self.device)
            except Exception as exc:  # a crashed check is itself a finding
                details = [f"check raised {type(exc).__name__}: {exc}"]
            if len(details) > MAX_DETAILS:
                details = details[:MAX_DETAILS] + [
                    f"... {len(details) - MAX_DETAILS} more"
                ]
            for detail in details:
                violations.append(
                    Violation(
                        invariant=name,
                        detail=detail,
                        time=env.now,
                        boundary=boundary,
                    )
                )
        if violations and env.journal is not None:
            tail = [e.as_dict() for e in env.journal.tail(self.journal_tail)]
            for violation in violations:
                violation.journal_tail = tail
        report = AuditReport(
            time=env.now,
            boundary=boundary,
            checks=[name for name, _fn in INVARIANTS],
            violations=violations,
        )
        self.reports.append(report)
        self.total_violations += len(violations)
        journal_event(
            env, "audit.run", boundary=boundary, violations=len(violations)
        )
        return report

    def on_boundary(self, boundary: str) -> None:
        """Hook called by the device at flush/phase boundaries."""
        if self.level == "phase":
            self.run(boundary)

    def summary(self) -> dict[str, Any]:
        """Run/violation accounting across every retained report."""
        return {
            "level": self.level,
            "runs": len(self.reports),
            "total_violations": self.total_violations,
            "failed_runs": sum(1 for r in self.reports if not r.ok),
        }


def attach_auditor(
    device: "KvCsdDevice",
    level: str = "phase",
    journal_tail: int = 16,
) -> Optional[InvariantAuditor]:
    """Wire an auditor onto a device; ``level="off"`` detaches instead."""
    if level == "off":
        device.auditor = None
        return None
    auditor = InvariantAuditor(device, level=level, journal_tail=journal_tail)
    device.auditor = auditor
    return auditor
