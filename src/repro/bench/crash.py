"""Randomized crash-injection campaign and recovery-time curves.

Every acknowledged write in KV-CSD is a durability promise: once an
``fsync``/``wait_for_device``/``delete_keyspace`` command completes, a
power loss at *any* later instant must not lose it.  This bench turns that
promise into a measured quantity:

1. **Reference run** — each workload (ingest, compact, churn, mixed) runs
   to completion on a testbed with the event journal installed, learning
   the total journal event count ``E`` and SSD append count ``W``, the
   final acknowledged state, and the bloom-elimination behaviour of
   compacted keyspaces on absent-key probes.
2. **Crash campaign** — for each workload, crash points are sampled
   without replacement: power cuts at arbitrary journal sequence numbers
   in ``[1, E]`` (:class:`FaultPlan.cut_at_event`) and torn appends at
   arbitrary SSD writes in ``[1, W]`` (``torn_after_writes`` leaves only a
   prefix of the append on flash).  The dead device's flash image is
   lifted with ``ZnsSsd.flash_state``, loaded into a fresh testbed, and
   mounted by its :meth:`~repro.bench.calibration.KvcsdTestbed.power_cycle`
   (the staged ``recover()`` pipeline).
3. **Proof obligations per remount** — the full invariant auditor passes
   at the ``mount`` boundary; every pair whose durability barrier
   completed before the cut reads back byte-identical; durably deleted
   keys stay deleted; durably dropped keyspaces stay dropped; keyspaces
   that durably compacted come back ``COMPACTED`` with every per-block
   bloom re-attached from the metadata annex and absent-key probes
   touching exactly as many PIDX blocks as the never-crashed reference.
4. **Recovery curves** — clean power cycles at increasing data volumes
   measure mount latency (and its per-stage breakdown) against data
   volume for both writable (KLOG-rescan-bound) and compacted
   (sketch-reload-bound) keyspaces.

``repro run crash`` runs this and writes ``results/BENCH_crash.json``;
the CI regression gate pins ``campaign.clean_fraction`` and the smoke
mount time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.calibration import HostSpec, KvcsdTestbed, bench_geometry
from repro.bench.report import ResultTable, ShapeCheck
from repro.core import SidxConfig
from repro.core.keyspace import KeyspaceState
from repro.obs.audit import InvariantAuditor
from repro.obs.journal import install_journal
from repro.soc import SocSpec
from repro.ssd.faults import FaultPlan, PowerCut
from repro.units import KiB, MiB

__all__ = ["CrashBenchConfig", "CrashBenchResult", "run_crash_bench"]


@dataclass(frozen=True)
class CrashBenchConfig:
    """Campaign shape: workloads, crash-point counts, curve volumes."""

    seed: int = 202
    n_pairs: int = 1500
    key_bytes: int = 16
    value_bytes: int = 48
    chunk_pairs: int = 300
    workloads: tuple[str, ...] = ("ingest", "compact", "churn", "mixed")
    #: power cuts sampled per workload at arbitrary journal events
    n_event_points: int = 40
    #: torn-append cuts sampled per workload at arbitrary SSD writes
    n_torn_points: int = 12
    bloom_bits_per_key: int = 10
    #: absent keys probed per compacted keyspace for bloom-parity checks
    absent_probes: int = 48
    #: (n_pairs, ...) volumes for the recovery-time-vs-data-volume curves
    curve_volumes: tuple[int, ...] = (600, 1200, 2400, 4800)
    #: hard floor on distinct crash points the campaign must cover (the
    #: per-workload samples are capped by that run's journal/write counts)
    min_points: int = 200


@dataclass
class _KsExpect:
    """Acknowledged durable state of one keyspace at the instant of the cut.

    ``pairs``/``deleted``/``compacted``/``dropped`` move only *after* a
    durability barrier completes, so a power cut can never leave them
    claiming more than the device promised.  Operations that were issued
    but not yet acknowledged sit in ``uncertain``: crash semantics allow
    their effects to be fully, partially, or not at all applied, so each
    in-flight key maps to the set of outcomes the remount may legally
    return (``None`` = absent).
    """

    created: bool = False
    compacted: bool = False
    dropped: bool = False
    #: a delete_keyspace was issued but not acknowledged: either outcome OK
    drop_pending: bool = False
    pairs: dict[bytes, bytes] = field(default_factory=dict)
    deleted: set[bytes] = field(default_factory=set)
    uncertain: dict[bytes, tuple] = field(default_factory=dict)


@dataclass
class _Reference:
    """What the never-crashed run of one workload looked like."""

    events: int
    write_ops: int
    #: keyspace -> pidx_block_reads delta for the absent-key probe set
    probe_delta: dict[str, int]
    seconds: float


# ------------------------------------------------------------------ testbeds
def _testbed(config: CrashBenchConfig) -> KvcsdTestbed:
    """One device under a minimal host."""
    return KvcsdTestbed(
        seed=config.seed,
        host=HostSpec(n_cores=4, timeslice=10e-3, pcie_lanes_to_csd=16),
        soc=SocSpec(
            sort_budget_bytes=64 * MiB, bloom_bits_per_key=config.bloom_bits_per_key
        ),
        geometry=bench_geometry(n_channels=4, n_zones=96, zone_size=1 * MiB),
        membuf_bytes=48 * KiB,
        cluster_zones=2,
    )


# ------------------------------------------------------------------ workloads
_WL_INDEX = {"ingest": 0, "compact": 1, "churn": 2, "mixed": 3}


def _workload_pairs(workload: str, config: CrashBenchConfig, n: int | None = None):
    n = config.n_pairs if n is None else n
    rng = np.random.default_rng([config.seed, _WL_INDEX.get(workload, 9)])
    values = rng.integers(0, 256, size=(n, config.value_bytes), dtype=np.uint8)
    return [
        (f"{workload}{i:012d}".encode(), values[i].tobytes()) for i in range(n)
    ]


def _absent_keys(workload: str, config: CrashBenchConfig) -> list[bytes]:
    """Keys that interleave with the workload's key range but never exist."""
    rng = np.random.default_rng([config.seed, 17, _WL_INDEX.get(workload, 9)])
    picks = rng.integers(0, config.n_pairs, size=config.absent_probes)
    return [f"{workload}{int(i):012d}x".encode() for i in picks]


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _put_fsync(client, ctx, name, expect, batch):
    """One acknowledged chunk: ingest + fsync, then account it durable.

    Until the fsync acknowledges, each key may legally read back as its
    prior value (or absent) *or* the new value — an auto-flush can land a
    prefix of the chunk before the cut.
    """
    e = expect[name]
    for key, value in batch:
        e.uncertain[key] = (e.pairs.get(key), value)
    yield from client.bulk_put(name, batch, ctx)
    yield from client.fsync(name, ctx)
    e.pairs.update(batch)
    for key, _value in batch:
        e.uncertain.pop(key, None)


def _create(client, ctx, name, expect):
    """Create and open one keyspace, which counts as created once both ack;
    returns its expectation."""
    e = expect.setdefault(name, _KsExpect())
    yield from client.create_keyspace(name, ctx)
    yield from client.open_keyspace(name, ctx)
    e.created = True
    return e


def _drive_ingest(bed: KvcsdTestbed, pairs, expect, config: CrashBenchConfig):
    client, ctx = bed.client, bed.thread_ctx(0)
    yield from _create(client, ctx, "ing", expect)
    for batch in _chunks(pairs, config.chunk_pairs):
        yield from _put_fsync(client, ctx, "ing", expect, batch)


def _drive_compact(bed: KvcsdTestbed, pairs, expect, config: CrashBenchConfig):
    client, ctx = bed.client, bed.thread_ctx(0)
    e = yield from _create(client, ctx, "cmp", expect)
    for batch in _chunks(pairs, config.chunk_pairs):
        yield from _put_fsync(client, ctx, "cmp", expect, batch)
    yield from client.compact(
        "cmp", ctx,
        secondary_indexes=[SidxConfig("tag", value_offset=0, width=4)],
    )
    yield from client.wait_for_device("cmp", ctx)
    e.compacted = True


def _drive_churn(bed: KvcsdTestbed, pairs, expect, config: CrashBenchConfig):
    client, ctx = bed.client, bed.thread_ctx(0)
    e = yield from _create(client, ctx, "chn", expect)
    for batch in _chunks(pairs, config.chunk_pairs):
        yield from _put_fsync(client, ctx, "chn", expect, batch)
    # Tombstones append straight to the KLOG: durable once acknowledged;
    # until then a torn append may land any prefix of them.
    doomed = [key for i, (key, _v) in enumerate(pairs) if i % 5 == 0]
    for key in doomed:
        e.uncertain[key] = (e.pairs.get(key), None)
    yield from client.bulk_delete("chn", doomed, ctx)
    for key in doomed:
        e.pairs.pop(key, None)
        e.deleted.add(key)
        e.uncertain.pop(key, None)
    overwrites = [
        (key, value[::-1])
        for i, (key, value) in enumerate(pairs)
        if i % 5 and i % 7 == 0
    ]
    for batch in _chunks(overwrites, config.chunk_pairs):
        yield from _put_fsync(client, ctx, "chn", expect, batch)
    yield from client.compact("chn", ctx)
    yield from client.wait_for_device("chn", ctx)
    e.compacted = True


def _drive_mixed(bed: KvcsdTestbed, pairs, expect, config: CrashBenchConfig):
    """Compact early, then keep the journal moving: later crash points land
    *after* the durable compaction, exercising bloom-annex reloads; a
    scratch keyspace is created, filled, and durably dropped."""
    client, ctx = bed.client, bed.thread_ctx(0)
    e_main = yield from _create(client, ctx, "mx", expect)
    main = pairs[: max(config.chunk_pairs, len(pairs) // 2)]
    scratch = pairs[len(main):]
    for batch in _chunks(main, config.chunk_pairs):
        yield from _put_fsync(client, ctx, "mx", expect, batch)
    yield from client.compact("mx", ctx)
    yield from client.wait_for_device("mx", ctx)
    e_main.compacted = True
    e_scr = yield from _create(client, ctx, "scratch", expect)
    for batch in _chunks(scratch, config.chunk_pairs):
        yield from _put_fsync(client, ctx, "scratch", expect, batch)
    e_scr.drop_pending = True
    yield from client.delete_keyspace("scratch", ctx)
    e_scr.dropped = True
    e_scr.pairs.clear()


_WORKLOADS = {
    "ingest": _drive_ingest,
    "compact": _drive_compact,
    "churn": _drive_churn,
    "mixed": _drive_mixed,
}


# ------------------------------------------------------------------ campaign
def _probe_delta(bed: KvcsdTestbed, name: str, absent: list[bytes]) -> int:
    """PIDX block reads consumed by probing keys that do not exist."""
    before = bed.device.stats.counter("pidx_block_reads").value
    found = bed.run(bed.client.multi_get(name, absent, bed.thread_ctx(0)))
    assert not found, "absent probe keys unexpectedly exist"
    return bed.device.stats.counter("pidx_block_reads").value - before


def _reference_run(workload: str, pairs, config: CrashBenchConfig) -> _Reference:
    bed = _testbed(config)
    journal = install_journal(bed.env)
    expect: dict[str, _KsExpect] = {}
    t0 = bed.env.now
    bed.run(_WORKLOADS[workload](bed, pairs, expect, config))
    seconds = bed.env.now - t0
    events = journal.total_recorded
    write_ops = bed.ssd.stats.write_ops
    absent = _absent_keys(workload, config)
    probe_delta = {
        name: _probe_delta(bed, name, absent)
        for name, e in expect.items()
        if e.compacted and config.bloom_bits_per_key
    }
    return _Reference(
        events=events, write_ops=write_ops,
        probe_delta=probe_delta, seconds=seconds,
    )


def _verify_remount(
    bed: KvcsdTestbed,
    expect: dict[str, _KsExpect],
    ref: _Reference,
    workload: str,
    config: CrashBenchConfig,
) -> list[str]:
    """All proof obligations for one remounted crash point.

    Returns failure tags (empty = the remount kept every promise).
    """
    failures: list[str] = []
    report = InvariantAuditor(bed.device, level="phase").run("mount")
    if not report.ok:
        failures.append("audit:" + report.violations[0].invariant)
    client, ctx = bed.client, bed.thread_ctx(0)
    for name in sorted(expect):
        e = expect[name]
        if not e.created:
            continue  # creation never acknowledged; either outcome is legal
        if e.dropped:
            if name in bed.device.keyspaces:
                failures.append(f"{name}:dropped-but-present")
            continue
        ks = bed.device.keyspaces.get(name)
        if ks is None:
            if not e.drop_pending:  # an in-flight drop may have landed
                failures.append(f"{name}:missing")
            continue
        if e.compacted and ks.state is not KeyspaceState.COMPACTED:
            failures.append(f"{name}:lost-compaction")
            continue
        have_promises = bool(e.pairs or e.deleted or e.uncertain)
        if have_promises and ks.state is not KeyspaceState.COMPACTED:
            if ks.n_pairs == 0 and not e.pairs:
                continue  # nothing with a promised value survived; absence is legal

            def make_queryable():
                yield from client.compact(name, ctx)
                yield from client.wait_for_device(name, ctx)

            bed.run(make_queryable())
        if have_promises:
            keys = sorted(set(e.pairs) | e.deleted | set(e.uncertain))
            got: dict[bytes, bytes] = {}
            for batch in _chunks(keys, 256):
                got.update(bed.run(client.multi_get(name, batch, ctx)))
            for key in keys:
                if key in e.uncertain:
                    allowed = set(e.uncertain[key])
                elif key in e.deleted:
                    allowed = {None}
                else:
                    allowed = {e.pairs[key]}
                if got.get(key) not in allowed:
                    tag = "byte-mismatch" if key in e.pairs else "deleted-key-returned"
                    failures.append(f"{name}:{tag}")
                    break
        if e.compacted and config.bloom_bits_per_key:
            sketch = ks.pidx_sketch
            if sketch is None or len(sketch.blooms) != len(sketch):
                failures.append(f"{name}:bloom-annex-missing")
            elif name in ref.probe_delta:
                delta = _probe_delta(bed, name, _absent_keys(workload, config))
                if delta != ref.probe_delta[name]:
                    failures.append(f"{name}:bloom-elimination-regressed")
            if workload == "compact" and "tag" not in ks.sidx:
                failures.append(f"{name}:sidx-missing")
    return failures


def _run_crash_point(
    workload: str,
    pairs,
    config: CrashBenchConfig,
    ref: _Reference,
    plan: FaultPlan,
) -> dict:
    bed = _testbed(config)
    journal = install_journal(bed.env)
    bed.ssd.faults = plan
    journal.on_record = plan.observe_event
    expect: dict[str, _KsExpect] = {}
    try:
        bed.run(_WORKLOADS[workload](bed, pairs, expect, config))
        cut_fired = plan.power_cut
    except PowerCut:
        cut_fired = True
    if not cut_fired:
        return {"workload": workload, "ok": False, "failures": ["cut-never-fired"]}
    # only what flash_state() captured survives the cut (NAND is
    # non-volatile; a torn append's prefix is faithfully present)
    mounted = _testbed(config)
    mounted.ssd.load_flash_state(bed.ssd.flash_state())
    mount_seconds = mounted.power_cycle()
    failures = _verify_remount(mounted, expect, ref, workload, config)
    return {
        "workload": workload,
        "ok": not failures,
        "failures": failures,
        "mount_seconds": mount_seconds,
    }


# ------------------------------------------------------------------ curves
def _curve_point(config: CrashBenchConfig, n_pairs: int, mode: str) -> dict:
    bed = _testbed(config)
    pairs = _workload_pairs("cv", config, n=n_pairs)

    def drive():
        client, ctx = bed.client, bed.thread_ctx(0)
        yield from client.create_keyspace("cv", ctx)
        yield from client.open_keyspace("cv", ctx)
        for batch in _chunks(pairs, config.chunk_pairs):
            yield from client.bulk_put("cv", batch, ctx)
        yield from client.fsync("cv", ctx)
        if mode == "compacted":
            yield from client.compact("cv", ctx)
            yield from client.wait_for_device("cv", ctx)

    bed.run(drive())
    mounted = _testbed(config)
    mounted.ssd.load_flash_state(bed.ssd.flash_state())
    mount_seconds = mounted.power_cycle()
    return {
        "mode": mode,
        "n_pairs": n_pairs,
        "flash_bytes": int(bed.ssd.stats.bytes_written),
        "mount_seconds": mount_seconds,
        "stages": dict(mounted.device.mount_stages),
    }


# ------------------------------------------------------------------ results
@dataclass
class CrashBenchResult:
    config: CrashBenchConfig
    points: int = 0
    clean_points: int = 0
    event_points: int = 0
    torn_points: int = 0
    per_workload: dict[str, dict] = field(default_factory=dict)
    failed_points: list[dict] = field(default_factory=list)
    mount_seconds: list[float] = field(default_factory=list)
    curve: list[dict] = field(default_factory=list)
    reference_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def clean_fraction(self) -> float:
        return self.clean_points / self.points if self.points else 0.0

    @property
    def max_mount_seconds(self) -> float:
        return max(self.mount_seconds, default=0.0)

    def table(self) -> ResultTable:
        t = ResultTable(
            "Crash-injection campaign: remount proofs per workload",
            ["workload", "points", "event cuts", "torn cuts", "clean"],
        )
        for name in self.config.workloads:
            row = self.per_workload.get(name, {})
            t.add_row(
                name,
                str(row.get("points", 0)),
                str(row.get("event_points", 0)),
                str(row.get("torn_points", 0)),
                str(row.get("clean", 0)),
            )
        t.add_row(
            "total", str(self.points), str(self.event_points),
            str(self.torn_points), str(self.clean_points),
        )
        if self.curve:
            worst = max(self.curve, key=lambda p: p["mount_seconds"])
            t.add_note(
                f"recovery curve: {len(self.curve)} clean power cycles, "
                f"slowest mount {worst['mount_seconds']:.6f}s "
                f"({worst['mode']}, {worst['n_pairs']} pairs)"
            )
        for point in self.failed_points:
            t.add_note(
                f"FAILED {point['workload']} {point['kind']}@{point['at']}: "
                f"{'; '.join(point['failures'])}"
            )
        return t

    def checks(self) -> list[ShapeCheck]:
        bloom_failures = sum(
            1 for p in self.failed_points
            if any("bloom" in f for f in p["failures"])
        )
        return [
            ShapeCheck(
                "every crash point remounts auditor-clean with all "
                "acknowledged data byte-identical",
                self.clean_points == self.points and self.points > 0,
                f"{self.clean_points}/{self.points}",
            ),
            ShapeCheck(
                "recovered compacted keyspaces keep full bloom-based "
                "PIDX-read elimination",
                bloom_failures == 0,
                f"{bloom_failures} bloom regressions",
            ),
            ShapeCheck(
                "campaign covered enough distinct crash points",
                self.points >= self.config.min_points,
                f"{self.points}/{self.config.min_points}",
            ),
        ]

    def metrics(self) -> dict:
        return {
            "campaign": {
                "points": self.points,
                "clean_points": self.clean_points,
                "clean_fraction": self.clean_fraction,
                "event_points": self.event_points,
                "torn_points": self.torn_points,
                "per_workload": self.per_workload,
                "failed_points": self.failed_points,
            },
            "mount": {
                "max_seconds": self.max_mount_seconds,
                "mean_seconds": (
                    sum(self.mount_seconds) / len(self.mount_seconds)
                    if self.mount_seconds else 0.0
                ),
            },
            "curve": self.curve,
            "reference_seconds": self.reference_seconds,
        }


def run_crash_bench(config: CrashBenchConfig = CrashBenchConfig()) -> CrashBenchResult:
    """Run the full campaign plus the recovery-time curves."""
    result = CrashBenchResult(config=config)
    for widx, workload in enumerate(config.workloads):
        pairs = _workload_pairs(workload, config)
        ref = _reference_run(workload, pairs, config)
        result.reference_seconds[workload] = ref.seconds
        rng = np.random.default_rng([config.seed, 31, widx])
        n_events = min(config.n_event_points, ref.events)
        event_cuts = rng.choice(
            np.arange(1, ref.events + 1), size=n_events, replace=False
        )
        n_torn = min(config.n_torn_points, ref.write_ops)
        torn_cuts = rng.choice(
            np.arange(1, ref.write_ops + 1), size=n_torn, replace=False
        )
        stats = {"points": 0, "event_points": 0, "torn_points": 0, "clean": 0}
        for kind, cuts in (("event", event_cuts), ("torn", torn_cuts)):
            for at in sorted(int(c) for c in cuts):
                if kind == "event":
                    plan = FaultPlan(cut_at_event=at)
                else:
                    plan = FaultPlan(torn_after_writes=at)
                outcome = _run_crash_point(workload, pairs, config, ref, plan)
                result.points += 1
                stats["points"] += 1
                stats[f"{kind}_points"] += 1
                if kind == "event":
                    result.event_points += 1
                else:
                    result.torn_points += 1
                if outcome["ok"]:
                    result.clean_points += 1
                    stats["clean"] += 1
                else:
                    result.failed_points.append(
                        {"workload": workload, "kind": kind, "at": at,
                         "failures": outcome["failures"]}
                    )
                if "mount_seconds" in outcome:
                    result.mount_seconds.append(outcome["mount_seconds"])
        result.per_workload[workload] = stats
    for n_pairs in config.curve_volumes:
        for mode in ("writable", "compacted"):
            result.curve.append(_curve_point(config, n_pairs, mode))
    return result
