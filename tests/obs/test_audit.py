"""Invariant auditor: every check's pass and fail path, plus zero-cost.

The clean reference workload must pass all twelve invariants; each
corruption test then breaks exactly one structural property and asserts
the exact set of invariants the report names: the broken one, plus any
other that the same corruption necessarily breaks.  Corruption happens on
a fresh per-test device (the ``compacted_kv`` fixture), so mutations never
leak.
"""

import pytest

from repro.bench.registry import Observe
from repro.core.keyspace import KeyspaceState
from repro.errors import SimulationError
from repro.obs import audit as audit_mod
from repro.obs.audit import (
    INVARIANTS,
    InvariantAuditor,
    attach_auditor,
    check_klog_vlog_pointers,
)
from repro.ssd.zone import ZoneState
from repro.units import KiB, MiB


def violated(kv, auditor) -> set[str]:
    """Invariant names flagged by a fresh audit pass."""
    report = auditor.run("test")
    return {v.invariant for v in report.violations}


# -- clean paths ---------------------------------------------------------------
def test_clean_workload_passes_every_invariant(compacted_kv):
    _kv, _auditor, report = compacted_kv
    assert report.ok
    assert report.checks == [name for name, _fn in INVARIANTS]
    assert len(report.checks) == 12


def test_phase_level_audits_cover_flush_and_compaction_boundaries(compacted_kv):
    _kv, auditor, report = compacted_kv
    assert report.ok
    summary = auditor.summary()
    assert summary["failed_runs"] == 0
    boundaries = {r.boundary for r in auditor.reports}
    assert {
        "flush",
        "compact.read_klog",
        "compact.sort",
        "compact.gather",
        "compact.materialize",
        "compact.cleanup",
        "sidx",
        "final",
    } <= boundaries


# -- per-invariant corruption: each names the broken invariant -----------------
def _ingest_only(n_pairs=600):
    """A WRITABLE keyspace with live KLOG/VLOG clusters (small membuf so
    bulk_put flushes several times)."""
    from repro.bench import build_kvcsd_testbed
    from repro.workloads import SyntheticSpec, generate_pairs

    kv = build_kvcsd_testbed(seed=0, membuf_bytes=8 * KiB)
    pairs = generate_pairs(SyntheticSpec(n_pairs=n_pairs, seed=0))

    def workload():
        ctx = kv.thread_ctx(0)
        yield from kv.client.create_keyspace("ks", ctx)
        yield from kv.client.open_keyspace("ks", ctx)
        yield from kv.client.bulk_put("ks", pairs, ctx)

    kv.env.run(kv.env.process(workload()))
    return kv


def test_klog_vlog_pointers_pass_and_fail():
    kv = _ingest_only()
    ks = kv.device.keyspaces["ks"]
    assert ks.klog_clusters  # the ingest actually flushed
    assert check_klog_vlog_pointers(kv.device) == []
    ks.vlog_clusters.clear()  # orphan every KLOG value pointer
    auditor = InvariantAuditor(kv.device)
    # the dropped VLOG clusters' zones are now owned by nobody
    assert violated(kv, auditor) == {"klog_vlog_pointers", "zone_accounting"}


def test_pidx_block_agreement_fail(compacted_kv):
    kv, auditor, _report = compacted_kv
    sketch = kv.device.keyspaces["ks"].pidx_sketch
    sketch.pivots[0], sketch.pivots[1] = sketch.pivots[1], sketch.pivots[0]
    assert violated(kv, auditor) == {"pidx_block_agreement"}


def test_pidx_value_resolution_fail_on_pair_count(compacted_kv):
    kv, auditor, _report = compacted_kv
    kv.device.keyspaces["ks"].n_pairs += 1
    assert violated(kv, auditor) == {"pidx_value_resolution"}


def test_pidx_value_resolution_fail_without_sketch(compacted_kv):
    kv, auditor, _report = compacted_kv
    kv.device.keyspaces["ks"].pidx_sketch = None
    # without the sketch no SIDX entry resolves to a primary either
    assert violated(kv, auditor) == {"pidx_value_resolution", "sidx_primary_resolution"}


def test_sidx_primary_resolution_fail(compacted_kv):
    from dataclasses import replace

    kv, auditor, _report = compacted_kv
    ks = kv.device.keyspaces["ks"]
    config, sketch = ks.sidx["val64"]
    # shift the extraction window: stored skeys no longer re-derive
    ks.sidx["val64"] = (replace(config, value_offset=8), sketch)
    assert violated(kv, auditor) == {"sidx_primary_resolution"}


def test_zone_ownership_disjoint_fail(compacted_kv):
    kv, auditor, _report = compacted_kv
    owned = kv.device.keyspaces["ks"].pidx_clusters[0].zone_ids[0]
    kv.device.zone_manager._free.append(owned)
    # an owned zone on the free list is also a free zone holding data
    assert violated(kv, auditor) == {"zone_ownership_disjoint", "free_list_zones_empty"}


def test_free_list_zones_empty_fail_on_duplicate(compacted_kv):
    kv, auditor, _report = compacted_kv
    free = kv.device.zone_manager._free
    free.append(free[0])
    assert violated(kv, auditor) == {"free_list_zones_empty"}


def test_zone_state_write_pointer_fail(compacted_kv):
    kv, auditor, _report = compacted_kv
    zone = next(
        z for z in kv.device.ssd.zones if z.state is not ZoneState.EMPTY
    )
    zone.state = ZoneState.EMPTY  # claims rewound while holding data
    assert violated(kv, auditor) == {"zone_state_write_pointer"}


def test_block_cache_coherence_fail(compacted_kv):
    kv, auditor, _report = compacted_kv
    cache = kv.device.block_cache
    assert len(cache) > 0  # the query phase populated it
    pointer = next(iter(cache._entries))
    cache._entries[pointer] = b"\x00" * len(cache._entries[pointer])
    assert violated(kv, auditor) == {"block_cache_coherence"}


def test_keyspace_job_legality_fail(compacted_kv):
    kv, auditor, _report = compacted_kv
    kv.device.keyspaces["ks"].state = KeyspaceState.EMPTY
    assert violated(kv, auditor) == {"keyspace_job_legality"}


def test_dram_budget_accounting_fail(compacted_kv):
    kv, auditor, _report = compacted_kv
    kv.device.board.dram.capacity = -1
    assert violated(kv, auditor) == {"dram_budget_accounting"}


def test_nvme_queue_sanity_fail(compacted_kv):
    kv, auditor, _report = compacted_kv
    qp = kv.client.qp
    qp.completed = qp.submitted + 1
    assert violated(kv, auditor) == {"nvme_queue_sanity"}


# -- auditor mechanics ---------------------------------------------------------
def test_crashed_check_is_reported_as_finding(compacted_kv, monkeypatch):
    kv, auditor, _report = compacted_kv

    def boom(_device):
        raise RuntimeError("check exploded")

    monkeypatch.setattr(audit_mod, "INVARIANTS", [("boom", boom)])
    report = auditor.run("test")
    assert not report.ok
    assert report.violations[0].invariant == "boom"
    assert "check raised RuntimeError" in report.violations[0].detail


def test_violations_carry_journal_tail_and_format(compacted_kv):
    kv, auditor, _report = compacted_kv
    kv.device.keyspaces["ks"].n_pairs += 1
    report = auditor.run("test")
    violation = report.violations[0]
    assert violation.journal_tail  # joined to the journal's recent events
    assert all("seq" in e and "type" in e for e in violation.journal_tail)
    text = report.format()
    assert "FAIL pidx_value_resolution" in text
    assert "journal: #" in text


def test_detail_flood_is_capped(compacted_kv):
    kv, auditor, _report = compacted_kv
    kv.device.keyspaces["ks"].sorted_value_clusters.clear()  # every key dangles
    report = auditor.run("test")
    per_check = [
        v
        for v in report.violations
        if v.invariant == "pidx_value_resolution"
    ]
    assert len(per_check) <= audit_mod.MAX_DETAILS + 1
    assert any("more" in v.detail for v in per_check)


def test_attach_auditor_levels():
    from repro.bench import build_kvcsd_testbed

    kv = build_kvcsd_testbed(seed=0)
    auditor = attach_auditor(kv.device, level="phase")
    assert kv.device.auditor is auditor
    assert attach_auditor(kv.device, level="off") is None
    assert kv.device.auditor is None
    with pytest.raises(SimulationError):
        attach_auditor(kv.device, level="paranoid")


def test_on_boundary_respects_level(compacted_kv):
    kv, _auditor, _report = compacted_kv
    off = InvariantAuditor(kv.device, level="off")
    off.on_boundary("flush")
    assert off.reports == []
    phase = InvariantAuditor(kv.device, level="phase")
    phase.on_boundary("flush")
    assert [r.boundary for r in phase.reports] == ["flush"]


def test_audit_creates_no_simulation_events(compacted_kv):
    kv, auditor, _report = compacted_kv
    before = kv.env.now
    report = auditor.run("test")
    assert kv.env.now == before
    assert report.ok
    runs = kv.env.journal.of_type("audit.run")
    assert runs and runs[-1].fields == {"boundary": "test", "violations": 0}


# -- byte identity -------------------------------------------------------------
def _drive(kv, n_pairs=400):
    from repro.core.sidx import SidxConfig
    from repro.workloads import SyntheticSpec, generate_pairs

    pairs = generate_pairs(SyntheticSpec(n_pairs=n_pairs, seed=0))
    keys = [k for k, _ in pairs[::50]]

    def workload():
        ctx = kv.thread_ctx(0)
        yield from kv.client.create_keyspace("ks", ctx)
        yield from kv.client.open_keyspace("ks", ctx)
        yield from kv.client.bulk_put("ks", pairs, ctx)
        yield from kv.client.compact(
            "ks",
            ctx,
            secondary_indexes=[
                SidxConfig(name="val64", value_offset=0, width=8, dtype="u64")
            ],
        )
        yield from kv.client.wait_for_device("ks", ctx)
        for key in keys[:8]:
            yield from kv.client.get("ks", key, ctx)

    kv.env.run(kv.env.process(workload()))


def test_audited_run_is_byte_identical_to_plain():
    from repro.bench import build_kvcsd_testbed

    plain = build_kvcsd_testbed(seed=0, block_cache_bytes=4 * MiB)
    _drive(plain)
    observed = build_kvcsd_testbed(seed=0, block_cache_bytes=4 * MiB)
    Observe(["journal", "audit"])(observed)
    _drive(observed)
    assert observed.env.now == plain.env.now
    assert observed.io_snapshot() == plain.io_snapshot()
    assert len(observed.env.journal) > 0
    assert observed.device.auditor.reports  # audits actually ran


def test_audited_testbed_fixture_guards_workload(audited_testbed):
    # the fixture's teardown runs the full registry and asserts it passes
    _drive(audited_testbed, n_pairs=300)


def test_zone_accounting_fail_on_leaked_cluster(compacted_kv):
    kv, auditor, _report = compacted_kv
    kv.device.zone_manager.allocate_cluster()  # out of the pool, owned by nobody
    assert violated(kv, auditor) == {"zone_accounting"}


def test_zone_accounting_waits_for_jobs_to_commit(compacted_kv):
    kv, auditor, _report = compacted_kv
    kv.device.zone_manager.allocate_cluster()  # a running job's output
    kv.device.keyspaces["ks"].jobs.append(kv.env.event())
    assert "zone_accounting" not in violated(kv, auditor)
