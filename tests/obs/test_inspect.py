"""Snapshot schema stability and rendering for ``repro inspect``."""

import json

from repro.obs.inspect import (
    SNAPSHOT_SCHEMA_VERSION,
    device_snapshot,
    format_snapshot,
    snapshot_json,
)

#: the stable top-level contract of a snapshot; additions bump the version
TOP_LEVEL_KEYS = {"schema_version", "time", "device", "journal"}
DEVICE_KEYS = {
    "keyspaces",
    "membufs",
    "sequence_numbers",
    "zone_manager",
    "metadata_zone",
    "ssd",
    "soc",
    "block_cache",
    "jobs",
    "counters",
    "compaction_shards",
    "query_workers",
    "query_scheduler",
    "bloom_dram_bytes",
    "mount_stages",
}


def test_snapshot_schema_version_and_top_level(compacted_kv):
    kv, _auditor, _report = compacted_kv
    snapshot = device_snapshot(kv.device)
    assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION == 3
    assert set(snapshot) == TOP_LEVEL_KEYS
    assert snapshot["time"] == kv.env.now
    # v3: the SoC carries no NVMe queue of its own
    assert "nvme_queue" not in snapshot["device"]["soc"]


def test_snapshot_device_section_keys_stable(compacted_kv):
    kv, _auditor, _report = compacted_kv
    assert set(device_snapshot(kv.device)["device"]) == DEVICE_KEYS


def test_snapshot_is_json_round_trippable_and_deterministic(compacted_kv):
    kv, _auditor, _report = compacted_kv
    text = snapshot_json(kv.device)
    parsed = json.loads(text)
    assert parsed["schema_version"] == SNAPSHOT_SCHEMA_VERSION
    # sort_keys + unchanged state => byte-identical re-render
    assert snapshot_json(kv.device) == text


def test_snapshot_reflects_compacted_keyspace(compacted_kv):
    kv, _auditor, _report = compacted_kv
    ks = device_snapshot(kv.device)["device"]["keyspaces"]["ks"]
    assert ks["state"] == "compacted"
    assert ks["n_pairs"] == 800
    assert ks["pidx_sketch"]["n_blocks"] > 0
    assert "val64" in ks["sidx"]
    # compacted keyspaces have released their unsorted logs
    assert ks["clusters"]["klog"] == []
    assert ks["clusters"]["vlog"] == []


def test_snapshot_includes_zns_zone_table(compacted_kv):
    kv, _auditor, _report = compacted_kv
    ssd = device_snapshot(kv.device)["device"]["ssd"]
    assert sum(ssd["zones_by_state"].values()) == ssd["geometry"]["n_zones"]
    for row in ssd["open_or_full_zones"]:
        assert row["write_pointer"] > 0


def test_snapshot_creates_no_simulation_events(compacted_kv):
    kv, _auditor, _report = compacted_kv
    before = kv.env.now
    device_snapshot(kv.device)
    snapshot_json(kv.device)
    assert kv.env.now == before


def test_format_snapshot_renders_tree(compacted_kv):
    kv, _auditor, _report = compacted_kv
    text = format_snapshot(device_snapshot(kv.device))
    assert text.startswith(f"kv-csd snapshot (schema v{SNAPSHOT_SCHEMA_VERSION}")
    assert "keyspaces:" in text
    assert "zone_manager:" in text
