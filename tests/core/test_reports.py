"""Tests for the observability report APIs of both stores."""

from tests.core.conftest import CsdTestbed, make_pairs
from tests.lsm.conftest import LsmTestbed, small_options


def test_device_report_structure():
    tb = CsdTestbed()
    pairs = make_pairs(2000)

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(proc())
    report = tb.device.introspect()
    assert report["keyspaces"]["ks"]["state"] == "compacted"
    assert report["keyspaces"]["ks"]["n_pairs"] == 2000
    assert report["counters"]["pairs_inserted"] == 2000
    assert report["counters"]["compactions"] == 1
    assert report["ssd"]["io"]["bytes_written"] > 0
    assert sum(report["soc"]["core_busy_seconds"]) > 0
    assert report["jobs"]["pending"] == {}
    assert "ks/compaction" in report["jobs"]["durations"]
    assert report["zone_manager"]["free_zone_count"] < tb.ssd.geometry.n_zones


def test_device_report_pending_jobs_visible():
    tb = CsdTestbed()
    pairs = make_pairs(20_000)

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        # report taken while the job is live
        return tb.device.introspect()

    report = tb.run(proc())
    assert report["jobs"]["pending"].get("ks") == 1
    assert report["keyspaces"]["ks"]["state"] == "compacting"


def test_lsm_report_structure():
    tb = LsmTestbed(options=small_options())
    tb.run(tb.db.open(tb.fg))

    def load():
        for i in range(2000):
            yield from tb.db.put(f"k{i:06d}".encode(), b"v" * 32, tb.fg)
        yield from tb.db.flush(tb.fg)
        yield from tb.db.wait_for_compaction()

    tb.run(load())
    report = tb.db.report()
    assert report["open"]
    assert report["counters"]["puts"] == 2000
    assert report["counters"]["flushes"] >= 1
    assert sum(report["levels"]["files"]) == tb.db.table_count()
    assert sum(report["levels"]["bytes"]) > 0
    assert report["immutable_memtables"] == 0
    assert report["pending_jobs"] == 0
    assert 0.0 <= report["block_cache"]["hit_rate"] <= 1.0
