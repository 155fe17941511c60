"""Unit tests for the benchmark infrastructure: report, calibration, CLI."""

import pytest

from repro.bench.calibration import (
    TABLE1_CSD,
    TABLE1_HOST,
    bench_db_options,
    bench_geometry,
    build_kvcsd_testbed,
    build_rocksdb_testbed,
)
from repro.bench.claims import shape_checks
from repro.bench.registry import REGISTRY
from repro.bench.report import ResultTable, ShapeCheck, speedup
from repro.bench.table1 import table1
from repro.cli import main as cli_main
from repro.lsm import CompactionMode
from repro.units import KiB, MiB


# ------------------------------------------------------------------ report
def test_speedup():
    assert speedup(10.0, 2.0) == pytest.approx(5.0)
    assert speedup(10.0, 0.0) == float("inf")


def test_result_table_rendering():
    t = ResultTable("demo", ["a", "b"])
    t.add_row(1, 2.5)
    t.add_row("x", 0.001)
    t.add_note("a note")
    rendered = t.render()
    assert "demo" in rendered
    assert "a note" in rendered
    assert "2.50" in rendered


def test_result_table_rejects_bad_row():
    t = ResultTable("demo", ["a", "b"])
    with pytest.raises(ValueError):
        t.add_row(1)


def test_shape_check_str():
    ok = ShapeCheck("works", True, "3x")
    bad = ShapeCheck("broken", False)
    assert "PASS" in str(ok) and "3x" in str(ok)
    assert "FAIL" in str(bad)


# ------------------------------------------------------------------ calibration
def test_bench_geometry_defaults():
    g = bench_geometry()
    assert g.capacity == g.n_zones * g.zone_size
    assert g.n_channels == 8


def test_db_options_scale_with_data():
    small = bench_db_options(data_bytes=1 * MiB)
    large = bench_db_options(data_bytes=64 * MiB)
    assert large.memtable_bytes > small.memtable_bytes
    assert large.l1_target_bytes > small.l1_target_bytes
    # ratios preserved: ~24 flushes per run either way
    assert 1 * MiB / small.memtable_bytes == pytest.approx(
        64 * MiB / large.memtable_bytes, rel=0.5
    )


def test_db_options_overrides_win():
    options = bench_db_options(data_bytes=1 * MiB, memtable_bytes=123 * KiB)
    assert options.memtable_bytes == 123 * KiB


def test_testbed_builders():
    kv = build_kvcsd_testbed(seed=1)
    assert kv.cpu.n_cores == TABLE1_HOST.n_cores
    assert kv.board.spec.n_cores == TABLE1_CSD.n_cores
    rk = build_rocksdb_testbed(
        seed=1, compaction_mode=CompactionMode.DEFERRED, n_test_threads=4
    )
    assert rk.options.compaction_mode is CompactionMode.DEFERRED
    assert rk.bg_ctx.cores == (0, 1, 2, 3)


def test_table1_encoding_consistent():
    t = table1()
    assert len(t.rows) >= 7
    checks = shape_checks("table1", None)
    assert len(checks) == 4 and all(check.passed for check in checks)


# ------------------------------------------------------------------ experiments registry
def test_registry_covers_every_table_and_figure():
    assert set(REGISTRY) == {
        "table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        "compaction", "query", "qd", "scale", "cluster", "crash",
        "obs_selftest", "obs_saturate", "obs_lifecycle", "fidelity",
    }
    for entry_id, entry in REGISTRY.items():
        assert entry.id == entry_id
        assert entry.description


def test_quick_configs_are_smaller():
    assert REGISTRY["fig7"].reduced.n_pairs < REGISTRY["fig7"].config.n_pairs
    assert REGISTRY["fig11"].reduced.n_particles < REGISTRY["fig11"].config.n_particles
    assert REGISTRY["scale"].reduced.n_pairs < REGISTRY["scale"].config.n_pairs


# ------------------------------------------------------------------ CLI
def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "fig12" in out


def test_cli_table1(capsys):
    assert cli_main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "PASS" in out


def test_cli_unknown_experiment():
    assert cli_main(["run", "fig99"]) == 2


def test_cli_selftest(capsys):
    assert cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
