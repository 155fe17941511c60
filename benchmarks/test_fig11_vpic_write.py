"""Figure 11: VPIC write-phase breakdown and effective write time."""

from repro.bench.registry import REGISTRY

from conftest import assert_checks, full_scale, run_once


def test_fig11_vpic_write_phase(benchmark):
    exp = REGISTRY["fig11"]
    config = exp.config if full_scale() else exp.reduced
    result = run_once(benchmark, lambda: exp.scenario(config))
    print()
    print(result.table())
    benchmark.extra_info["effective_speedup"] = round(result.effective_speedup, 2)
    benchmark.extra_info["kvcsd_effective_s"] = round(result.kvcsd_effective_s, 6)
    benchmark.extra_info["rocksdb_effective_s"] = round(result.rocksdb_effective_s, 6)
    assert_checks(result.checks())
