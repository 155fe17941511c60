"""Figure 9: multi-keyspace insertion; RocksDB auto/deferred/none modes."""

from repro.bench.registry import REGISTRY
from repro.lsm import CompactionMode

from conftest import assert_checks, full_scale, run_once


def test_fig9_multi_keyspace_scaling(benchmark):
    exp = REGISTRY["fig9"]
    config = exp.config if full_scale() else exp.reduced
    result = run_once(benchmark, lambda: exp.scenario(config))
    print()
    print(result.table())
    last = result.rows[-1]
    benchmark.extra_info["speedup_vs_auto"] = round(
        last.speedup_over(CompactionMode.AUTO), 2
    )
    benchmark.extra_info["speedup_vs_deferred"] = round(
        last.speedup_over(CompactionMode.DEFERRED), 2
    )
    benchmark.extra_info["speedup_vs_none"] = round(
        last.speedup_over(CompactionMode.NONE), 2
    )
    assert_checks(result.checks())
