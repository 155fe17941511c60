"""Figure 12: VPIC secondary-index query time versus selectivity."""

from repro.bench.registry import REGISTRY

from conftest import assert_checks, full_scale, run_once


def test_fig12_vpic_query_selectivity(benchmark):
    exp = REGISTRY["fig12"]
    config = exp.config if full_scale() else exp.reduced
    result = run_once(benchmark, lambda: exp.scenario(config))
    print()
    print(result.table())
    benchmark.extra_info["speedup_most_selective"] = round(result.rows[0].speedup, 2)
    benchmark.extra_info["speedup_least_selective"] = round(result.rows[-1].speedup, 2)
    assert_checks(result.checks())
