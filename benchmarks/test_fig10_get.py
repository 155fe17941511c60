"""Figure 10: random GET time (10a) and read inflation (10b)."""

from repro.bench.registry import REGISTRY

from conftest import assert_checks, full_scale, run_once


def test_fig10_random_gets(benchmark):
    exp = REGISTRY["fig10"]
    config = exp.config if full_scale() else exp.reduced
    result = run_once(benchmark, lambda: exp.scenario(config))
    print()
    print(result.table())
    print(result.io_table())
    benchmark.extra_info["speedup_coldest"] = round(result.rows[0].speedup, 2)
    assert_checks(result.checks())
