"""Figure 8: insertion time versus value size (32 B - 4 KB)."""

from repro.bench.registry import REGISTRY

from conftest import assert_checks, full_scale, run_once


def test_fig8_value_size_sweep(benchmark):
    exp = REGISTRY["fig8"]
    config = exp.config if full_scale() else exp.reduced
    result = run_once(benchmark, lambda: exp.scenario(config))
    print()
    print(result.table())
    largest = result.rows[-1]
    t_low = config.kvcsd_thread_counts[0]
    benchmark.extra_info["speedup_4kb_lowcore"] = round(largest.speedup_at(t_low), 2)
    assert_checks(result.checks())
