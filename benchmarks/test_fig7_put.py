"""Figure 7: PUT time (7a) and device I/O statistics (7b), shared keyspace."""

from repro.bench.registry import REGISTRY

from conftest import assert_checks, full_scale, run_once


def test_fig7_put_scaling(benchmark):
    exp = REGISTRY["fig7"]
    config = exp.config if full_scale() else exp.reduced
    result = run_once(benchmark, lambda: exp.scenario(config))
    print()
    print(result.table())
    print(result.io_table())
    last = result.rows[-1]
    benchmark.extra_info["speedup_at_max_threads"] = round(last.speedup, 2)
    benchmark.extra_info["kvcsd_seconds"] = round(last.kvcsd_seconds, 6)
    benchmark.extra_info["rocksdb_seconds"] = round(last.rocksdb_seconds, 6)
    assert_checks(result.checks())
