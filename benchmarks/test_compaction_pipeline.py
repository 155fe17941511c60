"""Regression bench: multi-core pipelined compaction + device block cache.

The ablation-deferred workload (16384 pairs, seed 35) is compacted twice —
serially and with the sort range-partitioned over the SoC's four cores and
the value/PIDX materialisation pipelined — and then queried with a repeated
Zipfian point-GET workload against the SoC DRAM block cache.  Criteria:

* >= 1.5x compaction speedup at 4 shards, with busy time on >= 2 cores;
* the sharded output byte-identical to the serial one;
* >= 50% block-cache hit rate on the repeated skewed GETs.

Writes ``results/BENCH_compaction.json`` for trend tracking.
"""

from pathlib import Path

from repro.bench.registry import configure, execute, write_json

from conftest import assert_checks, run_once

RESULTS = Path(__file__).resolve().parent.parent / "results"


def test_compaction_pipeline(benchmark):
    run = run_once(benchmark, lambda: execute(*configure("compaction")))
    result = run.result
    print()
    print(result.table())
    benchmark.extra_info["compaction_speedup"] = round(result.compaction_speedup, 2)
    benchmark.extra_info["cache_hit_rate"] = round(result.hit_rate, 2)
    write_json(run.document, RESULTS / "BENCH_compaction.json")
    assert_checks(run.checks)
