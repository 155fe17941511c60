"""Regression bench: multi-core query scheduler + PIDX bloom filters.

A synthetic keyspace (8192 pairs, seed 41) is queried three ways:

* a multi-threaded GET phase at 1 query worker versus 4 — criterion:
  >= 2x throughput from overlapping SoC CPU with flash reads;
* an all-absent-key GET phase with blooms off versus on — criterion:
  blooms eliminate >= 90% of PIDX block reads;
* a mixed GET/multi-GET/range pass on the parallel + bloom device —
  criterion: results byte-identical to the serial inline engine.

Writes ``results/BENCH_query.json`` for trend tracking.
"""

from pathlib import Path

from repro.bench.registry import configure, execute, write_json

from conftest import assert_checks, run_once

RESULTS = Path(__file__).resolve().parent.parent / "results"


def test_query_offload(benchmark):
    run = run_once(benchmark, lambda: execute(*configure("query")))
    result = run.result
    print()
    print(result.table())
    benchmark.extra_info["get_speedup"] = round(result.get_speedup, 2)
    benchmark.extra_info["block_read_elimination"] = round(
        result.block_read_elimination, 3
    )
    write_json(run.document, RESULTS / "BENCH_query.json")
    assert_checks(run.checks)
