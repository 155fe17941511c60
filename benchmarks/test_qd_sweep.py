"""Regression bench: single-thread queue-depth sweep on the async path.

A synthetic keyspace (8192 pairs, seed 47) is driven by ONE host thread
through the client's async SQ/CQ queue pair at QD in {1, 4, 16, 32}:

* a batched GET phase per depth — criterion: QD=16 at least 2x the QD=1
  throughput with four SoC query workers (device parallelism reached from
  a single thread);
* results must be identical at every depth, and the queue pair's
  submitted/completed/reaped accounting must balance after each sweep.

Writes ``results/BENCH_qd.json`` for trend tracking.
"""

from pathlib import Path

from repro.bench.registry import configure, execute, write_json

from conftest import assert_checks, run_once

RESULTS = Path(__file__).resolve().parent.parent / "results"


def test_qd_sweep(benchmark):
    run = run_once(benchmark, lambda: execute(*configure("qd")))
    result = run.result
    print()
    print(result.table())
    benchmark.extra_info["qd16_get_speedup"] = round(result.get_speedup(16), 2)
    write_json(run.document, RESULTS / "BENCH_qd.json")
    assert_checks(run.checks)
