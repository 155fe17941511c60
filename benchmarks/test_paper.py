"""The paper's evaluation: Table I and Figures 7-12, one bench per entry.

Each bench runs one claimed registry entry (its reduced config, or its
default one with ``REPRO_BENCH_FULL=1``), prints its tables, records each
claim's measured value (``ours``) in the pytest-benchmark record, and
asserts the entry's checks, which are its rows of ``repro.bench.claims``.
"""

import pytest

from repro.bench.claims import CLAIMED, claims_of
from repro.bench.registry import configure, execute

from conftest import assert_checks, full_scale, run_once


@pytest.mark.parametrize("entry_id", CLAIMED)
def test_paper(benchmark, entry_id):
    entry, config = configure(entry_id, smoke=not full_scale())
    run = run_once(benchmark, lambda: execute(entry, config))
    print()
    for table in run.tables():
        print(table)
    for claim in claims_of(entry_id):
        benchmark.extra_info[claim.text] = claim.ours(run.result)
    assert_checks(run.checks)
