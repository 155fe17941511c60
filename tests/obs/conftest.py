"""Shared fixtures for the observability suite.

``observed_run`` runs a registry entry's reduced config under observers
through the one installer, as ``repro run <id> --smoke --<observer>`` does.
``compacted_kv`` runs the journaled, audited lifecycle entry fresh per test
(it is cheap at 800 pairs) so corruption tests can mutate device state
freely.  ``audited_testbed`` is the fixture integration tests use: any test
that drives it gets an automatic full invariant audit at teardown.
"""

import pytest

from repro.bench.registry import Observe, configure, execute


@pytest.fixture(scope="session")
def observed_run():
    """``observed_run(entry_id, *observers, smoke=True)`` -> a ``Run``."""

    def run(entry_id, *observers, smoke=True):
        entry, config = configure(entry_id, smoke, (), observers)
        return execute(entry, config, observers)

    return run


@pytest.fixture
def compacted_kv(observed_run):
    """(testbed, auditor, final_report) after ingest -> compact -> query."""
    run = observed_run("obs_lifecycle", "journal", "audit")
    auditor = run.testbed.device.auditor
    return run.testbed, auditor, auditor.reports[-1]


@pytest.fixture
def audited_testbed():
    """A journaled testbed whose teardown asserts every invariant holds."""
    from repro.bench import build_kvcsd_testbed
    from repro.units import MiB

    kv = build_kvcsd_testbed(seed=0, block_cache_bytes=4 * MiB)
    Observe(["journal", "audit"])(kv)
    yield kv
    report = kv.device.auditor.run("teardown")
    assert report.ok, report.format()
