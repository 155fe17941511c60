"""Golden-clock equivalence: the fast-path kernel may not move the clock.

``golden_clock.json`` holds fingerprints (exact ``float.hex()`` clock
checkpoints, I/O counters, result digests) captured from the reference
kernel *before* the fast-path work landed.  Event coalescing, object
pooling, resource fast paths, and vectorized cost math all have to
reproduce these bit-for-bit — any drift means an optimisation reordered
events or changed charged latency, which breaks the determinism contract
every equivalence test in this repo leans on.

If a change is *supposed* to move the virtual clock (a new cost model, a
changed latency), regenerate with::

    PYTHONPATH=src python -m repro.bench.golden > tests/sim/golden_clock.json

and say so in the commit message.  Never regenerate to absorb accidental
drift from a performance change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.golden import (
    GOLDEN_WORKLOADS,
    critpath_testbeds,
    observed_testbeds,
)
from repro.bench.report import drift

GOLDEN_PATH = Path(__file__).with_name("golden_clock.json")


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_fingerprint_matches_golden(name: str, golden: dict):
    assert name in golden, (
        f"no golden record for workload {name!r} — regenerate "
        "tests/sim/golden_clock.json (see module docstring)"
    )
    # Compare flat, so a failure names the exact checkpoint that drifted
    # instead of dumping two page-size dicts.
    drifted = drift(golden[name], GOLDEN_WORKLOADS[name]())
    assert not drifted, f"virtual-clock drift detected: {drifted}"


def test_golden_covers_every_workload(golden: dict):
    assert sorted(golden) == sorted(GOLDEN_WORKLOADS)


@pytest.mark.parametrize("name", ["serial_compaction", "async_qd16"])
def test_idle_observability_leaves_fingerprints_identical(name: str, golden: dict):
    """The zero-cost contract: journal + tracer + hub gauges installed, a
    TimelineRecorder constructed but never started, and a CritPathObserver
    constructed but never installed on ``env.critpath``, must leave every
    clock checkpoint, counter, and result digest byte-identical.  Only
    ``start()`` may schedule sampler events, and only installation makes
    the blocked-by/holder sites record anything."""
    with observed_testbeds():
        drifted = drift(golden[name], GOLDEN_WORKLOADS[name]())
    assert not drifted, (
        f"idle observability moved the virtual clock: {drifted}"
    )


@pytest.mark.parametrize("name", ["mixed_contention", "async_qd16"])
def test_installed_critpath_leaves_fingerprints_identical(name: str, golden: dict):
    """Recording blocked-by edges must not move the clock.  With the
    observer *installed* (tracer + ``env.critpath`` live), every wait and
    grant in the workload records holder identity — but the observer is
    pure bookkeeping with no simulation events, so the fingerprints still
    have to come out byte-identical to the uninstrumented reference."""
    with critpath_testbeds():
        drifted = drift(golden[name], GOLDEN_WORKLOADS[name]())
    assert not drifted, (
        f"recording blocked-by edges moved the virtual clock: {drifted}"
    )
