"""Golden-clock equivalence: the fast-path kernel may not move the clock.

``golden_clock.json`` holds fingerprints (exact ``float.hex()`` clock
checkpoints, I/O counters, result digests) captured from the reference
kernel *before* the fast-path work landed.  Event coalescing, object
pooling, resource fast paths, and vectorized cost math all have to
reproduce these bit-for-bit — any drift means an optimisation reordered
events or changed charged latency, which breaks the determinism contract
every equivalence test in this repo leans on.

Observing is held to the same fingerprints: each KV-CSD workload runs
again with all five observers installed through the registry's one
``observe(testbed)`` hook — trace, a started timeline, explain, journal
and audit — and has to come out byte-identical, with every observer gate
passing.  Two narrower runs stay pinned beside it: observers present
but idle (a timeline never started, a critical-path observer never
installed), and the critical-path observer installed on its own.

If a change is *supposed* to move the virtual clock (a new cost model, a
changed latency), regenerate with::

    PYTHONPATH=src python tests/sim/test_golden_clock.py > tests/sim/golden_clock.json

and say so in the commit message.  Never regenerate to absorb accidental
drift from a performance change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.golden import GOLDEN_WORKLOADS
from repro.bench.registry import OBSERVERS, Observe
from repro.bench.report import drift

GOLDEN_PATH = Path(__file__).with_name("golden_clock.json")

#: the workloads that build a KV-CSD testbed, so take ``observe``
OBSERVED = sorted(set(GOLDEN_WORKLOADS) - {"cluster_router_2dev", "lsm_baseline"})


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


def _idle_observers(kv) -> None:
    """Journal, tracer and hub gauges installed; a timeline recorder
    constructed but never started; a critical-path observer constructed
    but never installed on ``env.critpath``."""
    from repro.obs.critpath import CritPathObserver
    from repro.obs.journal import install_journal
    from repro.obs.timeline import TimelineConfig, TimelineRecorder

    install_journal(kv.env)
    tracer, hub = kv.enable_tracing()
    TimelineRecorder(kv.env, hub, TimelineConfig())  # never started
    CritPathObserver(kv.env, tracer=tracer)  # never installed


@pytest.mark.parametrize("name", ["serial_compaction", "async_qd16"])
def test_idle_observability_leaves_fingerprints_identical(name: str, golden: dict):
    """The zero-cost contract: observers present but not sampling must
    leave every clock checkpoint, counter, and result digest
    byte-identical.  Only ``start()`` may schedule sampler events, and
    only installation makes the blocked-by/holder sites record anything."""
    drifted = drift(golden[name], GOLDEN_WORKLOADS[name](_idle_observers))
    assert not drifted, (
        f"idle observability moved the virtual clock: {drifted}"
    )


@pytest.mark.parametrize("name", ["mixed_contention", "async_qd16"])
def test_installed_critpath_leaves_fingerprints_identical(name: str, golden: dict):
    """Recording blocked-by edges must not move the clock.  With the
    observer *installed* (tracer + ``env.critpath`` live, through
    ``Observe``'s explain), every wait and grant records holder identity
    — but the observer is pure bookkeeping with no simulation events."""
    drifted = drift(golden[name], GOLDEN_WORKLOADS[name](Observe(["explain"])))
    assert not drifted, (
        f"recording blocked-by edges moved the virtual clock: {drifted}"
    )


@pytest.mark.parametrize("name", OBSERVED)
def test_every_observer_leaves_fingerprints_identical(name: str, golden: dict):
    """Spans, kernel gauges, timeline ticks, blocked-by edges, journal
    events and audit passes are pure reads of the model: with all five
    installed, every clock checkpoint, counter and result digest is the
    unobserved one — across ``crash_recovery``'s power cycle too."""
    observe = Observe(OBSERVERS)
    drifted = drift(golden[name], GOLDEN_WORKLOADS[name](observe))
    assert not drifted, f"observing moved the virtual clock: {drifted}"

    reports = observe.reports()
    assert reports["timeline"]["ticks"] > 0
    assert reports["audit"]["summary"]["runs"] > 0
    failed = [str(check) for check in observe.gates(reports) if not check.passed]
    assert not failed, failed


if __name__ == "__main__":
    print(json.dumps(
        {name: GOLDEN_WORKLOADS[name]() for name in sorted(GOLDEN_WORKLOADS)},
        indent=2, sort_keys=True,
    ))
