"""The randomized crash-injection campaign, at CI scale.

Every sampled power-cut/torn-append point must remount auditor-clean with
all acknowledged data byte-identical and persisted blooms intact — the
same harness `repro run crash` runs at full scale.  The campaign's checks
and its gated JSON document are covered by ``tests/bench/test_registry.py``;
this test pins the per-workload and curve structure behind them.
"""

from repro.bench.crash import run_crash_bench
from repro.bench.registry import REGISTRY


def test_smoke_campaign_every_point_clean():
    config = REGISTRY["crash"].reduced
    result = run_crash_bench(config)
    assert result.failed_points == []
    assert result.event_points and result.torn_points
    # every workload contributed crash points
    assert set(result.per_workload) == set(config.workloads)
    # recovery-time curves exist for both mount flavors at every volume
    assert len(result.curve) == 2 * len(config.curve_volumes)
    assert all(p["mount_seconds"] > 0 for p in result.curve)
