"""The bench registry and its runner, end to end through ``repro run``."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.cluster import ClusterBenchConfig
from repro.bench.qd import QdBenchConfig
from repro.bench.registry import REGISTRY, configure
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]


def _regression_gate():
    path = ROOT / "scripts" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gated_smoke_runs_pass_the_regression_gate(tmp_path):
    gated = [entry.id for entry in REGISTRY.values() if entry.gates]
    assert gated == ["query", "qd", "scale", "cluster", "crash"]
    codes = {
        entry_id: main(["run", entry_id, "--smoke", "--out", str(tmp_path)])
        for entry_id in gated
    }
    assert codes == dict.fromkeys(gated, 0)
    rows, failures, _hints = _regression_gate().compare(
        str(tmp_path), str(ROOT / "results" / "baselines" / "smoke")
    )
    assert failures == []
    assert rows and not any(row["regressed"] for row in rows)


def test_observer_an_entry_does_not_accept_exits_2(capsys):
    assert main(["run", "crash", "--explain"]) == 2
    assert "--explain" in capsys.readouterr().err


def test_unknown_config_field_exits_2_and_lists_the_valid_ones(capsys):
    assert main(["run", "qd", "--smoke", "--set", "nope=1"]) == 2
    err = capsys.readouterr().err
    assert "'nope'" in err and "depths" in err and "gets_per_depth" in err


def test_set_parses_each_value_by_its_field_type():
    _entry, qd = configure("qd", smoke=True, settings=["depths=1,4"])
    assert qd.depths == (1, 4)
    assert qd.gets_per_depth == REGISTRY["qd"].reduced.gets_per_depth
    _entry, cluster = configure(
        "cluster", settings=["rebalance=false", "read_fraction=0.5"]
    )
    assert cluster.rebalance is False and cluster.read_fraction == 0.5
    _entry, crash = configure("crash", settings=["workloads=ingest,churn"])
    assert crash.workloads == ("ingest", "churn")
    with pytest.raises(ValueError, match="true/false"):
        configure("cluster", settings=["rebalance=maybe"])


@pytest.mark.parametrize(
    "make",
    [
        lambda: QdBenchConfig(depths=(4, 16)),
        lambda: QdBenchConfig(depths=(1, 16, 4)),
        lambda: QdBenchConfig(depths=(1, 4, 4)),
        lambda: QdBenchConfig(depths=()),
        lambda: ClusterBenchConfig(devices=(2, 1)),
        lambda: ClusterBenchConfig(devices=(1, 2, 2)),
        lambda: ClusterBenchConfig(devices=()),
    ],
    ids=[
        "qd-not-from-1",
        "qd-unsorted",
        "qd-repeated",
        "qd-empty",
        "cluster-descending",
        "cluster-repeated",
        "cluster-empty",
    ],
)
def test_sweep_axes_are_rejected_before_anything_runs(make):
    # qd speedups are against depth 1 and cluster speedups against the first
    # fleet; either mistake used to surface only after every sweep had run.
    with pytest.raises(ValueError):
        make()


def test_bad_sweep_axis_from_the_command_line_exits_2(capsys):
    assert main(["run", "qd", "--smoke", "--set", "depths=4,16"]) == 2
    assert "depths" in capsys.readouterr().err


def test_committed_bench_results_are_small_and_carry_no_observer_reports():
    paths = sorted((ROOT / "results").glob("BENCH_*.json"))
    assert paths
    for path in paths:
        assert path.stat().st_size < 64 * 1024, path.name
        doc = json.loads(path.read_text())
        assert not {"explain", "timeline", "attribution"} & set(doc), path.name
