"""The bench registry and its runner, end to end through ``repro run``."""

import importlib.util
import json
from dataclasses import fields
from pathlib import Path
from typing import get_origin, get_type_hints

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
    # the committed baselines are the gated set: each one's entry runs fresh
    baselines = ROOT / "results" / "baselines" / "smoke"
    by_file = {entry.result_file: entry.id for entry in REGISTRY.values()}
    gated = [by_file[path.name] for path in sorted(baselines.glob("BENCH_*.json"))]
    assert gated == ["cluster", "crash", "qd", "query", "scale"]
    codes = {
        entry_id: main(["run", entry_id, "--smoke", "--out", str(tmp_path)])
        for entry_id in gated
    }
    assert codes == dict.fromkeys(gated, 0)
    gate = _regression_gate()
    assert gate.compare(str(tmp_path), str(baselines)) == {
        f"BENCH_{entry_id}.json": {} for entry_id in gated
    }
    assert gate.main(["gate", "--fresh", str(tmp_path), "--baseline", str(baselines)]) == 0


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


#: integer config fields where 0 is meaningful; every other one is a count
ZERO_ALLOWED = {"seed", "block_cache_bytes", "query_workers", "bloom_bits_per_key"}


def _count_and_sequence_settings():
    """``(entry, FIELD=VALUE)`` for a zero count or an empty sequence of
    every registry entry's config."""
    cases = []
    for entry in REGISTRY.values():
        if entry.config is None:
            continue
        hints = get_type_hints(type(entry.config))
        for f in fields(entry.config):
            if get_origin(hints[f.name]) is tuple:
                cases.append((entry.id, f"{f.name}="))
            elif hints[f.name] is int and f.name not in ZERO_ALLOWED:
                cases.append((entry.id, f"{f.name}=0"))
    return cases


@pytest.mark.parametrize(
    "entry_id,setting", _count_and_sequence_settings(),
    ids=lambda value: value,
)
def test_zero_counts_and_empty_sequences_exit_2_before_running(
    entry_id, setting, capsys
):
    # each used to crash mid-run with a traceback, or run zero operations
    # and pass
    assert main(["run", entry_id, "--smoke", "--set", setting]) == 2
    assert setting.partition("=")[0] in capsys.readouterr().err


def test_committed_bench_results_are_small_and_carry_no_observer_reports():
    paths = sorted((ROOT / "results").glob("BENCH_*.json"))
    assert paths
    for path in paths:
        assert path.stat().st_size < 64 * 1024, path.name
        doc = json.loads(path.read_text())
        assert not {"explain", "timeline", "attribution"} & set(doc), path.name
