"""``scripts/check_bench_regression.py``: exact equality on a committed smoke
baseline, run on a temporary copy with one field changed at a time, and on
the pinned perf model fingerprints."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BASELINE = ROOT / "results" / "baselines" / "smoke" / "BENCH_scale.json"
PERF_PINS = BASELINE.with_name("perf_fingerprints.json")


@pytest.fixture(scope="module")
def gate():
    path = ROOT / "scripts" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(gate, tmp_path, edit):
    """Exit code of the gate on a baseline copy and a fresh copy ``edit``ed."""
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir()
    fresh.mkdir()
    shutil.copy(BASELINE, base)
    doc = json.loads(BASELINE.read_text())
    edit(doc)
    (fresh / BASELINE.name).write_text(json.dumps(doc))
    return gate.main(["gate", "--fresh", str(fresh), "--baseline", str(base)])


def _set(path, value):
    def edit(doc):
        *parents, leaf = path
        for part in parents:
            doc = doc[part]
        doc[leaf] = value
    return edit


def _drop(doc):
    del doc["device_io"]["erase_ops"]


def _shorten(doc):
    doc["checks"].pop()


@pytest.mark.parametrize(
    "edit, named",
    [
        (_set(("phases", "ycsb", "virtual_seconds"), 0.267), "phases.ycsb.virtual_seconds"),
        (_set(("config", "seed"), 54), "config.seed"),
        (_drop, "device_io.erase_ops"),
        (_shorten, "checks.len"),
    ],
    ids=["number", "config", "key-removed", "list-length"],
)
def test_any_drift_exits_1_and_names_the_path(gate, tmp_path, capsys, edit, named):
    assert _run(gate, tmp_path, edit) == 1
    assert f"  {named}: baseline" in capsys.readouterr().out


def _explain(doc):
    doc["explain"] = {"ops": {"get": {"p50": 1.0}}, "min_attributed": 0.99}
    doc["checks"].append(
        {"description": "explain: >= 95% attributed", "observed": "99.0%", "passed": True}
    )


@pytest.mark.parametrize(
    "edit",
    [_set(("phases", "load", "wall_seconds"), 123.0), _explain, lambda doc: None],
    ids=["wall-field", "explain-attached", "identical"],
)
def test_wall_fields_and_explain_reports_are_not_gated(gate, tmp_path, capsys, edit):
    assert _run(gate, tmp_path, edit) == 0
    assert "BENCH_scale.json: 0 drifted" in capsys.readouterr().out


def test_a_missing_fresh_document_fails(gate, tmp_path):
    (tmp_path / "base").mkdir()
    shutil.copy(BASELINE, tmp_path / "base")
    assert gate.main(
        ["gate", "--fresh", str(tmp_path), "--baseline", str(tmp_path / "base")]
    ) == 1


def _perf_document(tmp_path, moved: str | None) -> str:
    """A ``perf/run.py`` document carrying the pinned fingerprints, with the
    one of workload ``moved`` changed."""
    pinned = json.loads(PERF_PINS.read_text())["virt_fingerprint"]
    runs = {
        name: {"detail": {"virt_fingerprint": "0" * 64 if name == moved else fp}}
        for name, fp in pinned.items()
    }
    path = tmp_path / "perf_smoke.json"
    path.write_text(json.dumps({"workloads": runs}))
    return str(path)


@pytest.mark.parametrize("moved", [None, "point_read"], ids=["equal", "moved"])
def test_perf_fingerprints_are_compared_exactly(gate, tmp_path, capsys, moved):
    code = gate.main(["gate", "--perf", _perf_document(tmp_path, moved),
                      "--baseline", str(PERF_PINS.parent)])
    out = capsys.readouterr()
    assert code == (1 if moved else 0)
    assert ("point_read: baseline" in out.out) == bool(moved)
    assert ("moved on point_read" in out.err) == bool(moved)
