"""The folded observability CLI end to end: ``repro run`` with every
observer, its exports beside the document, ``repro show`` and ``repro
profile`` — and every observer gate setting the exit code."""

import json
import runpy
from pathlib import Path

import pytest

from repro.bench.registry import Observe
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
EVERY_OBSERVER = ["--trace", "--timeline", "--explain", "--journal", "--audit"]
EXPORTS = (".trace.json", ".prom", ".timeline.csv", ".explain.folded", ".journal.jsonl")


@pytest.fixture(scope="module")
def saturate_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("run") / "saturate.json"
    code = main(["run", "obs_saturate", "--smoke", *EVERY_OBSERVER, "--out", str(path)])
    assert code == 0
    return path


def test_run_writes_the_document_and_every_export(saturate_doc):
    doc = json.loads(saturate_doc.read_text())
    assert {"attribution", "timeline", "explain", "journal", "audit", "snapshot"} <= set(doc)
    assert doc["audit"]["summary"]["total_violations"] == 0
    assert doc["snapshot"]["schema_version"] >= 3
    assert len(doc["journal"]["tail"]) == 32
    stem = str(saturate_doc)[: -len(".json")]
    for suffix in EXPORTS:
        assert Path(stem + suffix).stat().st_size > 0, suffix
    jsonl = Path(stem + ".journal.jsonl").read_text().splitlines()
    assert len(jsonl) == doc["journal"]["summary"]["retained"]
    trace = json.loads(Path(stem + ".trace.json").read_text())
    assert any(event["ph"] == "C" for event in trace["traceEvents"])  # counter tracks


def test_saturated_run_fires_an_slo_alert(saturate_doc):
    doc = json.loads(saturate_doc.read_text())
    assert sum(doc["timeline"]["alert_counts"].values()) >= 1


def test_exports_pass_the_validator(saturate_doc):
    validate = runpy.run_path(str(ROOT / "scripts" / "validate_trace.py"))["validate"]
    stem = str(saturate_doc)[: -len(".json")]
    for path in (stem + ".trace.json", str(saturate_doc), stem + ".prom"):
        assert validate(path) == [], path


def test_show_renders_every_report(saturate_doc, capsys):
    assert main(["show", str(saturate_doc)]) == 0
    out = capsys.readouterr().out
    for marker in (
        "[PASS] audit:", "cmd.KvGetCmd", "slo ALERT query-queue-saturated",
        "critical-path explain:", "journal:", "audit summary:", "kv-csd snapshot",
    ):
        assert marker in out, marker


def test_show_diffs_two_documents(saturate_doc, tmp_path, capsys):
    selftest = tmp_path / "selftest.json"
    assert main(["run", "obs_selftest", "--smoke", "--explain", "--out", str(selftest)]) == 0
    capsys.readouterr()
    assert main(["show", str(saturate_doc), str(selftest)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("explain diff:") and "cmd.KvGetCmd" in out


def test_show_diff_needs_explain_reports(tmp_path, capsys):
    plain = tmp_path / "plain.json"
    assert main(["run", "obs_selftest", "--smoke", "--out", str(plain)]) == 0
    assert main(["show", str(plain), str(plain)]) == 2
    assert "--explain" in capsys.readouterr().err


def test_profile_any_entry(capsys):
    assert main(["profile", "obs_selftest", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "obs_selftest" in out and "interpreter time" in out and "sim" in out


def test_an_audit_violation_fails_the_run(monkeypatch, capsys):
    install = Observe.__call__

    def leak_a_cluster(self, testbed):
        install(self, testbed)
        testbed.device.zone_manager.allocate_cluster()

    monkeypatch.setattr(Observe, "__call__", leak_a_cluster)
    assert main(["run", "obs_lifecycle", "--smoke", "--audit"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] audit:" in out and "FAIL zone_accounting" in out


def test_trace_coverage_gates_the_unsaturated_runs(capsys):
    assert main(["run", "obs_selftest", "--smoke", "--trace"]) == 0
    assert "[PASS] trace: span trees cover" in capsys.readouterr().out
