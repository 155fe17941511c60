"""The claims table and its ledger, checked without running a simulation."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench import claims
from repro.bench.claims import CLAIMED, CLAIMS, Claim, Ledger, claims_of, shape_checks
from repro.bench.registry import REGISTRY
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
KEYS = ("id", "text", "paper", "relation", "bound")


def _ledger() -> dict:
    """``results/FIDELITY.json``, parsed as strict JSON (no NaN/Infinity)."""

    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads((ROOT / "results" / "FIDELITY.json").read_text(), parse_constant=refuse)


@pytest.mark.parametrize(
    "relation,bound,ours,passed",
    [
        ("<", 1, 0.5, True), ("<", 1, 1, False),
        ("<=", 1, 1, True), ("<=", 1, 1.5, False),
        (">", 1, 1.5, True), (">", 1, 1, False),
        (">=", 4, 4, True), (">=", 4, 3.9, False),
        ("==", 8, 8, True), ("==", 8, 7.5, False),
        ("in", (0.2, 3), 1, True), ("in", (0.2, 3), 3, False), ("in", (0.2, 3), 0.2, False),
        (">", 1, None, None),
    ],
)
def test_each_relation_on_a_stub_result(monkeypatch, relation, bound, ours, passed):
    stub = Claim("stub", "a stub claim", lambda result: result.value, relation, bound, paper=2.5)
    monkeypatch.setattr(claims, "CLAIMS", (stub,))
    checks = shape_checks("stub", SimpleNamespace(value=ours))
    if passed is None:  # no value: the claim is skipped, not failed
        assert checks == []
        return
    [check] = checks
    assert (check.description, check.passed) == ("a stub claim", passed)
    assert check.observed.startswith(f"ours {ours:.4g}; bound {relation}")
    assert check.observed.endswith("; paper 2.5")


def _fig7_stub(threads):
    io = SimpleNamespace(bytes_written=200, total_bytes=100)
    rows = [
        SimpleNamespace(threads=t, speedup=3.0, kvcsd_seconds=1.0, rocksdb_seconds=4.0 - t,
                        kvcsd_io=SimpleNamespace(total_bytes=10), rocksdb_io=io)
        for t in threads
    ]
    return SimpleNamespace(rows=rows, user_bytes=100)


def test_fig7_skips_the_two_core_claim_without_a_two_thread_point():
    assert len(shape_checks("fig7", _fig7_stub((1, 2)))) == 6
    checks = shape_checks("fig7", _fig7_stub((1, 3)))
    assert len(checks) == 5 and all(check.passed for check in checks)
    assert "2 host cores" not in " ".join(check.description for check in checks)


def test_every_claim_is_about_a_registry_entry():
    assert set(CLAIMED) <= set(REGISTRY)
    counts = {entry_id: len(claims_of(entry_id)) for entry_id in CLAIMED}
    assert counts == {
        "table1": 4, "fig7": 6, "fig8": 3, "fig9": 7, "fig10": 5, "fig11": 3, "fig12": 4,
    }
    assert all(c.relation in claims.RELATIONS for c in CLAIMS)


def test_committed_ledger_has_exactly_the_tables_rows():
    doc = _ledger()
    assert doc["config"] == {"smoke": False}
    expected = json.loads(json.dumps([{k: getattr(c, k) for k in KEYS} for c in CLAIMS]))
    assert [{k: row[k] for k in KEYS} for row in doc["claims"]] == expected
    # each row that was checked is its check, in order
    verdicts = [row["passed"] for row in doc["claims"] if row["passed"] is not None]
    assert verdicts == [check["passed"] for check in doc["checks"]]


def test_experiments_ledger_is_the_rendered_ledger():
    rendered = Ledger(_ledger()["claims"]).table().render()
    block = "\n".join(line.rstrip() for line in rendered.splitlines())
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    assert f"```text\n{block}\n```" in experiments


@pytest.mark.parametrize("argv", [["--set", "smoke=true"], ["--smoke", "--set", "n_pairs=1"]])
def test_fidelity_refuses_settings(capsys, argv):
    assert main(["run", "fidelity", *argv]) == 2
    assert "fidelity has no configuration to --set" in capsys.readouterr().err
