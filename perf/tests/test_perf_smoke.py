"""Smoke test of the benchmark itself (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest perf/tests -q``.
"""

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perf import compare, harness, layers, run  # noqa: E402
from perf.scenarios import SCENARIOS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke(name, trace):
    result, detail = harness.measure(
        name, seed=5, seconds=0, rounds=1, smoke=True, trace=trace
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result, detail


def test_benchmark_json_names_what_the_harness_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(SCENARIOS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.per_layer_units()
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert len(SPEC["per_layer"]) <= 128


def test_every_workload_emits_every_metric_and_repeats_its_model():
    for name in SCENARIOS:
        first, detail = smoke(name, trace=False)
        again, detail_again = smoke(name, trace=False)
        assert list(first["metrics"]) == list(harness.END_TO_END)
        assert all(m["value"] > 0 for m in first["metrics"].values()), name
        for metric in harness.VIRT_METRICS:
            assert first["metrics"][metric] == again["metrics"][metric]
        assert detail["virt_fingerprint"] == detail_again["virt_fingerprint"]


def test_traced_run_reports_every_layer_metric_with_exact_counts():
    first, detail = smoke("cluster_mixed", trace=True)
    again, _ = smoke("cluster_mixed", trace=True)
    assert list(first["metrics"]) == list(harness.per_layer_units())
    for metric in ("sim.events", "sim.events_per_op", "sim.resumes_per_op",
                   *harness.COUNT_METRICS):
        assert first["metrics"][metric] == again["metrics"][metric], metric
    assert first["metrics"]["trace.attributed_share"]["value"] >= 0.95
    assert first["metrics"]["cluster.router.coalesced_reads"]["value"] > 0
    assert set(detail["trace"]["self_s"]) == set(layers.LAYERS)


def test_observed_read_reproduces_point_read():
    observed, _ = smoke("observed_read", trace=True)
    plain, _ = smoke("point_read", trace=False)
    assert observed["metrics"]["obs.overhead_ratio"]["value"] > 1
    untraced, _ = smoke("observed_read", trace=False)
    for metric in harness.VIRT_METRICS:
        assert untraced["metrics"][metric] == plain["metrics"][metric]


def test_layer_table_books_shared_codecs_to_core_codec():
    assert layers.layer_of(os.path.join(ROOT, "src/repro/lsm/block.py")) == "core.codec"
    assert layers.layer_of(os.path.join(ROOT, "src/repro/lsm/bloom.py")) == "core.codec"
    assert layers.layer_of(os.path.join(ROOT, "src/repro/lsm/db.py")) == "lsm"
    assert layers.layer_of(os.path.join(ROOT, "src/repro/core/device.py")) == "core.device"
    assert layers.layer_of(os.path.join(ROOT, "src/repro/core/costs.py")) == "core.device"
    assert layers.layer_of(os.path.join(ROOT, "perf/scenarios.py")) == "perf"
    assert layers.layer_of("~") == "runtime"
    assert layers.layer_of("/somewhere/else/module.py") is None


def test_suite_and_compare_agree_with_themselves(tmp_path, capsys):
    out = tmp_path / "a.json"
    code = run.main(["--smoke", "--workload", "lsm_baseline", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == {"lsm_baseline"}
    assert {"nproc", "python", "numpy", "git_sha", "kvcsd_config"} <= set(report["meta"])
    capsys.readouterr()
    assert compare.main([str(out), str(out)]) == 0
    assert "equal" in capsys.readouterr().out
    entry = report["workloads"]["lsm_baseline"]
    entry["metrics"]["virt_get_p99_us"]["value"] *= 2
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(report))
    assert compare.main([str(out), str(worse)]) == 1
