"""Golden observability digests: exports may not change under a recorder rewrite.

``golden_obs.json`` holds the sha256 of the canonical-JSON form of every
export — Chrome trace (spans + counter tracks), attribution rows, explain
report, journal JSONL, timeline document, Prometheus text — of the
``selftest`` and ``saturate`` reference workloads, captured from the
per-observer implementation *before* the single-probe recorder replaced it.
A host-side optimisation of ``repro.obs`` has to reproduce them bit for bit:
span ids, parent links, lanes, args, journal sequence numbers and span
correlation, every sampled series value, every alert transition.

The kernel self-telemetry series (``sim.*``) are left out of the digests:
they count host-side scheduling work (heap depth, events scheduled), which
is not a model output and legitimately moves whenever the kernel does.

If an export is *supposed* to change, regenerate with::

    PYTHONPATH=src python tests/obs/test_golden_obs.py > tests/obs/golden_obs.json

and explain the diff in the commit message — the same rule as
``tests/sim/golden_clock.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.obs.critpath import explain_report
from repro.obs.export import attribution_rows, to_chrome_trace
from repro.obs.harness import run_saturated_workload, run_timed_selftest

GOLDEN_PATH = Path(__file__).with_name("golden_obs.json")

WORKLOADS = {
    "selftest": lambda: run_timed_selftest(seed=0),
    "saturate": lambda: run_saturated_workload(
        seed=0, critpath=True, reap="prompt"
    ),
}


def _digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _model_series_only(trace: dict, timeline: dict, prometheus: str):
    """Drop the ``sim.*`` kernel self-telemetry from the three exports."""
    trace = dict(trace)
    trace["traceEvents"] = [
        e for e in trace["traceEvents"]
        if not (e.get("ph") == "C" and e["name"].startswith("sim."))
    ]
    timeline = dict(timeline)
    timeline["series"] = {
        key: value for key, value in timeline["series"].items()
        if not key.startswith("sim.")
    }
    prometheus = "".join(
        line + "\n" for line in prometheus.splitlines()
        if "repro_sim_" not in line
    )
    return trace, timeline, prometheus


def collect(name: str) -> dict[str, str]:
    kv, tracer, hub, recorder = WORKLOADS[name]()
    trace, timeline, prometheus = _model_series_only(
        to_chrome_trace(tracer, timeline=recorder),
        recorder.to_json(),
        hub.to_prometheus(),
    )
    return {
        "chrome_trace": _digest(trace),
        "attribution": _digest(attribution_rows(tracer)),
        "explain": _digest(
            explain_report(tracer, kv.env.critpath, now=kv.env.now)
        ),
        "journal": _digest(kv.env.journal.to_jsonl()),
        "timeline": _digest(timeline),
        "prometheus": _digest(prometheus),
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exports_match_golden(name: str):
    golden = json.loads(GOLDEN_PATH.read_text())
    fresh = collect(name)
    drifted = {
        key: (golden[name][key], fresh[key])
        for key in golden[name]
        if fresh.get(key) != golden[name][key]
    }
    assert fresh.keys() == golden[name].keys()
    assert not drifted, f"observability exports changed: {drifted}"


def test_explain_and_trace_pass_the_validator(tmp_path):
    """``scripts/validate_trace.py`` accepts the saturate run's exports."""
    import runpy

    validate = runpy.run_path(
        str(Path(__file__).parents[2] / "scripts" / "validate_trace.py")
    )["validate"]
    kv, tracer, _hub, recorder = WORKLOADS["saturate"]()
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(to_chrome_trace(tracer, timeline=recorder)))
    explain_path = tmp_path / "explain.json"
    explain_path.write_text(
        json.dumps(explain_report(tracer, kv.env.critpath, now=kv.env.now))
    )
    assert validate(str(trace_path)) == []
    assert validate(str(explain_path)) == []


if __name__ == "__main__":
    print(json.dumps(
        {name: collect(name) for name in sorted(WORKLOADS)},
        indent=2, sort_keys=True,
    ))
