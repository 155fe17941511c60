"""The hub's three exporters agree, and its Prometheus text is well formed.

``as_dict``, ``to_prometheus`` and the timeline plan are each one walk over
the hub's rows, so they must name the same counters and gauges and, read at
the same instant, give each the same value.  Checked on the timed selftest
and on a 2-device cluster hub, where every device registers its own queue
pairs, SSD and link under shared metric families.
"""

from __future__ import annotations

import math
import runpy
from pathlib import Path

import pytest

from repro.obs.metrics import sanitize_metric_name

ROOT = Path(__file__).resolve().parents[2]
VALIDATE = runpy.run_path(str(ROOT / "scripts" / "validate_trace.py"))["validate"]
#: the timeline's own per-op window series, which are not hub rows
WINDOW_SERIES = ("op_latency_rate{", "op_latency_p50{", "op_latency_p95{", "op_latency_p99{")


def _cluster_run():
    from repro.cluster import build_cluster_testbed
    from repro.obs.timeline import install_timeline
    from repro.workloads import SyntheticSpec, generate_pairs, load_phase

    tb = build_cluster_testbed(n_devices=2, seed=3)
    _tracer, hub = tb.enable_tracing()
    recorder = install_timeline(tb.env, hub)
    pairs = generate_pairs(SyntheticSpec(n_pairs=512, seed=3))
    load_phase(tb.env, tb.adapter, [("ks", pairs, tb.thread_ctx(0))])

    def queries():
        ctx = tb.thread_ctx(0)
        yield from tb.adapter.prepare_queries("ks", ctx)
        yield from tb.router.multi_get("ks", [k for k, _ in pairs[::7]], ctx)

    tb.env.run(tb.env.process(queries()))
    return hub, recorder


@pytest.fixture(scope="module", params=["selftest", "cluster"])
def observed(request, observed_run):
    if request.param == "selftest":
        env = observed_run("obs_selftest", "trace", "timeline").testbed.env
        hub, recorder = env.tracer.hub, env.timeline
    else:
        hub, recorder = _cluster_run()
    recorder.sample()  # the timeline's last row, read when the others are
    return hub, recorder


def _prometheus_id(key: str, section: str) -> tuple[str, str]:
    """The (sample name, label string) a counter or gauge key renders as."""
    name, _, inner = key.partition("{")
    labels = [pair.split("=", 1) for pair in inner.rstrip("}").split(",")] if inner else []
    family = f"repro_{sanitize_metric_name(name)}"
    if section == "counters":
        family += "_total"
    return family, ",".join(f'{k}="{v}"' for k, v in labels)


def _prometheus_samples(text: str) -> dict[tuple[str, str], float]:
    """Counter and gauge samples of an exposition, by (name, label string)."""
    samples, kind = {}, None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            kind = line.split()[3]
        elif kind != "summary":
            head, value = line.rsplit(" ", 1)
            name, _, labels = head.partition("{")
            samples[(name, labels.rstrip("}"))] = float(value)
    return samples


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def test_exporters_name_the_same_metrics_with_the_same_values(observed):
    hub, recorder = observed
    data = hub.as_dict()
    values = {**data["counters"], **data["gauges"]}
    assert "hits{registry=block_cache}" in values or "cluster.ring.devices" in values

    prometheus = _prometheus_samples(hub.to_prometheus())
    mapped = {
        _prometheus_id(key, section): key
        for section in ("counters", "gauges")
        for key in data[section]
    }
    assert len(mapped) == len(values)  # no two keys render alike
    assert set(prometheus) == set(mapped)
    for sample_id, key in mapped.items():
        assert _same(prometheus[sample_id], values[key]), key

    timeline = {
        key: series.last()
        for key, series in recorder.series.items()
        if not key.startswith(WINDOW_SERIES)
    }
    assert set(timeline) == set(values)
    for key, value in values.items():
        assert _same(timeline[key], value), key


def test_prometheus_text_passes_the_exposition_validator(observed, tmp_path):
    hub, _recorder = observed
    path = tmp_path / "metrics.prom"
    path.write_text(hub.to_prometheus())
    assert VALIDATE(str(path)) == []


def test_validator_rejects_split_and_repeated_families(tmp_path):
    path = tmp_path / "bad.prom"
    path.write_text(
        "# TYPE repro_qp_depth gauge\n"
        'repro_qp_depth{qp="a"} 1.0\n'
        "# TYPE repro_zones_free gauge\n"
        "repro_zones_free 3.0\n"
        'repro_qp_depth{qp="b"} 1.0\n'
        "# TYPE repro_qp_depth gauge\n"
        "repro_zones_free 3.0\n"
        "repro_zones_free{ 3.0\n"
    )
    errors = VALIDATE(str(path))
    assert any("outside its family's block" in e for e in errors)
    assert any("second TYPE line" in e for e in errors)
    assert any("repeated sample" in e for e in errors)
    assert any("unparsable" in e or "malformed labels" in e for e in errors)
