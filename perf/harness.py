"""Measuring one workload: rounds, the two clocks, the traced run.

*Host* metrics (``wall_s``, ``cpu_s``, ``setup_s``, ``peak_rss_mb``) say how
fast the simulator produces its answer; they are noisy, so a run repeats
fixed-size rounds on fresh testbeds until ``--seconds`` are used up and
reports the fastest round, keeping median and maximum beside it.  *Model* metrics (``virt_*``) are the simulated
device's answer: deterministic for a seed, so every round of a run must
reproduce them bit-exactly — a round that does not counts as a failure.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time

from repro.obs.profile import profile_call

from perf import layers, micro
from perf.scenarios import KVCSD_CONFIG, SCENARIOS, percentile

MIN_ROUNDS = 2
HOST_METRICS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
VIRT_METRICS = {
    "virt_put_kops_per_s": "kops/s",
    "virt_compact_s": "s",
    "virt_get_mean_us": "us",
    "virt_get_p99_us": "us",
    "virt_read_kops_per_s": "kops/s",
    "virt_write_amp": "ratio",
    "virt_read_amp": "ratio",
}
END_TO_END = {**HOST_METRICS, **VIRT_METRICS}
#: model counts read through introspect()/report(), with their units; 0
#: where a workload has no such layer
COUNT_METRICS = {
    "virt_sidx_build_kops_per_s": "kops/s",
    "ssd.bytes_written": "count",
    "ssd.bytes_read": "count",
    "ssd.write_ops": "count",
    "ssd.read_ops": "count",
    "nvme.kvqp.submitted": "count",
    "nvme.kvqp.errors": "count",
    "core.block_cache.hit_rate": "share",
    "core.block_cache.evictions": "count",
    "core.query.admitted": "count",
    "cluster.router.coalesced_reads": "count",
    "cluster.router.stale_reads": "count",
    "lsm.table_count": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{layer}.self_share": "share" for layer in layers.LAYERS}
    units.update(
        {
            "trace.self_total_s": "s",
            "trace.attributed_share": "share",
            "trace.overhead_ratio": "ratio",
            "obs.overhead_ratio": "ratio",
            "sim.events": "count",
            "sim.events_per_op": "1/op",
            "sim.resumes_per_op": "1/op",
            **COUNT_METRICS,
        }
    )
    units.update({name: unit for name, (_b, unit) in micro.MICROBENCHES.items()})
    return units


class Round:
    """One executed round: host timings plus what the scenario produced."""

    def __init__(self, cls, seed: int, smoke: bool, traced: bool = False):
        gc.collect()
        scenario = cls(seed, smoke)
        t0 = time.perf_counter()
        scenario.setup()
        self.setup_s = time.perf_counter() - t0
        work0 = scenario.work()
        self.profile = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if traced:
            _result, stats = profile_call(scenario.run)
            self.profile = layers.fold(stats)
        else:
            scenario.run()
        self.cpu_s = time.process_time() - cpu0
        self.wall_s = time.perf_counter() - wall0
        self.ops = scenario.work() - work0
        scenario.check()
        self.attempted, self.failed = scenario.attempted, scenario.failed
        self.sizes = scenario.sizes
        self.virt = scenario.virt()
        self.counts = scenario.counts()
        self.get_samples = len(scenario.get_latencies)
        self.get_p50_us = percentile(sorted(scenario.get_latencies), 50) * 1e6

    def model(self) -> dict:
        """Everything that must repeat bit-exactly for a fixed seed."""
        return {
            "virt": self.virt, "counts": self.counts,
            "attempted": self.attempted, "failed": self.failed,
        }


def fingerprint(round_: Round) -> str:
    return hashlib.sha256(
        json.dumps(round_.model(), sort_keys=True).encode()
    ).hexdigest()


def plain_rounds(cls, seed, seconds, rounds, smoke) -> list[Round]:
    """Untraced rounds until ``seconds`` are used (or exactly ``rounds``)."""
    done: list[Round] = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        done.append(Round(cls, seed, smoke))
        now = time.perf_counter()
        if rounds is not None:
            enough = len(done) >= rounds
        else:  # start another round only if at least half of it fits
            enough = (
                len(done) >= MIN_ROUNDS
                and now - start + (now - before) / 2 > seconds
            )
        if enough:
            return done


def summary(values: list[float]) -> dict:
    """The rounds of one run; the reported value is the fastest.

    On a shared machine interference only ever adds time, and it comes in
    bursts longer than a round: in a noisy stretch the median of five
    rounds moved by 21 % between runs where the minimum moved by 3 %.
    """
    return {
        "value": min(values), "median": statistics.median(values),
        "max": max(values), "rounds": len(values), "samples": values,
    }


def measure(name: str, seed: int, seconds: float, rounds=None, smoke=False,
            trace=False) -> tuple[dict, dict]:
    """Run one workload; returns ``(result_line, detail)``.

    ``result_line`` is the contract's last-line object; ``detail`` carries
    min/max per metric, sizes, fingerprint and, when traced, layer seconds
    and the hottest functions.
    """
    cls = SCENARIOS[name]
    start = time.perf_counter()
    if trace:
        rounds = 1
    done = plain_rounds(cls, seed, seconds, rounds, smoke)
    first = done[0]
    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)
    for later in done[1:]:
        if later.model() != first.model():
            print(f"{name}: model metrics differ between rounds", file=sys.stderr)
            failed += 1
    detail = {
        "workload": name, "seed": seed, "sizes": first.sizes,
        "kvcsd_config": KVCSD_CONFIG, "virt_fingerprint": fingerprint(first),
        "get_samples": first.get_samples, "get_p50_us": first.get_p50_us,
        "host": {
            "wall_s": summary([r.wall_s for r in done]),
            "cpu_s": summary([r.cpu_s for r in done]),
            "setup_s": summary([r.setup_s for r in done]),
        },
    }
    if not trace:
        values = {k: v["value"] for k, v in detail["host"].items()}
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        values.update(first.virt)
        units = END_TO_END
    else:
        traced = Round(cls, seed, smoke, traced=True)
        attempted += traced.attempted
        failed += traced.failed + (traced.model() != first.model())
        values = trace_metrics(first, traced)
        if cls.reference is not None:
            plain = Round(SCENARIOS[cls.reference], seed, smoke)
            attempted += plain.attempted
            # the observers must not perturb the model: same stream, same clock
            failed += plain.failed + (plain.virt != first.virt)
            values["obs.overhead_ratio"] = first.wall_s / plain.wall_s
        # the microbenchmarks get what is left of the run, within reason
        left = seconds - (time.perf_counter() - start)
        values.update(
            micro.run_microbenches(
                min(1.0, max(0.05, left / len(micro.MICROBENCHES)))
            )
        )
        detail["trace"] = {
            "self_s": traced.profile["self_s"],
            "hottest": traced.profile["hottest"],
            "traced_wall_s": traced.wall_s,
        }
        units = per_layer_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, detail


def trace_metrics(plain: Round, traced: Round) -> dict[str, float]:
    """The per-layer metrics of one workload (microbenches excepted)."""
    profile = traced.profile
    total = profile["total_s"]
    values = {
        f"{layer}.self_share": seconds / total
        for layer, seconds in profile["self_s"].items()
    }
    events = profile["calls"]["sim.events"]
    values.update(
        {
            "trace.self_total_s": total,
            "trace.attributed_share": 1 - profile["unattributed_s"] / total,
            "trace.overhead_ratio": traced.wall_s / plain.wall_s,
            "obs.overhead_ratio": 0.0,
            "sim.events": events,
            "sim.events_per_op": events / traced.ops,
            "sim.resumes_per_op": profile["calls"]["sim.resumes"] / traced.ops,
        }
    )
    values.update({name: plain.counts.get(name, 0) for name in COUNT_METRICS})
    return values
