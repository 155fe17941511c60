"""Million-key scale benchmark: multi-keyspace YCSB-style load + read/update.

The paper's micro benchmarks insert 32M pairs; at simulation scale the
largest workload the pure-python event loop could previously sustain was a
few tens of thousands of commands.  The fast-path work (bulk ingestion
batching, vectorised klog codec and sorting, inline synchronous submits)
exists precisely so a 1M-key run is practical — this bench is the proof and
the regression guard for it.

Shape (YCSB-style):

* **Load** — ``n_pairs`` random pairs split evenly over ``n_keyspaces``
  keyspaces, one pinned client thread per keyspace, bulk PUTs.
* **Read/update** — each thread issues ``ops_per_keyspace`` operations
  against its keyspace: zipfian key choice, ``read_fraction`` GETs
  (YCSB-B's 95/5 by default), the rest single-pair updates.  KV-CSD's
  keyspace state machine (Section IV) forbids writes once a keyspace is
  compacted, so updates append to a per-thread *delta* keyspace — the
  device's intended pattern for amending published data — and the bench
  verifies the latest values from the compacted deltas afterwards.

Wall-clock seconds per phase are recorded next to the virtual-clock
seconds: the virtual numbers validate the model, the wall numbers are the
simulator-performance regression metric (CI runs ``--smoke`` under a
budget).  Results land in ``results/BENCH_scale.json``.  A timeline run
keeps no spans (only the hub's bounded reservoirs and the sampled series),
so memory stays flat at 1M keys; an explain run needs the span trees, so
pair ``--explain`` with ``--smoke``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.calibration import build_kvcsd_testbed
from repro.bench.report import ResultTable, ShapeCheck, unobserved
from repro.errors import KeyNotFoundError
from repro.obs.audit import check_queue_pair_accounting
from repro.units import KiB, MiB
from repro.workloads import (
    SyntheticSpec,
    ZipfSampler,
    generate_pairs,
    load_phase,
    run_phase,
)

__all__ = ["ScaleBenchConfig", "ScaleBenchResult", "run_scale_bench"]


@dataclass(frozen=True)
class ScaleBenchConfig:
    """Workload shape for the scale run."""

    n_pairs: int = 1_000_000
    n_keyspaces: int = 4
    key_bytes: int = 16
    value_bytes: int = 64
    seed: int = 53
    #: total read/update operations, split evenly over the keyspaces
    ops: int = 20_000
    read_fraction: float = 0.95
    zipf_theta: float = 0.99
    #: larger membuf than the micro benches: the scaled 8 GB device DRAM
    #: comfortably holds 1 MiB write buffers per keyspace at this load
    membuf_bytes: int = 1 * MiB
    bulk_message_bytes: int = 256 * KiB


@dataclass
class ScaleBenchResult:
    config: ScaleBenchConfig
    #: phase name -> {virtual_seconds, wall_seconds, operations}
    phases: dict[str, dict] = field(default_factory=dict)
    device_io: dict = field(default_factory=dict)
    queue_state: dict = field(default_factory=dict)
    reads_found: int = 0
    reads_missing: int = 0
    updates_verified: bool = False
    accounting_clean: bool = False

    def _rate(self, phase: str, clock: str) -> float:
        info = self.phases[phase]
        seconds = info[clock]
        return info["operations"] / seconds if seconds > 0 else float("inf")

    def table(self) -> ResultTable:
        t = ResultTable(
            "1M-key multi-keyspace YCSB-style scale run",
            ["phase", "ops", "virtual", "virt ops/s", "wall", "wall ops/s"],
        )
        for name, info in self.phases.items():
            t.add_row(
                name,
                str(info["operations"]),
                f"{info['virtual_seconds']:.4f}s",
                f"{self._rate(name, 'virtual_seconds'):.0f}",
                f"{info['wall_seconds']:.2f}s",
                f"{self._rate(name, 'wall_seconds'):.0f}",
            )
        c = self.config
        t.add_note(
            f"{c.n_pairs} pairs over {c.n_keyspaces} keyspaces, "
            f"{c.ops} ops at {c.read_fraction:.0%} reads, "
            f"zipf(theta={c.zipf_theta})"
        )
        return t

    def checks(self) -> list[ShapeCheck]:
        return [
            ShapeCheck(
                "every zipfian read found its key",
                self.reads_missing == 0,
                f"{self.reads_found} found / {self.reads_missing} missing",
            ),
            ShapeCheck(
                "updated keys return their latest value",
                self.updates_verified,
            ),
            ShapeCheck(
                "queue-pair accounting is clean after the run",
                self.accounting_clean,
            ),
        ]

    def metrics(self) -> dict:
        return {
            "phases": self.phases,
            "device_io": self.device_io,
            "queue_state": self.queue_state,
            "reads_found": self.reads_found,
            "reads_missing": self.reads_missing,
            "updates_verified": self.updates_verified,
            "accounting_clean": self.accounting_clean,
        }


def _keyspace_name(i: int) -> str:
    return f"scale-ks{i}"


def _delta_name(i: int) -> str:
    return f"scale-ks{i}-delta"


def run_scale_bench(
    config: ScaleBenchConfig = ScaleBenchConfig(), observe=unobserved
) -> ScaleBenchResult:
    """Load ``n_pairs`` across keyspaces, then run the YCSB-style op mix."""
    result = ScaleBenchResult(config=config)
    pairs = generate_pairs(
        SyntheticSpec(
            n_pairs=config.n_pairs,
            key_bytes=config.key_bytes,
            value_bytes=config.value_bytes,
            seed=config.seed,
        )
    )
    kv = build_kvcsd_testbed(
        seed=config.seed,
        membuf_bytes=config.membuf_bytes,
        bulk_message_bytes=config.bulk_message_bytes,
    )
    observe(kv)
    per_ks = len(pairs) // config.n_keyspaces
    slices = [
        pairs[i * per_ks : (i + 1) * per_ks if i < config.n_keyspaces - 1 else None]
        for i in range(config.n_keyspaces)
    ]

    # -- load phase -----------------------------------------------------------
    wall0 = time.time()
    report = load_phase(
        kv.env,
        kv.adapter,
        [
            (_keyspace_name(i), ks_pairs, kv.thread_ctx(i))
            for i, ks_pairs in enumerate(slices)
        ],
    )
    result.phases["load"] = {
        "virtual_seconds": report.seconds,
        "wall_seconds": time.time() - wall0,
        "operations": report.operations,
    }

    # -- make queryable (device finishes its deferred compaction) -------------
    wall0 = time.time()
    t0 = kv.env.now

    def ready(i: int):
        yield from kv.adapter.prepare_queries(_keyspace_name(i), kv.thread_ctx(i))

    run_phase(kv.env, [ready(i) for i in range(config.n_keyspaces)])
    result.phases["prepare"] = {
        "virtual_seconds": kv.env.now - t0,
        "wall_seconds": time.time() - wall0,
        "operations": config.n_keyspaces,
    }

    # -- YCSB-style read/update phase -----------------------------------------
    # Reads hit the compacted base keyspaces; updates append to per-thread
    # delta keyspaces (writes to a COMPACTED keyspace are illegal by the
    # device's state machine).
    ops_per_ks = config.ops // config.n_keyspaces
    counters = {"found": 0, "missing": 0}
    updated: dict[int, dict[bytes, bytes]] = {i: {} for i in range(config.n_keyspaces)}

    def make_delta(i: int):
        yield from kv.adapter.create_container(_delta_name(i), kv.thread_ctx(i))

    run_phase(kv.env, [make_delta(i) for i in range(config.n_keyspaces)])

    def ycsb_thread(i: int, ks_pairs):
        name = _keyspace_name(i)
        delta = _delta_name(i)
        ctx = kv.thread_ctx(i)
        rng = np.random.default_rng(config.seed + 101 * i)
        sampler = ZipfSampler(len(ks_pairs), theta=config.zipf_theta, rng=rng)
        picks = sampler.sample(ops_per_ks)
        is_read = rng.random(ops_per_ks) < config.read_fraction
        mine = updated[i]
        for pick, read in zip(picks.tolist(), is_read.tolist()):
            key, value = ks_pairs[pick]
            if read:
                got = yield from kv.adapter.get(name, key, ctx)
                if got is None:
                    counters["missing"] += 1
                else:
                    counters["found"] += 1
            else:
                new_value = b"u" + value[1:] if value else b""
                yield from kv.adapter.insert(delta, [(key, new_value)], ctx)
                mine[key] = new_value

    wall0 = time.time()
    report = run_phase(
        kv.env,
        [ycsb_thread(i, ks_pairs) for i, ks_pairs in enumerate(slices)],
    )
    result.phases["ycsb"] = {
        "virtual_seconds": report.seconds,
        "wall_seconds": time.time() - wall0,
        "operations": ops_per_ks * config.n_keyspaces,
    }
    result.reads_found = counters["found"]
    result.reads_missing = counters["missing"]

    # -- verify updates read back their latest value from the deltas ----------
    verified = {"ok": True}

    def seal_delta(i: int):
        ctx = kv.thread_ctx(i)
        if updated[i]:
            yield from kv.adapter.finish_load(_delta_name(i), ctx)
            yield from kv.adapter.prepare_queries(_delta_name(i), ctx)

    run_phase(kv.env, [seal_delta(i) for i in range(config.n_keyspaces)])

    def verify_thread(i: int):
        delta = _delta_name(i)
        ctx = kv.thread_ctx(i)
        for key, expect in updated[i].items():
            try:
                got = yield from kv.client.get(delta, key, ctx)
            except KeyNotFoundError:
                got = None
            if got != expect:
                verified["ok"] = False

    run_phase(kv.env, [verify_thread(i) for i in range(config.n_keyspaces)])
    result.updates_verified = verified["ok"]

    result.device_io = kv.ssd.introspect()["io"]
    result.queue_state = kv.client.qp.introspect()
    result.accounting_clean = not check_queue_pair_accounting(kv.client.qp)
    return result
