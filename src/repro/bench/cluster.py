"""Cluster scaling benchmark: 1..N KV-CSD devices behind one router.

Two questions, one bench:

* **Scaling** — the same fixed workload (bulk load over ``n_keyspaces``
  keyspaces, a zipfian batched-GET sweep, a YCSB-B-style 95/5 read/update
  mix) runs against fleets of 1, 2, 4 and 8 devices.  Virtual-clock
  throughput per fleet size gives the scaling curve; the headline check is
  aggregate GET *and* PUT throughput at the largest fleet >= ``min_speedup``
  x the single-device run (near-linear: devices don't share flash,
  SoC cores or fabric links — only the host CPU pool and the router).
* **Online rebalance** — at the largest fleet, data is loaded onto N-1
  devices, sustained zipfian GET traffic starts, and the Nth device joins
  via :func:`~repro.cluster.rebalance.execute_ring_change` *under* that
  traffic.  Foreground reads must stay correct throughout (dual-read
  verified: zero stale, zero lost) and migration-phase p99 GET latency
  must stay within ``max_p99_ratio`` x the steady-state p99.

Results land in ``results/BENCH_cluster.json`` with per-device utilization
(queue-pair counters, SSD I/O, fabric bytes) for every fleet size.  The
observer goes on the largest fleet, whose critical-path resources carry
device labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.calibration import bench_geometry
from repro.bench.report import ResultTable, ShapeCheck, require_ascending, unobserved
from repro.cluster import build_cluster_testbed, execute_ring_change
from repro.cluster.ring import HashRing
from repro.nvme.kv_commands import KvGetCmd
from repro.obs.audit import check_queue_pair_accounting
from repro.units import KiB
from repro.workloads import (
    SyntheticSpec,
    ZipfSampler,
    generate_pairs,
    load_phase,
    run_phase,
)

__all__ = ["ClusterBenchConfig", "ClusterBenchResult", "run_cluster_bench"]


@dataclass(frozen=True)
class ClusterBenchConfig:
    """Workload shape plus the fleet sizes under test."""

    #: speedups are taken against the first (smallest) fleet
    devices: tuple[int, ...] = (1, 2, 4, 8)
    n_pairs: int = 4_194_304
    n_keyspaces: int = 8
    key_bytes: int = 16
    value_bytes: int = 64
    seed: int = 61
    #: total batched GETs per fleet size (fixed work, time varies)
    ops: int = 32_768
    #: YCSB-B-style mixed ops per fleet size
    mixed_ops: int = 8_192
    read_fraction: float = 0.95
    zipf_theta: float = 0.99
    n_threads: int = 16
    #: GET commands per submit_many batch (the per-thread async window);
    #: large batches give router read-coalescing more duplicates to fold
    #: and keep every shard's pipeline deep between reap barriers
    batch: int = 512
    queue_depth: int = 32
    #: virtual nodes per device on the hash ring — high vnode counts
    #: smooth the per-device arc share, whose max paces a skewed fleet
    vnodes: int = 512
    bulk_message_bytes: int = 128 * KiB
    #: pairs per loader insert call; large batches keep every device's
    #: bulk pipeline deep instead of bounding it by sync round trips
    load_batch_pairs: int = 32_768
    #: zones per keyspace cluster — stripe ingest over all 8 flash
    #: channels so the fleet's flush latency, not one stripe's, bounds PUT
    cluster_zones: int = 8
    #: zones per device; the single-device baseline holds the whole
    #: dataset (raw + compacted) plus every delta at 8-zone clusters
    n_zones: int = 1_024
    #: pairs loaded for the online-rebalance scenario (a correctness +
    #: tail-latency test, so it doesn't need the full scaling dataset)
    rebalance_pairs: int = 262_144
    #: scaling floor for the largest fleet vs one device
    min_speedup: float = 6.0
    #: run the online-rebalance scenario at the largest fleet
    rebalance: bool = True
    #: sync GETs per thread in the steady-state latency phase
    steady_gets: int = 192
    #: migration-phase foreground p99 bound, as a multiple of steady p99
    max_p99_ratio: float = 2.0

    def __post_init__(self):
        require_ascending("devices", self.devices)


@dataclass
class ClusterBenchResult:
    config: ClusterBenchConfig
    #: fleet size -> phase name -> {virtual_seconds, operations, throughput}
    phases: dict[int, dict[str, dict]] = field(default_factory=dict)
    #: fleet size -> device name -> {qp, io, link} utilization counters
    per_device: dict[int, dict[str, dict]] = field(default_factory=dict)
    rebalance: dict = field(default_factory=dict)
    reads_ok: bool = False
    updates_verified: bool = False
    accounting_clean: bool = False

    def _throughput(self, n: int, phase: str) -> float:
        info = self.phases[n][phase]
        return info["operations"] / info["virtual_seconds"]

    def get_speedup(self, n: int) -> float:
        base = self.config.devices[0]
        return self._throughput(n, "get") / self._throughput(base, "get")

    def put_speedup(self, n: int) -> float:
        base = self.config.devices[0]
        return self._throughput(n, "load") / self._throughput(base, "load")

    @property
    def get_speedup_max(self) -> float:
        return self.get_speedup(max(self.config.devices))

    @property
    def put_speedup_max(self) -> float:
        return self.put_speedup(max(self.config.devices))

    def table(self) -> ResultTable:
        t = ResultTable(
            "Cluster scaling: N devices, one router, fixed workload",
            ["devices", "PUT ops/s", "PUT x", "GET ops/s", "GET x",
             "mixed ops/s"],
        )
        for n in self.config.devices:
            t.add_row(
                str(n),
                f"{self._throughput(n, 'load'):.0f}",
                f"{self.put_speedup(n):.2f}x",
                f"{self._throughput(n, 'get'):.0f}",
                f"{self.get_speedup(n):.2f}x",
                f"{self._throughput(n, 'mixed'):.0f}",
            )
        c = self.config
        t.add_note(
            f"{c.n_pairs} pairs / {c.n_keyspaces} keyspaces, {c.ops} GETs "
            f"in batches of {c.batch}, {c.mixed_ops} mixed ops at "
            f"{c.read_fraction:.0%} reads, zipf(theta={c.zipf_theta}), "
            f"{c.n_threads} host threads"
        )
        if self.rebalance:
            r = self.rebalance
            t.add_note(
                f"rebalance {r['devices_before']}->{r['devices_after']} dev: "
                f"moved {r['moved_pairs']} pairs in {r['duration']:.4f}s "
                f"virtual, p99 {r['steady_p99'] * 1e6:.1f}us steady -> "
                f"{r['migrate_p99'] * 1e6:.1f}us during "
                f"({r['p99_ratio']:.2f}x), {r['dual_reads']} dual reads, "
                f"{r['stale_reads']} stale"
            )
        return t

    def checks(self) -> list[ShapeCheck]:
        c = self.config
        top = max(c.devices)
        checks = [
            ShapeCheck(
                f"aggregate GET throughput at {top} devices >= "
                f"{c.min_speedup:.1f}x one device",
                self.get_speedup_max >= c.min_speedup,
                f"{self.get_speedup_max:.2f}x",
            ),
            ShapeCheck(
                f"aggregate PUT throughput at {top} devices >= "
                f"{c.min_speedup:.1f}x one device",
                self.put_speedup_max >= c.min_speedup,
                f"{self.put_speedup_max:.2f}x",
            ),
            ShapeCheck(
                "every routed read returned the loaded value at every "
                "fleet size",
                self.reads_ok,
            ),
            ShapeCheck(
                "updated keys return their latest value from the deltas",
                self.updates_verified,
            ),
            ShapeCheck(
                "queue-pair accounting is clean on every device",
                self.accounting_clean,
            ),
        ]
        if self.rebalance:
            r = self.rebalance
            checks += [
                ShapeCheck(
                    "rebalance: zero stale and zero lost reads under "
                    "sustained traffic (dual-read verified)",
                    r["stale_reads"] == 0 and r["reads_ok"]
                    and r["mismatches"] == 0,
                    f"{r['dual_reads']} dual reads, {r['stale_reads']} stale, "
                    f"{r['mismatches']} copy mismatches",
                ),
                ShapeCheck(
                    f"rebalance: migration-phase p99 GET <= "
                    f"{c.max_p99_ratio:.1f}x steady-state p99",
                    r["p99_ratio"] <= c.max_p99_ratio,
                    f"{r['p99_ratio']:.2f}x",
                ),
                ShapeCheck(
                    "rebalance: the new device actually received data",
                    r["moved_pairs"] > 0,
                    f"{r['moved_pairs']} pairs moved",
                ),
            ]
        return checks

    def metrics(self) -> dict:
        c = self.config
        return {
            "phases": {
                str(n): phases for n, phases in self.phases.items()
            },
            "throughput": {
                str(n): {
                    phase: self._throughput(n, phase)
                    for phase in self.phases[n]
                }
                for n in self.phases
            },
            "get_speedup": {
                str(n): self.get_speedup(n) for n in c.devices
            },
            "put_speedup": {
                str(n): self.put_speedup(n) for n in c.devices
            },
            "get_speedup_max": self.get_speedup_max,
            "put_speedup_max": self.put_speedup_max,
            "per_device": {
                str(n): devs for n, devs in self.per_device.items()
            },
            "rebalance": self.rebalance,
            "reads_ok": self.reads_ok,
            "updates_verified": self.updates_verified,
            "accounting_clean": self.accounting_clean,
        }


def _keyspace_name(i: int) -> str:
    return f"cluster-ks{i}"


def _delta_name(i: int) -> str:
    return f"cluster-ks{i}-delta"


def _device_utilization(tb) -> dict[str, dict]:
    """Per-device queue/IO/fabric counters after a run."""
    out = {}
    for node in tb.nodes:
        out[node.name] = {
            "qp": node.client.qp.introspect(),
            "io": node.ssd.introspect()["io"],
            "link": {
                "bytes_tx": node.link.bytes_tx,
                "bytes_rx": node.link.bytes_rx,
            },
        }
    return out


def _load_and_prepare(tb, config: ClusterBenchConfig, slices) -> dict:
    """Bulk-load every keyspace through the router, then seal + wait."""
    report = load_phase(
        tb.env,
        tb.adapter,
        [
            (_keyspace_name(i), ks_pairs, tb.thread_ctx(i))
            for i, ks_pairs in enumerate(slices)
        ],
        batch_pairs=config.load_batch_pairs,
    )
    load_info = {
        "virtual_seconds": report.seconds,
        "operations": report.operations,
    }

    def ready(i: int):
        yield from tb.adapter.prepare_queries(_keyspace_name(i), tb.thread_ctx(i))

    run_phase(tb.env, [ready(i) for i in range(config.n_keyspaces)])
    return load_info


def _one_fleet(config: ClusterBenchConfig, n: int, slices, result, observe):
    """Run load / get / mixed phases against an ``n``-device fleet."""
    tb = build_cluster_testbed(
        n_devices=n,
        seed=config.seed,
        geometry=bench_geometry(n_zones=config.n_zones),
        cluster_zones=config.cluster_zones,
        queue_depth=config.queue_depth,
        bulk_message_bytes=config.bulk_message_bytes,
        vnodes=config.vnodes,
    )
    if n == config.devices[-1]:
        observe(tb)
    phases: dict[str, dict] = {}
    phases["load"] = _load_and_prepare(tb, config, slices)

    # -- batched zipfian GET sweep: fixed picks, identical at every n ------
    expected = {i: dict(ks_pairs) for i, ks_pairs in enumerate(slices)}
    ops_per_thread = config.ops // config.n_threads
    state = {"reads_ok": True}

    def get_thread(t: int):
        ks = t % config.n_keyspaces
        ks_pairs = slices[ks]
        ctx = tb.thread_ctx(t)
        rng = np.random.default_rng(config.seed + 977 * t)
        sampler = ZipfSampler(len(ks_pairs), theta=config.zipf_theta, rng=rng)
        picks = sampler.sample(ops_per_thread).tolist()
        name = _keyspace_name(ks)
        for start in range(0, ops_per_thread, config.batch):
            chunk = picks[start : start + config.batch]
            commands = [
                KvGetCmd(keyspace=name, key=ks_pairs[p][0]) for p in chunk
            ]
            completions = yield from tb.router.submit_many(commands, ctx)
            for p, completion in zip(chunk, completions):
                if not completion.ok or completion.value != ks_pairs[p][1]:
                    state["reads_ok"] = False

    report = run_phase(
        tb.env, [get_thread(t) for t in range(config.n_threads)]
    )
    phases["get"] = {
        "virtual_seconds": report.seconds,
        "operations": ops_per_thread * config.n_threads,
        # zipf-hot duplicates folded by router read-coalescing (the same
        # logical ops complete; the hot shard is charged once per batch)
        "coalesced_reads": tb.router.counters["coalesced_reads"],
    }

    # -- YCSB-B-style mix: 95% routed GETs, 5% updates into deltas ---------
    mixed_per_thread = config.mixed_ops // config.n_threads
    updated: dict[int, dict[bytes, bytes]] = {
        t: {} for t in range(config.n_threads)
    }

    def make_delta(t: int):
        yield from tb.adapter.create_container(_delta_name(t), tb.thread_ctx(t))

    run_phase(tb.env, [make_delta(t) for t in range(config.n_threads)])

    def mixed_thread(t: int):
        ks = t % config.n_keyspaces
        ks_pairs = slices[ks]
        name = _keyspace_name(ks)
        delta = _delta_name(t)
        ctx = tb.thread_ctx(t)
        rng = np.random.default_rng(config.seed + 3301 * t)
        sampler = ZipfSampler(len(ks_pairs), theta=config.zipf_theta, rng=rng)
        picks = sampler.sample(mixed_per_thread)
        is_read = rng.random(mixed_per_thread) < config.read_fraction
        mine = updated[t]
        for pick, read in zip(picks.tolist(), is_read.tolist()):
            key, value = ks_pairs[pick]
            if read:
                got = yield from tb.adapter.get(name, key, ctx)
                if got != value:
                    state["reads_ok"] = False
            else:
                new_value = b"u" + value[1:]
                yield from tb.adapter.insert(delta, [(key, new_value)], ctx)
                mine[key] = new_value

    report = run_phase(
        tb.env, [mixed_thread(t) for t in range(config.n_threads)]
    )
    phases["mixed"] = {
        "virtual_seconds": report.seconds,
        "operations": mixed_per_thread * config.n_threads,
    }

    # -- verify the updates from the sealed deltas -------------------------
    verified = {"ok": True}

    def seal_and_verify(t: int):
        ctx = tb.thread_ctx(t)
        if not updated[t]:
            return
        delta = _delta_name(t)
        yield from tb.adapter.finish_load(delta, ctx)
        yield from tb.adapter.prepare_queries(delta, ctx)
        for key, expect in updated[t].items():
            got = yield from tb.adapter.get(delta, key, ctx)
            if got != expect:
                verified["ok"] = False

    run_phase(tb.env, [seal_and_verify(t) for t in range(config.n_threads)])

    result.phases[n] = phases
    result.per_device[n] = _device_utilization(tb)
    clean = all(
        not check_queue_pair_accounting(node.client.qp) for node in tb.nodes
    )
    return state["reads_ok"], verified["ok"], clean


def _rebalance_scenario(config: ClusterBenchConfig, slices) -> dict:
    """Add the Nth device under sustained GET traffic; measure p99 impact."""
    n = max(config.devices)
    initial = tuple(f"dev{i}" for i in range(n - 1))
    tb = build_cluster_testbed(
        n_devices=n,
        seed=config.seed,
        ring=HashRing(initial, vnodes=config.vnodes),
        geometry=bench_geometry(n_zones=config.n_zones),
        cluster_zones=config.cluster_zones,
        queue_depth=config.queue_depth,
        bulk_message_bytes=config.bulk_message_bytes,
    )
    # correctness + tail-latency scenario: a trimmed dataset keeps the
    # scan/copy/verify pipeline honest without the full scaling volume
    per_ks = max(1, config.rebalance_pairs // config.n_keyspaces)
    slices = [ks_pairs[:per_ks] for ks_pairs in slices]
    _load_and_prepare(tb, config, slices)

    state = {
        "reads_ok": True,
        "migrating": False,
        "done": False,
        "steady": [],
        "migrate": [],
        "report": None,
    }

    def fg_thread(t: int):
        ks = t % config.n_keyspaces
        ks_pairs = slices[ks]
        name = _keyspace_name(ks)
        ctx = tb.thread_ctx(t)
        rng = np.random.default_rng(config.seed + 7919 * t)
        sampler = ZipfSampler(len(ks_pairs), theta=config.zipf_theta, rng=rng)
        # steady-state: a fixed number of sync GETs before the ring change
        for pick in sampler.sample(config.steady_gets).tolist():
            key, value = ks_pairs[pick]
            t0 = tb.env.now
            got = yield from tb.router.get(name, key, ctx)
            state["steady"].append(tb.env.now - t0)
            if got != value:
                state["reads_ok"] = False
        if t == 0:
            state["migrating"] = True
            tb.env.process(migrator(tb.thread_ctx(config.n_threads)))
        # sustained traffic while the migration runs
        while not state["done"]:
            pick = int(sampler.sample(1)[0])
            key, value = slices[ks][pick]
            t0 = tb.env.now
            got = yield from tb.router.get(name, key, ctx)
            state["migrate"].append(tb.env.now - t0)
            if got != value:
                state["reads_ok"] = False

    def migrator(ctx):
        # every fg thread has entered the sustained loop by now (they all
        # issue steady_gets first); the ring change runs under their load
        new_ring = tb.router.ring.add_device(f"dev{n - 1}")
        report = yield from execute_ring_change(tb.router, new_ring, ctx)
        state["report"] = report
        state["done"] = True

    run_phase(tb.env, [fg_thread(t) for t in range(config.n_threads)])

    report = state["report"]
    steady_p99 = float(np.percentile(state["steady"], 99))
    migrate_p99 = float(np.percentile(state["migrate"], 99))
    return {
        "devices_before": n - 1,
        "devices_after": n,
        "moved_pairs": report.moved_pairs,
        "scanned_pairs": report.scanned_pairs,
        "verified_pairs": report.verified_pairs,
        "mismatches": report.mismatches,
        "duration": report.duration,
        "steady_gets": len(state["steady"]),
        "migrate_gets": len(state["migrate"]),
        "steady_p99": steady_p99,
        "migrate_p99": migrate_p99,
        "p99_ratio": migrate_p99 / steady_p99 if steady_p99 > 0 else 1.0,
        "dual_reads": tb.router.counters["dual_reads"],
        "stale_reads": tb.router.counters["stale_reads"],
        "reads_ok": state["reads_ok"],
    }


def run_cluster_bench(
    config: ClusterBenchConfig = ClusterBenchConfig(), observe=unobserved
) -> ClusterBenchResult:
    """Sweep fleet sizes over the fixed workload, then rebalance online."""
    result = ClusterBenchResult(config=config)
    pairs = generate_pairs(
        SyntheticSpec(
            n_pairs=config.n_pairs,
            key_bytes=config.key_bytes,
            value_bytes=config.value_bytes,
            seed=config.seed,
        )
    )
    per_ks = len(pairs) // config.n_keyspaces
    slices = [
        pairs[i * per_ks : (i + 1) * per_ks if i < config.n_keyspaces - 1 else None]
        for i in range(config.n_keyspaces)
    ]
    reads_ok = updates_ok = clean = True
    for n in config.devices:
        fleet_reads, fleet_updates, fleet_clean = _one_fleet(
            config, n, slices, result, observe
        )
        reads_ok = reads_ok and fleet_reads
        updates_ok = updates_ok and fleet_updates
        clean = clean and fleet_clean
    result.reads_ok = reads_ok
    result.updates_verified = updates_ok
    result.accounting_clean = clean
    if config.rebalance and max(config.devices) > 1:
        result.rebalance = _rebalance_scenario(config, slices)
    return result
