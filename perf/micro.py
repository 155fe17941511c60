"""Per-layer microbenchmarks: one number per layer, tracing off.

Each bench is a function returning ``(call, units)``: ``call()`` does a
fixed amount of one layer's work through its public entry point and
``units`` is how much (events, MB, keys, commands ...).  The rate is units
per host second, the median over ``REPS`` timed repetitions.  Inputs are
fixed — these numbers compare commits, not seeds.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster.ring import HashRing
from repro.core.klog import pack_klog_records, unpack_klog_records
from repro.core.pidx import build_pidx_blocks, read_block_entries
from repro.core.sort import ExternalSorter
from repro.core.wire import pack_pairs
from repro.core.zone_manager import ZoneManager
from repro.host import ThreadCtx
from repro.lsm.block import BlockBuilder
from repro.nvme import NvmeController, QueuePair
from repro.nvme.commands import ZoneReadCmd
from repro.sim import CpuPool, Environment
from repro.sim.resources import Resource
from repro.ssd import SsdGeometry, ZnsSsd
from repro.units import KiB, MiB
from repro.workloads import SyntheticSpec, generate_pairs

REPS = 5
N = 4096
MB = 1e6


def _pairs():
    return sorted(generate_pairs(SyntheticSpec(N, 16, 64, seed=7)))


def _klog_records():
    return [(k, i, (i % 64, i * 64, 64)) for i, (k, _v) in enumerate(_pairs())]


def _small_zns(env):
    return ZnsSsd(env, SsdGeometry(n_channels=4, n_zones=16, zone_size=8 * MiB))


def sim_timeouts():
    def call():
        env = Environment()

        def ticker():
            for _ in range(256):
                yield env.timeout(1.0)

        for _ in range(16):
            env.process(ticker())
        env.run()

    return call, 16 * 256


def sim_contended_grants():
    def call():
        env = Environment()
        resource = Resource(env, capacity=1)

        def user():
            for _ in range(128):
                with resource.request() as request:
                    yield request
                    yield env.timeout(1e-6)

        for _ in range(8):
            env.process(user())
        env.run()

    return call, 8 * 128


def klog_pack():
    records = _klog_records()
    return (lambda: pack_klog_records(records)), len(pack_klog_records(records)) / MB


def klog_unpack():
    blob = pack_klog_records(_klog_records())
    return (lambda: unpack_klog_records(blob)), len(blob) / MB


def pidx_build():
    entries = [(k, p) for k, _seq, p in _klog_records()]
    size = sum(len(b) for _k, b in build_pidx_blocks(entries))
    return (lambda: build_pidx_blocks(entries)), size / MB


def pidx_read():
    blocks = [b for _k, b in build_pidx_blocks([(k, p) for k, _s, p in _klog_records()])]

    def call():
        for blob in blocks:
            read_block_entries(blob)

    return call, sum(len(b) for b in blocks) / MB


def wire_pack():
    pairs = _pairs()
    return (lambda: pack_pairs(pairs)), len(pack_pairs(pairs)) / MB


def sort_keys():
    env = Environment()
    sorter = ExternalSorter(
        ZoneManager(_small_zns(env), np.random.default_rng(0), cluster_zones=4),
        budget_bytes=64 * MiB,
        compare_cost=25e-9,
        pack=lambda recs: pack_klog_records([(k, s, p) for k, (s, p) in recs]),
        unpack=lambda blob: [(k, (s, p)) for k, s, p in unpack_klog_records(blob)],
        sort_key=lambda rec: (rec[0], -rec[1][0]),
        key_kind="key_seq_desc",  # the compaction order: key asc, seq desc
    )
    ctx = ThreadCtx(cpu=CpuPool(env, 4))
    rng = np.random.default_rng(1)
    records = [(k, (s, p)) for k, s, p in _klog_records()]
    shuffled = [records[i] for i in rng.permutation(len(records))]

    def call():
        env.run(env.process(sorter.sort(shuffled, 40 * len(shuffled), ctx)))

    return call, len(shuffled)


def qp_commands():
    env = Environment()
    ssd = _small_zns(env)
    env.run(env.process(ssd.append(0, bytes(64 * KiB))))
    qp = QueuePair(env, NvmeController(env, ssd), depth=32)

    def reader(n):
        for i in range(n):
            yield from qp.submit(ZoneReadCmd(0, (i % 16) * 4 * KiB, 4 * KiB))

    def call():
        procs = [env.process(reader(128)) for _ in range(4)]
        env.run(env.all_of(procs))

    return call, 4 * 128


def zns_ios():
    block = bytes(4 * KiB)

    def call():
        env = Environment()
        ssd = _small_zns(env)

        def io(zone):
            for _ in range(128):
                yield from ssd.append(zone, block)
            for i in range(128):
                yield from ssd.read(zone, i * 4 * KiB, 4 * KiB)

        for zone in range(4):
            env.process(io(zone))
        env.run()

    return call, 4 * 256


def ring_lookups():
    ring = HashRing(tuple(f"dev{i}" for i in range(8)), vnodes=512)
    keys = [k for k, _v in _pairs()]

    def call():
        for key in keys:
            ring.owners("ks", key)

    return call, len(keys)


def lsm_block_build():
    pairs = _pairs()

    def call():
        builder = BlockBuilder(4 * KiB)
        for key, value in pairs:
            builder.add(key, value)
            if builder.full:
                builder.finish()
                builder = BlockBuilder(4 * KiB)

    return call, sum(len(k) + len(v) + 8 for k, v in pairs) / MB


#: metric name -> (bench, unit)
MICROBENCHES = {
    "sim.timeout_events_per_s": (sim_timeouts, "1/s"),
    "sim.contended_grants_per_s": (sim_contended_grants, "1/s"),
    "core.codec.klog_pack_mb_per_s": (klog_pack, "MB/s"),
    "core.codec.klog_unpack_mb_per_s": (klog_unpack, "MB/s"),
    "core.codec.pidx_build_mb_per_s": (pidx_build, "MB/s"),
    "core.codec.pidx_read_mb_per_s": (pidx_read, "MB/s"),
    "core.codec.wire_pack_mb_per_s": (wire_pack, "MB/s"),
    "core.sort.keys_per_s": (sort_keys, "1/s"),
    "nvme.qp.commands_per_s": (qp_commands, "1/s"),
    "ssd.zns.ios_per_s": (zns_ios, "1/s"),
    "cluster.ring.lookups_per_s": (ring_lookups, "1/s"),
    "lsm.block.build_mb_per_s": (lsm_block_build, "MB/s"),
}


def run_microbenches(seconds_each: float) -> dict[str, float]:
    """Every microbench for about ``seconds_each``; median rate of REPS."""
    rates = {}
    for metric, (bench, _unit) in MICROBENCHES.items():
        call, units = bench()
        call()  # warm caches and lazy imports outside the timed repetitions
        samples = []
        for _ in range(REPS):
            calls, t0 = 0, time.perf_counter()
            deadline = t0 + seconds_each / REPS
            while True:
                call()
                calls += 1
                now = time.perf_counter()
                if now >= deadline:
                    break
            samples.append(units * calls / (now - t0))
        rates[metric] = sorted(samples)[REPS // 2]
    return rates
