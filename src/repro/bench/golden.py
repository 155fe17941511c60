"""Golden-clock fingerprints: the simulator's determinism contract as data.

Every optimisation of the simulation kernel (event coalescing, object
pooling, vectorized cost math) must be *invisible* on the virtual clock:
``env.now`` checkpoints, PCIe link bytes, SSD I/O counters, and query
results have to come out bit-identical to the unoptimised reference.  This
module runs a battery of small deterministic workloads — serial and sharded
compaction, offloaded queries with blooms, the async QD>1 host path, and
the RocksDB-style baseline — and reduces each to a JSON-able fingerprint:

* every simulated-clock checkpoint is recorded as ``float.hex()`` so the
  comparison is exact, not approximate;
* byte outputs (GET values, PIDX pivots) are folded into sha256 digests;
* monotonic counters (link bytes, NAND I/O, device stat counters) are
  recorded directly.

The six KV-CSD workloads take the ``observe(testbed)`` hook every registry
scenario takes and call it on their testbed as soon as it is built; the
cluster and baseline workloads run unobserved.  Observing is free on the
virtual clock: with all five observers installed (trace, a started
timeline, explain, journal and audit) every fingerprint stays the same.

``tests/sim/test_golden_clock.py`` compares fresh fingerprints against
``tests/sim/golden_clock.json``, which was captured from the pre-fast-path
kernel, unobserved and with every observer.  Regenerate with::

    PYTHONPATH=src python tests/sim/test_golden_clock.py > tests/sim/golden_clock.json

but only when a change is *supposed* to move the virtual clock (e.g. a new
cost model) — never to paper over an optimisation that reordered events.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.bench.calibration import build_kvcsd_testbed, build_rocksdb_testbed
from repro.bench.query import _collect_results
from repro.bench.report import device_stats, unobserved
from repro.nvme.kv_commands import KvGetCmd
from repro.units import MiB
from repro.workloads import (
    SyntheticSpec,
    ZipfSampler,
    generate_pairs,
    get_phase,
    load_phase,
    run_phase,
)

__all__ = ["GOLDEN_WORKLOADS"]


# ---------------------------------------------------------------- helpers
def _hx(value: float) -> str:
    """Exact, JSON-safe rendering of a simulated-clock value."""
    return float(value).hex()


def _digest(parts: list[bytes]) -> str:
    """Order-sensitive digest of a list of byte strings (None allowed)."""
    h = hashlib.sha256()
    for part in parts:
        if part is None:
            h.update(b"\x00<none>\x00")
        else:
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()[:24]


def _jsonable(obj: Any) -> Any:
    """Counters/reports with floats rendered exactly, recursively."""
    if isinstance(obj, float):
        return _hx(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bytes):
        return _digest([obj])
    return obj


def _io_fp(kv) -> dict:
    s = kv.ssd.stats
    return {
        "bytes_written": s.bytes_written,
        "bytes_read": s.bytes_read,
        "write_ops": s.write_ops,
        "read_ops": s.read_ops,
        "erase_ops": s.erase_ops,
    }


def _counters(kv, device: bool = True) -> dict:
    """A KV-CSD fingerprint's tail: NAND I/O, PCIe link and, with
    ``device``, the device's own counters."""
    link = kv.link
    out = {
        "io": _io_fp(kv),
        "link": {
            "bytes_tx": link.bytes_tx,
            "bytes_rx": link.bytes_rx,
            "ops_tx": link.ops_tx,
            "ops_rx": link.ops_rx,
        },
    }
    if device:
        out["device_stats"] = _jsonable(device_stats(kv.device))
    return out


def _pidx_fp(device, name: str) -> dict:
    sketch = device.keyspaces[name].pidx_sketch
    return {
        "pivots": _digest(list(sketch.pivots)),
        "block_pointers": _digest(
            [repr(p).encode() for p in sketch.block_pointers]
        ),
        "n_blocks": len(sketch.block_pointers),
    }


def _pairs(n_pairs: int, seed: int):
    return generate_pairs(
        SyntheticSpec(n_pairs=n_pairs, key_bytes=16, value_bytes=32, seed=seed)
    )


def _run_gets(kv, name: str, keys, ctx) -> list[bytes]:
    out = []

    def body():
        for key in keys:
            out.append((yield from kv.client.get(name, key, ctx)))

    kv.env.run(kv.env.process(body()))
    return out


# ---------------------------------------------------------------- workloads
def _fp_compaction(shards: int, observe=unobserved) -> dict:
    """Load + device compaction (serial or sharded) + point GETs."""
    pairs = _pairs(4096, seed=35)
    kv = build_kvcsd_testbed(
        seed=35,
        compaction_shards=shards,
        block_cache_bytes=2 * MiB if shards > 1 else 0,
    )
    observe(kv)
    fp: dict = {}
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])
    fp["now_after_load"] = _hx(kv.env.now)

    kv.run(kv.adapter.prepare_queries("ks", kv.thread_ctx(0)))
    fp["now_after_compaction"] = _hx(kv.env.now)
    fp["compaction_seconds"] = _hx(kv.device.job_durations[("ks", "compaction")])
    fp["pidx"] = _pidx_fp(kv.device, "ks")

    rng = np.random.default_rng(35)
    if shards > 1:
        sampler = ZipfSampler(len(pairs), theta=0.99, rng=rng)
        keys = [pairs[r][0] for r in sampler.sample(256)] * 2
    else:
        keys = [pairs[i][0] for i in rng.integers(0, len(pairs), size=64)]
    values = _run_gets(kv, "ks", keys, kv.thread_ctx(1))
    fp["now_after_gets"] = _hx(kv.env.now)
    fp["get_values"] = _digest(values)
    if kv.device.block_cache is not None:
        fp["block_cache"] = _jsonable(kv.device.block_cache.report())
    fp["soc_busy"] = [_hx(b) for b in kv.board.cpu.busy_time]
    fp.update(_counters(kv))
    return fp


def _fp_query_offload(observe=unobserved) -> dict:
    """Multi-threaded GETs + absent probes + mixed queries, 4 workers/blooms."""
    pairs = _pairs(2048, seed=41)
    kv = build_kvcsd_testbed(seed=41, query_workers=4, bloom_bits_per_key=10)
    observe(kv)
    fp: dict = {}
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])

    kv.run(kv.adapter.prepare_queries("ks", kv.thread_ctx(0)))
    fp["now_after_prepare"] = _hx(kv.env.now)

    rng = np.random.default_rng(41)
    picks = rng.integers(0, len(pairs), size=4 * 48)
    get_keys = [pairs[i][0] for i in picks]
    per = len(get_keys) // 4
    report = get_phase(
        kv.env,
        kv.adapter,
        [
            ("ks", get_keys[t * per : (t + 1) * per], kv.thread_ctx(t))
            for t in range(4)
        ],
    )
    fp["threaded_get_seconds"] = _hx(report.seconds)
    fp["now_after_threaded_gets"] = _hx(kv.env.now)

    absent = [pairs[i][0][:-1] + b"\xff"
              for i in rng.integers(0, len(pairs), size=128)]
    get_phase(kv.env, kv.adapter, [("ks", absent, kv.thread_ctx(0))],
              expect_found=False)
    fp["now_after_absent_gets"] = _hx(kv.env.now)

    sorted_keys = sorted(k for k, _ in pairs)
    lo, hi = sorted_keys[len(pairs) // 3], sorted_keys[2 * len(pairs) // 3]
    sample = [pairs[i][0] for i in picks[:64]]
    out = _collect_results(kv, sample, lo, hi)
    fp["now_after_mixed"] = _hx(kv.env.now)
    fp["gets"] = _digest(out["gets"])
    fp["multi"] = _digest([k + (v or b"") for k, v in out["multi"]])
    fp["range"] = _digest([k + v for k, v in out["range"]])
    fp.update(_counters(kv))
    return fp


def _fp_async_qd(observe=unobserved) -> dict:
    """Single host thread at QD=16 over the async SQ/CQ path."""
    pairs = _pairs(1024, seed=47)
    kv = build_kvcsd_testbed(seed=47, query_workers=4, queue_depth=16)
    observe(kv)
    fp: dict = {}
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])

    kv.run(kv.adapter.prepare_queries("ks", kv.thread_ctx(0)))
    fp["now_after_prepare"] = _hx(kv.env.now)

    rng = np.random.default_rng(47)
    get_keys = [pairs[i][0] for i in rng.integers(0, len(pairs), size=256)]
    t0 = kv.env.now
    completions: list = []

    def get_driver():
        ctx = kv.thread_ctx(0)
        commands = [KvGetCmd(keyspace="ks", key=k) for k in get_keys]
        completions.extend((yield from kv.client.submit_many(commands, ctx)))

    kv.env.run(kv.env.process(get_driver()))
    fp["qd_get_seconds"] = _hx(kv.env.now - t0)
    fp["qd_get_values"] = _digest([c.value for c in completions])
    fp["qd_get_ok"] = all(c.ok for c in completions)

    put_pairs = [(b"p-" + pairs[i][0], pairs[i][1])
                 for i in rng.integers(0, len(pairs), size=128)]
    t0 = kv.env.now

    def put_driver():
        ctx = kv.thread_ctx(0)
        yield from kv.client.create_keyspace("qd-put", ctx)
        yield from kv.client.open_keyspace("qd-put", ctx)
        tickets = []
        for key, value in put_pairs:
            tickets.append(
                (yield from kv.client.put_async("qd-put", key, value, ctx))
            )
        for ticket in tickets:
            yield from kv.client.wait(ticket, ctx)
        yield from kv.client.fsync("qd-put", ctx)

    kv.env.run(kv.env.process(put_driver()))
    fp["qd_put_seconds"] = _hx(kv.env.now - t0)
    fp["now_after_puts"] = _hx(kv.env.now)
    fp["queue_state"] = _jsonable(kv.client.qp.introspect())
    fp.update(_counters(kv, device=False))
    return fp


def _fp_mixed_contention(observe=unobserved) -> dict:
    """4 threads of interleaved sync GETs + delta-keyspace PUTs.

    The YCSB-style mix from the scale bench in miniature: concurrent point
    GETs contend on NAND channels, the PCIe link, and SoC cores while
    sibling threads append to writable delta keyspaces.  This shape is
    deliberately in the battery because it exposed an order sensitivity the
    other workloads missed — a synchronous resource grant that skips the
    grant event hands its occupancy timeout an earlier event counter than
    the reference kernel's, reordering same-instant wakeups.
    """
    pairs = _pairs(2048, seed=53)
    kv = build_kvcsd_testbed(seed=53, query_workers=2)
    observe(kv)
    fp: dict = {}
    per = len(pairs) // 2
    slices = [pairs[:per], pairs[per:]]
    load_phase(
        kv.env,
        kv.adapter,
        [(f"ks{i}", s, kv.thread_ctx(i)) for i, s in enumerate(slices)],
    )

    def ready(i: int):
        yield from kv.adapter.prepare_queries(f"ks{i}", kv.thread_ctx(i))

    run_phase(kv.env, [ready(i) for i in range(2)])
    fp["now_after_prepare"] = _hx(kv.env.now)

    def make_delta(t: int):
        yield from kv.adapter.create_container(f"delta{t}", kv.thread_ctx(t))

    run_phase(kv.env, [make_delta(t) for t in range(4)])
    values: dict[int, list] = {t: [] for t in range(4)}

    def worker(t: int):
        i = t % 2
        ks_pairs = slices[i]
        ctx = kv.thread_ctx(t)
        rng = np.random.default_rng(53 + 101 * t)
        sampler = ZipfSampler(len(ks_pairs), theta=0.99, rng=rng)
        picks = sampler.sample(96)
        is_read = rng.random(96) < 0.8
        for pick, read in zip(picks.tolist(), is_read.tolist()):
            key, value = ks_pairs[pick]
            if read:
                values[t].append((yield from kv.adapter.get(f"ks{i}", key, ctx)))
            else:
                yield from kv.adapter.insert(
                    f"delta{t}", [(key, b"u" + value[1:])], ctx
                )

    run_phase(kv.env, [worker(t) for t in range(4)])
    fp["now_after_mixed"] = _hx(kv.env.now)
    for t in range(4):
        fp[f"values_t{t}"] = _digest(values[t])
    fp.update(_counters(kv))
    return fp


def _fp_cluster_router() -> dict:
    """2-device cluster router: fan-out GETs, scatter scans, ordered merge.

    Pins the scale-out determinism contract: consistent-hash placement,
    per-device name-seeded RNG streams, router fan-out/merge order, and the
    per-device execution contexts must all be byte-stable — per-device I/O
    and fabric counters are fingerprinted separately so a placement drift
    names the device it moved.
    """
    from repro.cluster import build_cluster_testbed

    pairs = _pairs(1024, seed=59)
    tb = build_cluster_testbed(n_devices=2, seed=59)
    fp: dict = {}
    per = len(pairs) // 2
    slices = [pairs[:per], pairs[per:]]
    load_phase(
        tb.env,
        tb.adapter,
        [(f"cks{i}", s, tb.thread_ctx(i)) for i, s in enumerate(slices)],
    )
    fp["now_after_load"] = _hx(tb.env.now)

    def ready(i: int):
        yield from tb.adapter.prepare_queries(f"cks{i}", tb.thread_ctx(i))

    run_phase(tb.env, [ready(i) for i in range(2)])
    fp["now_after_prepare"] = _hx(tb.env.now)

    rng = np.random.default_rng(59)
    picks = rng.integers(0, per, size=192).tolist()
    completions: list = []

    def driver():
        ctx = tb.thread_ctx(0)
        commands = [
            KvGetCmd(keyspace=f"cks{i % 2}", key=slices[i % 2][p][0])
            for i, p in enumerate(picks)
        ]
        completions.extend((yield from tb.router.submit_many(commands, ctx)))

    tb.env.run(tb.env.process(driver()))
    fp["now_after_submit_many"] = _hx(tb.env.now)
    fp["get_values"] = _digest([c.value for c in completions])
    fp["gets_ok"] = all(c.ok for c in completions)

    sorted_keys = sorted(k for k, _ in slices[0])
    lo, hi = sorted_keys[per // 3], sorted_keys[2 * per // 3]
    out: dict = {}

    def scans():
        rows = yield from tb.router.range_query("cks0", lo, hi, tb.thread_ctx(1))
        out["range"] = [k + v for k, v in rows]
        multi = yield from tb.router.multi_get(
            "cks1", [k for k, _ in slices[1][::17]], tb.thread_ctx(2)
        )
        out["multi"] = [k + (v or b"") for k, v in sorted(multi.items())]

    tb.env.run(tb.env.process(scans()))
    fp["now_after_scans"] = _hx(tb.env.now)
    fp["range"] = _digest(out["range"])
    fp["multi"] = _digest(out["multi"])
    for node in tb.nodes:
        fp[f"{node.name}_io"] = _io_fp(node)
        fp[f"{node.name}_link"] = {
            "bytes_tx": node.link.bytes_tx,
            "bytes_rx": node.link.bytes_rx,
        }
    fp["router_counters"] = dict(tb.router.counters)
    return fp


def _fp_crash_recovery(observe=unobserved) -> dict:
    """Durable metadata + staged mount: power cycle mid-life, then serve.

    Pins the durability determinism contract: the v2 metadata checkpoint
    stream, the bloom annex, and the five-stage ``recover()`` pipeline must
    replay to the same virtual-clock checkpoints and the same bytes every
    run.  A compacted keyspace and a writable delta keyspace are built, the
    testbed power-cycles (DRAM gone, NAND intact — the same remount recipe
    the crash campaign uses), and the mounted device serves GETs whose
    values are digest-pinned along with per-stage mount timings.
    """
    from repro.errors import KeyNotFoundError

    pairs = _pairs(2048, seed=61)
    delta = [(b"d-" + k, v) for k, v in pairs[:256]]
    kv = build_kvcsd_testbed(seed=61, bloom_bits_per_key=10)
    observe(kv)
    fp: dict = {}
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])
    fp["now_after_load"] = _hx(kv.env.now)

    def ready():
        yield from kv.adapter.prepare_queries("ks", kv.thread_ctx(0))
        # a writable delta keyspace exercises the KLOG rescan stage
        yield from kv.client.create_keyspace("delta", kv.thread_ctx(0))
        yield from kv.client.open_keyspace("delta", kv.thread_ctx(0))
        yield from kv.client.bulk_put("delta", delta, kv.thread_ctx(0))
        yield from kv.client.fsync("delta", kv.thread_ctx(0))
        # a dropped keyspace forces an A/B metadata checkpoint (epoch bump)
        yield from kv.client.create_keyspace("scratch", kv.thread_ctx(0))
        yield from kv.client.open_keyspace("scratch", kv.thread_ctx(0))
        yield from kv.client.bulk_put("scratch", delta[:32], kv.thread_ctx(0))
        yield from kv.client.fsync("scratch", kv.thread_ctx(0))
        yield from kv.client.delete_keyspace("scratch", kv.thread_ctx(0))

    kv.env.run(kv.env.process(ready()))
    fp["now_after_prepare"] = _hx(kv.env.now)
    fp["meta_epoch_before"] = kv.device.introspect()["metadata_zone"]["epoch"]

    # Power cycle: a fresh SoC + device mount the same (non-volatile) flash.
    fp["mount_seconds"] = _hx(kv.power_cycle())
    snap = kv.device.introspect()
    fp["mount_stages"] = _jsonable(snap["mount_stages"])
    fp["meta_epoch_after"] = snap["metadata_zone"]["epoch"]

    rng = np.random.default_rng(61)
    keys = [pairs[i][0] for i in rng.integers(0, len(pairs), size=96)]
    keys += [delta[i][0] for i in rng.integers(0, len(delta), size=32)]
    names = ["ks"] * 96 + ["delta"] * 32
    out: list = []

    def serve():
        # a recovered writable keyspace compacts from its rescanned KLOG
        yield from kv.client.compact("delta", kv.thread_ctx(0))
        yield from kv.client.wait_for_device("delta", kv.thread_ctx(0))
        for name, key in zip(names, keys):
            out.append((yield from kv.client.get(name, key, kv.thread_ctx(1))))
        # absent probes prove the annex-reloaded blooms still filter
        for i in rng.integers(0, len(pairs), size=64):
            missing = pairs[i][0][:-1] + b"\xff"
            try:
                yield from kv.client.get("ks", missing, kv.thread_ctx(1))
            except KeyNotFoundError:
                continue
            raise AssertionError("absent probe unexpectedly found a value")

    kv.env.run(kv.env.process(serve()))
    fp["now_after_recovered_gets"] = _hx(kv.env.now)
    fp["get_values"] = _digest(out)
    fp.update(_counters(kv))
    return fp


def _fp_lsm_baseline() -> dict:
    """The RocksDB-style baseline: memtable flushes + compaction + GETs."""
    pairs = _pairs(1024, seed=7)
    data_bytes = len(pairs) * (16 + 32)
    rocks = build_rocksdb_testbed(seed=7, n_test_threads=2, data_bytes=data_bytes)
    fp: dict = {}
    load_phase(rocks.env, rocks.adapter, [("db", pairs, rocks.thread_ctx(0))])
    fp["now_after_load"] = _hx(rocks.env.now)

    rng = np.random.default_rng(7)
    keys = [pairs[i][0] for i in rng.integers(0, len(pairs), size=128)]
    report = get_phase(rocks.env, rocks.adapter, [("db", keys, rocks.thread_ctx(1))])
    fp["get_seconds"] = _hx(report.seconds)
    fp["now_after_gets"] = _hx(rocks.env.now)
    fp["io"] = {
        "bytes_written": rocks.ssd.stats.bytes_written,
        "bytes_read": rocks.ssd.stats.bytes_read,
        "write_ops": rocks.ssd.stats.write_ops,
        "read_ops": rocks.ssd.stats.read_ops,
    }
    return fp


#: name -> callable producing that workload's fingerprint; the six KV-CSD
#: workloads take ``observe``, called on their testbed once it is built
GOLDEN_WORKLOADS = {
    "serial_compaction": lambda observe=unobserved: _fp_compaction(1, observe),
    "sharded_compaction": lambda observe=unobserved: _fp_compaction(4, observe),
    "query_offload": _fp_query_offload,
    "async_qd16": _fp_async_qd,
    "mixed_contention": _fp_mixed_contention,
    "cluster_router_2dev": _fp_cluster_router,
    "crash_recovery": _fp_crash_recovery,
    "lsm_baseline": _fp_lsm_baseline,
}
