"""The six benchmark workloads.

Every workload is a closed loop: N simulated client threads that each wait
for their reply before sending the next request, driven from one OS thread.
A workload instance is one *round*: ``setup()`` generates the inputs from
the seed and builds (and, for read workloads, preloads) a fresh testbed,
``run()`` is the host-timed region, ``check()`` reads results back and
audits the queue pairs.  Every value the store returns is compared with a
dict built from the generated inputs; each mismatch counts in ``failed``.

The store is driven only through public functions (testbed builders,
adapters, ``KvCsdClient``/``ClusterRouter`` methods, ``introspect()`` /
``report()``); nothing here reads a private attribute of ``repro``.
"""

from __future__ import annotations

import contextlib
import struct
import zlib
from dataclasses import replace

import numpy as np

from repro.bench import (
    TABLE1_CSD,
    bench_db_options,
    bench_geometry,
    build_kvcsd_testbed,
    build_rocksdb_testbed,
)
from repro.cluster import build_cluster_testbed
from repro.nvme.kv_commands import KvGetCmd
from repro.obs.audit import check_queue_pair_accounting
from repro.obs.critpath import install_critpath
from repro.obs.journal import install_journal
from repro.units import KiB, MiB
from repro.workloads import (
    ENERGY_DTYPE,
    ENERGY_OFFSET,
    ENERGY_WIDTH,
    SyntheticSpec,
    VpicDataset,
    VpicSpec,
    ZipfSampler,
    generate_pairs,
    run_phase,
)

#: The one KV-CSD configuration every KV-CSD workload runs (the
#: full-featured path); there is deliberately no per-workload knob.
KVCSD_CONFIG = {
    "query_workers": 4,
    "compaction_shards": 4,
    "block_cache_bytes": 1 * MiB,
    "bloom_bits_per_key": 10,
    "durable_meta": True,
}
SOC = replace(TABLE1_CSD, **KVCSD_CONFIG)
MEMBUF_BYTES = 1 * MiB
BULK_MESSAGE_BYTES = 256 * KiB
#: ``--seed`` feeds the input generators only; the device model's own RNG
#: (zone placement) is pinned so virtual metrics compare across seeds.
TESTBED_SEED = 53
KEY_BYTES = 16
VALUE_BYTES = 64
READ_FRACTION = 0.95
ZIPF_THETA = 0.99
#: ``--smoke`` divides every nominal size by this
SMOKE_DIVISOR = 8
ENERGY = struct.Struct("<f")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def updated_value(value: bytes) -> bytes:
    return b"u" + value[1:]


class Scenario:
    """One round of one workload; subclasses fill setup/run/check."""

    name = ""
    why = ""
    #: name of the workload whose model metrics this one must reproduce
    reference: str | None = None
    #: nominal sizes at full scale; the actual pair count is drawn from the
    #: seed within 0.4 % below nominal so no two seeds give the same totals
    nominal: dict[str, int] = {}

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.divisor = SMOKE_DIVISOR if smoke else 1
        self.sizes: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.get_latencies: list[float] = []
        self.put_pairs = 0
        self.put_seconds = 0.0
        self.compact_seconds = 0.0
        self.user_bytes = 0
        self.updates = 0
        self.read_units = 0
        self.read_seconds = 0.0
        self.read_flash_bytes = 0
        self.returned_bytes = 0
        #: pairs indexed per virtual second; only vpic_query builds an index
        self.sidx_build_kops_per_s = 0.0

    # -- inputs ------------------------------------------------------------
    def rng(self, *tag: int) -> np.random.Generator:
        """An input stream of this workload, independent per ``tag``.

        A workload with a ``reference`` draws the reference's streams.
        """
        stream = zlib.crc32((self.reference or self.name).encode())
        return np.random.default_rng([self.seed, stream, *tag])

    def size(self, key: str, scaled: bool = True, jitter: bool = False) -> int:
        """Record and return one size; ``--smoke`` shrinks the scaled ones."""
        n = self.nominal[key]
        if scaled:
            n = max(1, n // self.divisor)
        if jitter:
            n -= int(self.rng(0).integers(0, max(1, n // 256)))
        self.sizes[key] = n
        return n

    def synthetic_slices(self, n_pairs: int, n_slices: int):
        pairs = generate_pairs(
            SyntheticSpec(n_pairs, KEY_BYTES, VALUE_BYTES, seed=self.seed)
        )
        per = n_pairs // n_slices
        return [
            pairs[i * per : (i + 1) * per if i < n_slices - 1 else None]
            for i in range(n_slices)
        ]

    def zipf_picks(self, universe: int, count: int, *tag: int) -> list[int]:
        return ZipfSampler(universe, ZIPF_THETA, self.rng(*tag)).sample(count).tolist()

    # -- the store under test ---------------------------------------------
    tb = None

    def kvcsd(self):
        return build_kvcsd_testbed(
            seed=TESTBED_SEED,
            soc=SOC,
            membuf_bytes=MEMBUF_BYTES,
            bulk_message_bytes=BULK_MESSAGE_BYTES,
        )

    def ssds(self):
        return [self.tb.ssd]

    def queue_pairs(self):
        return [self.tb.client.qp]

    def flash_io(self) -> dict[str, int]:
        total = {"bytes_read": 0, "bytes_written": 0, "read_ops": 0, "write_ops": 0}
        for ssd in self.ssds():
            stats = ssd.stats
            for key in total:
                total[key] += getattr(stats, key)
        return total

    # -- phases ------------------------------------------------------------
    def expect(self, ok: bool, count: int = 1) -> None:
        """Account ``count`` checked results, failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count

    def load(self, assignments, batch_pairs: int = 2048) -> None:
        """Create, bulk-insert, finish and wait until queryable.

        ``repro.workloads.load_phase`` with the clock read between its
        steps, which it does not expose: the baseline waits for compaction
        inside ``finish_load``, KV-CSD inside ``prepare_queries``.
        ``put_seconds`` is the paper's insertion time (create + insert +
        ``finish_load``); ``compact_seconds`` runs from the last insert
        until every container answers queries.
        """
        env, adapter = self.tb.env, self.tb.adapter
        t0 = env.now
        run_phase(env, [adapter.create_container(n, c) for n, _p, c in assignments])

        def insert(name, pairs, ctx):
            for start in range(0, len(pairs), batch_pairs):
                yield from adapter.insert(name, pairs[start : start + batch_pairs], ctx)

        run_phase(env, [insert(*a) for a in assignments])
        t1 = env.now
        run_phase(env, [adapter.finish_load(n, c) for n, _p, c in assignments])
        t2 = env.now
        run_phase(env, [adapter.prepare_queries(n, c) for n, _p, c in assignments])
        self.put_seconds += t2 - t0
        self.compact_seconds += env.now - t1
        for _name, pairs, _ctx in assignments:
            self.put_pairs += len(pairs)
            # every generated pair of one container has the same size
            self.user_bytes += len(pairs) * (len(pairs[0][0]) + len(pairs[0][1]))

    @contextlib.contextmanager
    def reading(self):
        """A read phase: accumulates its virtual seconds and flash reads."""
        t0, flash0 = self.tb.env.now, self.flash_io()["bytes_read"]
        yield
        self.read_seconds += self.tb.env.now - t0
        self.read_flash_bytes += self.flash_io()["bytes_read"] - flash0

    def got(self, value, expected: bytes) -> None:
        """Account one point read."""
        self.expect(value == expected)
        self.read_units += 1
        self.returned_bytes += len(value) if value is not None else 0

    def timed_get(self, name, key, expected, ctx):
        env = self.tb.env
        t0 = env.now
        got = yield from self.tb.adapter.get(name, key, ctx)
        self.get_latencies.append(env.now - t0)
        self.got(got, expected)

    def get_thread(self, name, pairs, picks, ctx):
        """Closed-loop GETs of ``pairs[p]`` for p in picks, timed per op."""
        for p in picks:
            yield from self.timed_get(name, *pairs[p], ctx)

    def mixed_thread(self, name, delta, pairs, picks, is_read, ctx, updated):
        """95/5 loop: GETs on the sealed base, updates into ``delta``.

        A compacted keyspace refuses writes, so updates append to a
        per-thread delta keyspace — the device's pattern for amending
        published data; ``check_updates`` reads them back.
        """
        for p, read in zip(picks, is_read):
            key, value = pairs[p]
            if read:
                yield from self.timed_get(name, key, value, ctx)
            else:
                new = updated_value(value)
                yield from self.tb.adapter.insert(delta, [(key, new)], ctx)
                updated[key] = new
                self.updates += 1
                self.user_bytes += len(key) + len(new)

    def check_updates(self, deltas) -> None:
        """Seal each delta keyspace and read every update back."""
        env, adapter = self.tb.env, self.tb.adapter

        def verify(delta, updated, ctx):
            if not updated:
                return
            yield from adapter.finish_load(delta, ctx)
            yield from adapter.prepare_queries(delta, ctx)
            for key, expected in updated.items():
                got = yield from adapter.get(delta, key, ctx)
                self.got(got, expected)

        with self.reading():
            run_phase(env, [verify(*d) for d in deltas])

    def check_accounting(self) -> None:
        for qp in self.queue_pairs():
            self.expect(not check_queue_pair_accounting(qp))

    # -- results -----------------------------------------------------------
    def work(self) -> int:
        """Client-visible records moved so far (the "op" of events per op)."""
        return self.put_pairs + self.updates + self.read_units

    def virt(self) -> dict[str, float]:
        """The model-clock end-to-end metrics of this round."""
        latencies = sorted(self.get_latencies)
        flash = self.flash_io()
        return {
            "virt_put_kops_per_s": self.put_pairs / self.put_seconds / 1e3,
            "virt_compact_s": self.compact_seconds,
            # the median of a simulated GET is one constant per code path;
            # the mean moves with the hit rate and with queueing
            "virt_get_mean_us": sum(latencies) / len(latencies) * 1e6,
            "virt_get_p99_us": percentile(latencies, 99) * 1e6,
            "virt_read_kops_per_s": self.read_units / self.read_seconds / 1e3,
            "virt_write_amp": flash["bytes_written"] / self.user_bytes,
            "virt_read_amp": self.read_flash_bytes / self.returned_bytes,
        }

    def counts(self) -> dict[str, float]:
        """Model counts read through ``introspect()``/``report()``."""
        flash = self.flash_io()
        qps = [qp.introspect() for qp in self.queue_pairs()]
        return {
            "ssd.bytes_written": flash["bytes_written"],
            "ssd.bytes_read": flash["bytes_read"],
            "ssd.write_ops": flash["write_ops"],
            "ssd.read_ops": flash["read_ops"],
            "nvme.kvqp.submitted": sum(q["submitted"] for q in qps),
            "nvme.kvqp.errors": sum(q["errors"] for q in qps),
            "virt_sidx_build_kops_per_s": self.sidx_build_kops_per_s,
            **self.layer_counts(),
        }

    def devices(self):
        return [self.tb.device]

    def layer_counts(self) -> dict[str, float]:
        caches = [d.block_cache.report() for d in self.devices()]
        lookups = sum(c["hits"] + c["misses"] for c in caches)
        return {
            "core.block_cache.hit_rate": (
                sum(c["hits"] for c in caches) / lookups if lookups else 0.0
            ),
            "core.block_cache.evictions": sum(c["evictions"] for c in caches),
            "core.query.admitted": sum(
                d.query_scheduler.introspect()["admitted"] for d in self.devices()
            ),
        }


class IngestCompact(Scenario):
    name = "ingest_compact"
    why = (
        "bulk PUT + deferred compaction of 100k pairs, few simulator events: "
        "time is in core.device/codec/sort, so array-based compaction shows "
        "here and kernel work must not"
    )
    nominal = {"pairs": 100_000, "threads": 4, "check_gets": 2_048}

    def setup(self) -> None:
        threads = self.size("threads", scaled=False)
        self.slices = self.synthetic_slices(self.size("pairs", jitter=True), threads)
        per = self.size("check_gets") // threads
        self.picks = [
            self.rng(1, t).integers(0, len(s), per).tolist()
            for t, s in enumerate(self.slices)
        ]
        self.tb = self.kvcsd()

    def run(self) -> None:
        tb = self.tb
        self.load(
            [(f"ks{t}", s, tb.thread_ctx(t)) for t, s in enumerate(self.slices)]
        )

    def check(self) -> None:
        tb = self.tb

        def count(t, pairs):
            stat = yield from tb.client.keyspace_stat(f"ks{t}", tb.thread_ctx(t))
            self.expect(stat["n_pairs"] == len(pairs), len(pairs))

        run_phase(tb.env, [count(t, s) for t, s in enumerate(self.slices)])
        with self.reading():
            run_phase(
                tb.env,
                [
                    self.get_thread(f"ks{t}", s, self.picks[t], tb.thread_ctx(t))
                    for t, s in enumerate(self.slices)
                ],
            )
        self.check_accounting()


class PointRead(Scenario):
    name = "point_read"
    why = (
        "6k zipfian 95/5 GET/PUT ops on 64k pairs, 4.9x the block cache, ~50 "
        "events per op: the per-op overhead workload (kernel, queue pairs, "
        "dispatcher, scheduler); compaction is in set-up only"
    )
    nominal = {"pairs": 64_000, "threads": 4, "ops": 6_000}
    observed = False

    def setup(self) -> None:
        threads = self.size("threads", scaled=False)
        self.slices = self.synthetic_slices(self.size("pairs", jitter=True), threads)
        per = self.size("ops") // threads
        self.streams = [
            (
                self.zipf_picks(len(s), per, 1, t),
                (self.rng(2, t).random(per) < READ_FRACTION).tolist(),
            )
            for t, s in enumerate(self.slices)
        ]
        self.updated = [{} for _ in self.slices]
        tb = self.tb = self.kvcsd()
        if self.observed:
            install_journal(tb.env)
            tb.enable_timeline(retain_spans=False)
            install_critpath(tb.env, tracer=tb.env.tracer)
        self.load(
            [(f"ks{t}", s, tb.thread_ctx(t)) for t, s in enumerate(self.slices)]
        )
        run_phase(
            tb.env,
            [
                tb.adapter.create_container(f"ks{t}-delta", tb.thread_ctx(t))
                for t in range(threads)
            ],
        )

    def run(self) -> None:
        tb = self.tb
        with self.reading():
            run_phase(
                tb.env,
                [
                    self.mixed_thread(
                        f"ks{t}", f"ks{t}-delta", s, *self.streams[t],
                        tb.thread_ctx(t), self.updated[t],
                    )
                    for t, s in enumerate(self.slices)
                ],
            )

    def check(self) -> None:
        tb = self.tb
        self.check_updates(
            [
                (f"ks{t}-delta", self.updated[t], tb.thread_ctx(t))
                for t in range(len(self.slices))
            ]
        )
        self.check_accounting()


class ObservedRead(PointRead):
    name = "observed_read"
    why = (
        "point_read's exact op stream with journal, tracer+timeline and "
        "critical-path observers installed: prices the observers; its model "
        "metrics must equal point_read's"
    )
    observed = True
    reference = PointRead.name


class VpicQuery(Scenario):
    name = "vpic_query"
    why = (
        "secondary-index build, selectivity sweep and primary range scans "
        "over 65k VPIC particles: reads by scan, bypasses the point path, so "
        "a point-read gain that costs scans shows here"
    )
    nominal = {
        "particles_per_file": 4_096,
        "files": 16,
        "scans_per_thread": 24,
        "scan_keys": 256,
        "check_gets": 2_048,
    }
    selectivities = (0.001, 0.005, 0.01, 0.05, 0.1, 0.2)

    def setup(self) -> None:
        files = self.size("files", scaled=False)
        per_file = self.size("particles_per_file", jitter=True)
        self.dataset = VpicDataset(VpicSpec(per_file * files, files, seed=self.seed))
        self.files = [self.dataset.file_particles(t) for t in range(files)]
        self.oracle = [dict(f) for f in self.files]
        self.sorted_keys = [sorted(o) for o in self.oracle]
        span = min(self.size("scan_keys", scaled=False), per_file - 1)
        self.scans = [
            [
                (int(start), int(start) + span)
                for start in self.rng(1, t).integers(
                    0, per_file - span, self.size("scans_per_thread")
                )
            ]
            for t in range(files)
        ]
        per = self.size("check_gets") // files
        self.picks = [
            self.rng(2, t).integers(0, per_file, per).tolist() for t in range(files)
        ]
        tb = self.tb = self.kvcsd()
        self.load(
            [(f"vpic-{t}", f, self.ctx(t)) for t, f in enumerate(self.files)]
        )

    def ctx(self, t: int):
        return self.tb.thread_ctx(t % self.tb.host.n_cores)

    def sidx_query(self, t: int, lo: bytes, hi: bytes, threshold, hits: list[int]):
        rows = yield from self.tb.client.sidx_range_query(
            f"vpic-{t}", "energy", lo, hi, self.ctx(t)
        )
        oracle = self.oracle[t]
        ok = all(
            oracle.get(key) == value
            and ENERGY.unpack_from(value, ENERGY_OFFSET)[0] >= threshold
            for key, value in rows
        )
        hits.append(len(rows))
        self.expect(ok, max(1, len(rows)))
        self.scanned(rows)

    def scanned(self, rows) -> None:
        self.read_units += len(rows)
        self.returned_bytes += sum(len(k) + len(v) for k, v in rows)

    def scan_thread(self, t: int):
        keys, oracle = self.sorted_keys[t], self.oracle[t]
        for start, stop in self.scans[t]:
            rows = yield from self.tb.adapter.scan(
                f"vpic-{t}", keys[start], keys[stop], self.ctx(t)
            )
            self.expect(rows == [(k, oracle[k]) for k in keys[start:stop]], stop - start)
            self.scanned(rows)

    def run(self) -> None:
        tb, n = self.tb, len(self.files)

        def build(t):
            yield from tb.client.build_secondary_index(
                f"vpic-{t}", "energy", value_offset=ENERGY_OFFSET,
                width=ENERGY_WIDTH, dtype=ENERGY_DTYPE, ctx=self.ctx(t),
            )
            yield from tb.client.wait_for_device(f"vpic-{t}", self.ctx(t))

        t0 = tb.env.now
        run_phase(tb.env, [build(t) for t in range(n)])
        self.sidx_build_kops_per_s = self.put_pairs / (tb.env.now - t0) / 1e3
        with self.reading():
            for selectivity in self.selectivities:
                threshold = self.dataset.energy_threshold(selectivity)
                lo, hi = VpicDataset.energy_query_bounds(threshold)
                hits: list[int] = []
                run_phase(
                    tb.env,
                    [
                        self.sidx_query(t, lo, hi, np.float32(threshold), hits)
                        for t in range(n)
                    ],
                )
                self.expect(sum(hits) == self.dataset.particles_above(threshold))
            run_phase(tb.env, [self.scan_thread(t) for t in range(n)])

    def check(self) -> None:
        with self.reading():
            run_phase(
                self.tb.env,
                [
                    self.get_thread(f"vpic-{t}", f, self.picks[t], self.ctx(t))
                    for t, f in enumerate(self.files)
                ],
            )
        self.check_accounting()


class ClusterMixed(Scenario):
    name = "cluster_mixed"
    why = (
        "8 devices behind ClusterRouter: routed bulk load of 32k pairs, "
        "compaction, 4k batched zipfian GETs, 2k sync 95/5 ops; per-device "
        "data fits its cache; stresses cluster, nvme links, a deep event heap"
    )
    nominal = {
        "devices": 8,
        "pairs": 32_768,
        "keyspaces": 8,
        "threads": 8,
        "batched_gets": 4_096,
        "batch": 256,
        "mixed_ops": 2_048,
    }

    def setup(self) -> None:
        for key in ("devices", "keyspaces", "batch"):
            self.size(key, scaled=False)
        self.slices = self.synthetic_slices(
            self.size("pairs", jitter=True), self.nominal["keyspaces"]
        )
        threads = self.size("threads", scaled=False)
        per = self.size("batched_gets") // threads
        self.batched = [
            self.zipf_picks(len(self.slices[t]), per, 1, t) for t in range(threads)
        ]
        per = self.size("mixed_ops") // threads
        self.streams = [
            (
                self.zipf_picks(len(self.slices[t]), per, 2, t),
                (self.rng(3, t).random(per) < READ_FRACTION).tolist(),
            )
            for t in range(threads)
        ]
        self.updated = [{} for _ in range(threads)]
        self.tb = build_cluster_testbed(
            n_devices=self.nominal["devices"],
            seed=TESTBED_SEED,
            soc=SOC,
            geometry=bench_geometry(n_zones=1024),
            cluster_zones=8,
            vnodes=512,
            membuf_bytes=MEMBUF_BYTES,
            bulk_message_bytes=BULK_MESSAGE_BYTES,
        )

    def ssds(self):
        return [node.ssd for node in self.tb.nodes]

    def queue_pairs(self):
        return [node.client.qp for node in self.tb.nodes]

    def devices(self):
        return [node.device for node in self.tb.nodes]

    def batched_thread(self, t: int):
        tb, pairs, name = self.tb, self.slices[t], f"ks{t}"
        picks, batch = self.batched[t], self.nominal["batch"]
        for start in range(0, len(picks), batch):
            chunk = picks[start : start + batch]
            completions = yield from tb.router.submit_many(
                [KvGetCmd(keyspace=name, key=pairs[p][0]) for p in chunk],
                tb.thread_ctx(t),
            )
            for p, completion in zip(chunk, completions):
                self.got(completion.value if completion.ok else None, pairs[p][1])

    def run(self) -> None:
        tb = self.tb
        threads = range(self.nominal["threads"])
        self.load(
            [(f"ks{t}", s, tb.thread_ctx(t)) for t, s in enumerate(self.slices)],
            batch_pairs=32_768,
        )
        with self.reading():
            run_phase(tb.env, [self.batched_thread(t) for t in threads])
        run_phase(
            tb.env,
            [
                tb.adapter.create_container(f"ks{t}-delta", tb.thread_ctx(t))
                for t in threads
            ],
        )
        with self.reading():
            run_phase(
                tb.env,
                [
                    self.mixed_thread(
                        f"ks{t}", f"ks{t}-delta", self.slices[t], *self.streams[t],
                        tb.thread_ctx(t), self.updated[t],
                    )
                    for t in threads
                ],
            )

    def check(self) -> None:
        tb = self.tb
        self.check_updates(
            [
                (f"ks{t}-delta", self.updated[t], tb.thread_ctx(t))
                for t in range(self.nominal["threads"])
            ]
        )
        self.check_accounting()

    def layer_counts(self) -> dict[str, float]:
        counters = self.tb.router.introspect()["counters"]
        return {
            **super().layer_counts(),
            "cluster.router.coalesced_reads": counters["coalesced_reads"],
            "cluster.router.stale_reads": counters["stale_reads"],
        }


class LsmBaseline(Scenario):
    name = "lsm_baseline"
    why = (
        "the RocksDB-like baseline (AUTO compaction, WAL off): load 24k "
        "pairs incl. compaction wait, then 6 cold-page-cache passes of 400 "
        "uniform GETs; only here do lsm/host/ssd.conventional do the work"
    )
    nominal = {"pairs": 24_000, "instances": 4, "gets": 2_400, "passes": 6}

    def setup(self) -> None:
        instances = self.size("instances", scaled=False)
        self.slices = self.synthetic_slices(self.size("pairs", jitter=True), instances)
        per = self.size("gets") // instances
        self.picks = [
            self.rng(1, t).integers(0, len(s), per).tolist()
            for t, s in enumerate(self.slices)
        ]
        data_bytes = len(self.slices[0]) * (KEY_BYTES + VALUE_BYTES)
        self.tb = build_rocksdb_testbed(
            seed=TESTBED_SEED,
            n_test_threads=instances,
            # bench_db_options floors the block cache at 1 MiB, which would
            # hold a whole instance at this scale; keep its 1/4-of-data ratio
            options=bench_db_options(
                data_bytes=data_bytes, block_cache_bytes=data_bytes // 4
            ),
        )

    def queue_pairs(self):
        return [self.tb.qp]

    def run(self) -> None:
        tb = self.tb
        assignments = [
            (f"db{t}", s, tb.thread_ctx(t)) for t, s in enumerate(self.slices)
        ]
        self.load(assignments)
        # Each pass starts with a cold page cache, like each query run of the
        # paper.  One pass would leave ~110 missing GETs in 2 400, too few
        # for a steady 99th percentile.
        passes = self.size("passes", scaled=False)
        for p in range(passes):
            if p:
                run_phase(
                    tb.env,
                    [tb.adapter.prepare_queries(n, c) for n, _s, c in assignments],
                )
            with self.reading():
                run_phase(
                    tb.env,
                    [
                        self.get_thread(n, s, self.picks[t][p::passes], c)
                        for t, (n, s, c) in enumerate(assignments)
                    ],
                )

    def check(self) -> None:
        self.check_accounting()

    def layer_counts(self) -> dict[str, float]:
        return {
            "lsm.table_count": sum(
                sum(db.report()["levels"]["files"])
                for db in self.tb.adapter.dbs.values()
            )
        }


SCENARIOS = {
    cls.name: cls
    for cls in (
        IngestCompact, PointRead, ObservedRead, VpicQuery, ClusterMixed, LsmBaseline
    )
}
