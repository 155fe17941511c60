"""Model-based property tests: both key-value stores versus a dict model.

These drive random operation sequences through the full simulated stacks
(LSM over ext4 over the FTL SSD; KV-CSD over the ZNS SSD) and check that
every observable result matches a plain dictionary executing the same
sequence — the strongest end-to-end correctness statement the library makes.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.calibration import HostSpec, KvcsdTestbed
from repro.errors import KeyNotFoundError
from repro.host import Filesystem, PageCache, ThreadCtx
from repro.lsm import Db, DbOptions
from repro.nvme import NvmeController, QueuePair
from repro.sim import CpuPool, Environment
from repro.sim.cpu import DEFAULT_TIMESLICE
from repro.soc import SocSpec
from repro.ssd import ConventionalSsd, SsdGeometry
from repro.units import KiB, MiB

# Small key/value spaces force overwrites, deletes of present keys, and
# flush/compaction boundaries to interact.
small_keys = st.binary(min_size=1, max_size=6)
small_values = st.binary(min_size=0, max_size=24)

lsm_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), small_keys, small_values),
        st.tuples(st.just("delete"), small_keys, st.just(b"")),
        st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    ),
    max_size=60,
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(lsm_ops)
def test_lsm_db_matches_dict_model(ops):
    env = Environment()
    ssd = ConventionalSsd(
        env,
        geometry=SsdGeometry(
            n_channels=2, n_zones=16, zone_size=MiB, pages_per_block=32
        ),
    )
    qp = QueuePair(env, NvmeController(env, ssd), depth=16)
    fs = Filesystem(env, qp, PageCache(4 * MiB), journal_pages=16)
    cpu = CpuPool(env, 2)
    ctx = ThreadCtx(cpu=cpu, core=0)
    bg = ThreadCtx(cpu=cpu, cores=(0, 1), priority=5)
    db = Db(
        env,
        fs,
        bg_ctx=bg,
        options=DbOptions(
            memtable_bytes=4 * KiB,
            l1_target_bytes=16 * KiB,
            target_file_bytes=8 * KiB,
            block_cache_bytes=64 * KiB,
            enable_wal=False,
        ),
    )
    model: dict[bytes, bytes] = {}

    def driver():
        yield from db.open(ctx)
        for op, key, value in ops:
            if op == "put":
                yield from db.put(key, value, ctx)
                model[key] = value
            elif op == "delete":
                yield from db.delete(key, ctx)
                model.pop(key, None)
            else:
                yield from db.flush(ctx)
        yield from db.flush(ctx)
        yield from db.wait_for_compaction()
        # verify every key the model knows, plus a key it doesn't
        for key, expected in model.items():
            got = yield from db.get(key, ctx)
            assert got == expected, (key, got, expected)
        ghost = yield from db.get(b"\xff" * 7, ctx)
        assert ghost is None
        # a full scan matches the sorted model
        scan = yield from db.scan(b"", b"\xff" * 8, ctx)
        assert scan == sorted(model.items())

    env.run(env.process(driver()))


csd_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), small_keys, small_values),
        st.tuples(st.just("delete"), small_keys, st.just(b"")),
    ),
    max_size=60,
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(csd_ops)
def test_kvcsd_matches_dict_model(ops):
    tb = KvcsdTestbed(
        host=HostSpec(n_cores=2, timeslice=DEFAULT_TIMESLICE),
        soc=SocSpec(),
        geometry=SsdGeometry(n_channels=2, n_zones=16, zone_size=MiB),
        cluster_zones=2,
    )
    client, ctx = tb.client, tb.thread_ctx(0)
    model: dict[bytes, bytes] = {}

    def driver():
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        for op, key, value in ops:
            if op == "put":
                yield from client.put("ks", key, value, ctx)
                model[key] = value
            else:
                yield from client.bulk_delete("ks", [key], ctx)
                model.pop(key, None)
        yield from client.compact("ks", ctx)
        yield from client.wait_for_device("ks", ctx)
        for key, expected in model.items():
            got = yield from client.get("ks", key, ctx)
            assert got == expected, (key, got, expected)
        try:
            yield from client.get("ks", b"\xff" * 7, ctx)
            raise AssertionError("ghost key should be absent")
        except KeyNotFoundError:
            pass
        rows = yield from client.range_query("ks", b"", b"\xff" * 8, ctx)
        assert rows == sorted(model.items())
        stat = yield from client.keyspace_stat("ks", ctx)
        assert stat["n_pairs"] == len(model)

    tb.run(driver())
