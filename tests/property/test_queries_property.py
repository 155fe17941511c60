"""Property tests for device-side query semantics against a sorted model."""

import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.calibration import HostSpec, KvcsdTestbed
from repro.core import KvCsdClient, KvCsdDevice, SidxConfig
from repro.core.pidx import PidxColumns
from repro.errors import KeyNotFoundError
from repro.host import ThreadCtx
from repro.nvme import PcieLink
from repro.sim import CpuPool, Environment
from repro.sim.cpu import DEFAULT_TIMESLICE
from repro.soc import SocBoard, SocSpec
from repro.ssd import SsdGeometry, ZnsSsd
from repro.units import MiB


def build(pairs, sidx_config=None):
    tb = KvcsdTestbed(
        seed=1,
        host=HostSpec(n_cores=2, timeslice=DEFAULT_TIMESLICE),
        soc=SocSpec(),
        geometry=SsdGeometry(n_channels=2, n_zones=32, zone_size=2 * MiB),
        cluster_zones=2,
    )
    env, client, ctx = tb.env, tb.client, tb.thread_ctx(0)

    def setup():
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        if pairs:
            yield from client.bulk_put("ks", pairs, ctx)
        configs = [sidx_config] if sidx_config else []
        yield from client.compact("ks", ctx, secondary_indexes=configs)
        yield from client.wait_for_device("ks", ctx)

    env.run(env.process(setup()))
    return env, client, ctx


range_case = st.tuples(
    st.dictionaries(
        st.binary(min_size=1, max_size=8),
        st.binary(min_size=0, max_size=16),
        min_size=1,
        max_size=40,
    ),
    st.binary(max_size=9),
    st.binary(max_size=9),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(range_case)
def test_primary_range_query_matches_sorted_model(case):
    model, lo, hi = case
    env, client, ctx = build(sorted(model.items()))

    def query():
        rows = yield from client.range_query("ks", lo, hi, ctx)
        return rows

    rows = env.run(env.process(query()))
    expected = sorted((k, v) for k, v in model.items() if lo <= k < hi)
    assert rows == expected


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=40),
    st.integers(-(2**31), 2**31 - 1),
    st.integers(-(2**31), 2**31 - 1),
)
def test_sidx_range_query_matches_numeric_filter(tags, bound_a, bound_b):
    lo_v, hi_v = min(bound_a, bound_b), max(bound_a, bound_b)
    pairs = [
        (f"k{i:06d}".encode(), struct.pack("<i", tag) + bytes(4))
        for i, tag in enumerate(tags)
    ]
    config = SidxConfig("tag", value_offset=0, width=4, dtype="i32")
    env, client, ctx = build(pairs, sidx_config=config)

    def query():
        rows = yield from client.sidx_range_query(
            "ks", "tag", struct.pack("<i", lo_v), struct.pack("<i", hi_v), ctx
        )
        return rows

    rows = env.run(env.process(query()))
    expected = {
        key for (key, _v), tag in zip(pairs, tags) if lo_v <= tag < hi_v
    }
    assert {k for k, _ in rows} == expected
    # full records come back
    by_key = dict(pairs)
    assert all(v == by_key[k] for k, v in rows)


# ------------------------------------------------------------ the array path
# Keys of one width decode as numpy columns and every bound and look-up is a
# search on them; the cases above (1-8 byte keys, <= 40 pairs, one block) only
# ever reach the per-entry fallback.  numpy compares ``S`` values NUL-padded
# and python ``bytes`` does not, so the alphabet makes trailing-NUL keys and
# shared prefixes the common case and the probes come one byte short, exact
# and one byte long.
ALPHABET = (b"\x00", b"\x01", b"a", b"\xff")
SKEY = SidxConfig("tag", value_offset=1, width=2, dtype="bytes")


def over_alphabet(min_size, max_size=None):
    return st.lists(
        st.sampled_from(ALPHABET),
        min_size=min_size,
        max_size=min_size if max_size is None else max_size,
    ).map(b"".join)


def build_small_blocks(model):
    """``build`` with 128-byte index blocks (5 PIDX entries, 9 SIDX pairs), so
    a few dozen pairs span many blocks."""
    env = Environment()
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=32, zone_size=2 * MiB))
    device = KvCsdDevice(
        SocBoard(env, ssd), rng=np.random.default_rng(1), cluster_zones=2, block_bytes=128
    )
    client = KvCsdClient(device, PcieLink(env))
    ctx = ThreadCtx(cpu=CpuPool(env, 2), core=0)

    def setup():
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        yield from client.bulk_put("ks", sorted(model.items()), ctx)
        yield from client.compact("ks", ctx, secondary_indexes=[SKEY])
        yield from client.wait_for_device("ks", ctx)

    env.run(env.process(setup()))
    sketch = device.keyspaces["ks"].pidx_sketch
    assert len(sketch) >= 3
    blobs = [ssd.zone(z).read(off, n) for z, off, n in sketch.block_pointers]
    one_width = len(set(map(len, model))) == 1
    assert isinstance(PidxColumns.from_blocks(blobs).keys, np.ndarray) == one_width
    return env, client, ctx


@st.composite
def array_path_case(draw):
    width = draw(st.integers(2, 4))
    keys = draw(
        st.sets(over_alphabet(width), min_size=15, max_size=min(60, 4**width))
    )
    model = {
        key: b"v" + draw(over_alphabet(2)) + key[:1] for key in sorted(keys)
    }
    near = st.sampled_from(sorted(keys))
    probe = st.one_of(
        near,
        near.map(lambda key: key[:-1]),
        st.builds(lambda key, tail: key + tail, near, st.sampled_from(ALPHABET)),
        over_alphabet(0, width + 1),
    )
    probes = [b""] + draw(st.lists(probe, min_size=6, max_size=12))
    odd = draw(st.builds(lambda key, tail: key + tail, near, st.sampled_from(ALPHABET)))
    return width, model, probes, odd


def check_against_model(model, probes, width):
    env, client, ctx = build_small_blocks(model)

    def run(gen):
        def catch():
            try:
                return (yield from gen)
            except KeyNotFoundError:
                return None

        return env.run(env.process(catch()))

    same_width = [p for p in probes if len(p) == width] + sorted(model)[:3] * 2
    for batch in (probes + probes[:2], same_width):
        got = run(client.multi_get("ks", batch, ctx))
        assert got == {k: model[k] for k in batch if k in model}, batch
    for lo in probes:
        assert run(client.get("ks", lo, ctx)) == model.get(lo), lo
        tagged = sorted((k, v) for k, v in model.items() if v[1:3] == lo)
        assert run(client.sidx_point_query("ks", "tag", lo, ctx)) == tagged, lo
        for hi in probes:
            rows = run(client.range_query("ks", lo, hi, ctx))
            assert rows == sorted((k, v) for k, v in model.items() if lo <= k < hi), (lo, hi)
            rows = run(client.sidx_range_query("ks", "tag", lo, hi, ctx))
            assert rows == sorted(
                (k, v) for k, v in model.items() if lo <= v[1:3] < hi
            ), (lo, hi)


@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(array_path_case())
def test_queries_over_uniform_width_keys_match_sorted_model(case):
    """get / multi_get / range / sidx range / sidx point on the column path
    (every key one width) and on the same data plus one key of another width
    (the per-entry fallback) both answer as a sorted dict does."""
    width, model, probes, odd = case
    check_against_model(model, probes, width)
    check_against_model({**model, odd: b"v" + odd[:2] + b"!"}, probes + [odd], width)
