"""Property: metadata replay under damage.  A stream of 1-12 records that
is cut at any byte, has one byte flipped, or has garbage appended replays
exactly the frames that end before the damage — the same table, epoch,
seal and record count a dict model gets — never raises, and reports
``torn`` exactly when the damage cut or hit a frame."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.keyspace import Keyspace, KeyspaceState
from repro.core.meta import COMMIT, DELETE, EPOCH, UPSERT, MetaCodec
from repro.core.pidx import PidxSketch
from repro.core.sidx import SidxConfig, SidxSketch
from repro.core.zone_manager import ZoneCluster
from repro.lsm.bloom import BloomFilter
from repro.sim import Environment
from repro.ssd import SsdGeometry, ZnsSsd
from repro.units import KiB

SSD = ZnsSsd(Environment(), geometry=SsdGeometry(n_channels=2, n_zones=16, zone_size=64 * KiB))
NAMES = ("a", "b", "c")
CODEC = MetaCodec()

u64 = st.integers(0, 2**64 - 1)


def some_bytes(rnd: random.Random, lo: int, hi: int) -> bytes:
    return rnd.randbytes(rnd.randint(lo, hi))


def clusters(rnd: random.Random) -> list[ZoneCluster]:
    """0-2 clusters of 1-3 zones."""
    return [
        ZoneCluster(SSD, rnd.choices(range(16), k=rnd.randint(1, 3)), rnd.randrange(8))
        for _ in range(rnd.randint(0, 2))
    ]


def fill_sketch(rnd: random.Random, sketch, with_blooms: bool):
    """Add 0-3 blocks to ``sketch``, each with a bloom over its pivot and
    one more member when ``with_blooms``."""
    pivots = sorted({some_bytes(rnd, 1, 6) for _ in range(rnd.randint(0, 3))})
    for idx, pivot in enumerate(pivots):
        sketch.add_block(
            pivot, (rnd.getrandbits(32), rnd.getrandbits(64), rnd.getrandbits(32))
        )
        if with_blooms:
            bloom = BloomFilter(2, bits_per_key=10)
            bloom.add_many([pivot, some_bytes(rnd, 0, 6)])
            sketch.attach_bloom(idx, bloom)
    return sketch


@st.composite
def keyspaces(draw):
    """The shape is drawn; the byte-level details come from a drawn seed,
    which keeps the property fast."""
    rnd = random.Random(draw(u64))
    ks = Keyspace(
        name=draw(st.sampled_from(NAMES)),
        state=draw(st.sampled_from(KeyspaceState)),
        n_pairs=rnd.getrandbits(64),
        min_key=draw(st.none() | st.just(some_bytes(rnd, 0, 8))),
        max_key=draw(st.none() | st.just(some_bytes(rnd, 0, 8))),
    )
    for role in ("klog_clusters", "vlog_clusters", "pidx_clusters",
                 "sorted_value_clusters"):
        setattr(ks, role, clusters(rnd))
    with_blooms = draw(st.booleans())
    if draw(st.booleans()):
        ks.pidx_sketch = fill_sketch(rnd, PidxSketch(), with_blooms)
    for name in draw(st.lists(st.sampled_from(["x", "y"]), unique=True, max_size=2)):
        width = rnd.choice([4, 8])
        config = SidxConfig(name, value_offset=rnd.getrandbits(32), width=width)
        ks.sidx[name] = (config, fill_sketch(rnd, SidxSketch(skey_width=width), with_blooms))
        ks.sidx_clusters[name] = clusters(rnd)
    return ks


records = st.lists(
    st.one_of(
        st.tuples(st.just(UPSERT), keyspaces(), u64),
        st.tuples(st.just(DELETE), st.sampled_from(NAMES)),
        st.tuples(st.sampled_from([EPOCH, COMMIT]), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=12,
)


def encode(record) -> bytes:
    kind, *args = record
    if kind == UPSERT:
        return CODEC.encode_upsert(*args)
    if kind == DELETE:
        return CODEC.encode_delete(*args)
    return (CODEC.encode_epoch if kind == EPOCH else CODEC.encode_commit)(*args)


def replay(records) -> tuple[dict, int, bool]:
    """The dict model of replay: (table, epoch, sealed)."""
    table, epoch, committed = {}, 0, False
    for kind, *args in records:
        if kind == UPSERT:
            table[args[0].name] = tuple(args)
        elif kind == DELETE:
            table.pop(args[0], None)
        elif kind == EPOCH:
            epoch = args[0]
        elif args[0] == epoch:
            committed = True
    return table, epoch, committed or epoch == 0


def sketch_summary(sketch):
    if sketch is None:
        return None
    # equal bloom bits give equal membership answers
    blooms = {idx: bloom.to_bytes() for idx, bloom in sketch.blooms.items()}
    return sketch.pivots, sketch.block_pointers, blooms


def summary(ks: Keyspace, last_seq: int):
    zones = [
        [c.zone_ids for c in getattr(ks, role)]
        for role in ("klog_clusters", "vlog_clusters", "pidx_clusters",
                     "sorted_value_clusters")
    ]
    sidx = {
        name: (config, sketch_summary(sketch),
               [c.zone_ids for c in ks.sidx_clusters[name]])
        for name, (config, sketch) in ks.sidx.items()
    }
    return (ks.state, ks.n_pairs, last_seq, ks.min_key, ks.max_key, zones,
            sketch_summary(ks.pidx_sketch), sidx)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(records, st.data())
def test_replay_applies_exactly_the_frames_before_the_damage(records, data):
    frames = [encode(record) for record in records]
    ends = [sum(len(f) for f in frames[: i + 1]) for i in range(len(frames))]
    blob = b"".join(frames)
    damage = data.draw(st.sampled_from(["none", "cut", "flip", "append"]))
    if damage == "cut":
        at = data.draw(st.integers(0, len(blob)))
        blob, torn = blob[:at], at not in [0, *ends]
    elif damage == "flip":
        at = data.draw(st.integers(0, len(blob) - 1))
        damaged = bytearray(blob)
        damaged[at] ^= data.draw(st.integers(1, 255))
        blob, torn = bytes(damaged), True
    elif damage == "append":
        at = len(blob)
        blob, torn = blob + data.draw(st.binary(min_size=1, max_size=32)), True
    else:
        at, torn = len(blob), False
    intact = [record for record, end in zip(records, ends) if end <= at]

    stream = CODEC.parse_stream(blob, SSD)
    table, epoch, sealed = replay(intact)
    assert stream.torn == torn
    assert stream.records == len(intact)
    assert (stream.epoch, stream.sealed) == (epoch, sealed)
    assert {name: summary(*entry) for name, entry in stream.table.items()} == {
        name: summary(*entry) for name, entry in table.items()
    }
