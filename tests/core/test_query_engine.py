"""Unit tests for the device-side query engine internals."""

import numpy as np
import pytest

from repro.core import CsdCostModel
from repro.core.pidx import PidxColumns
from repro.core.query import QueryEngine
from repro.sim import Environment
from repro.ssd import SsdGeometry, ZnsSsd
from repro.units import MiB


def make_engine():
    env = Environment()
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=4, zone_size=MiB))
    return QueryEngine(ssd, CsdCostModel(), scale_cpu=lambda s: s), env, ssd


def pointer_rows(pointers):
    """Value pointers as the column batch the engine carries them in."""
    zone, off, vlen = zip(*pointers)
    return PidxColumns(
        [b""] * len(pointers),
        np.array(zone, dtype="<u4"),
        np.array(off, dtype="<u8"),
        np.array(vlen, dtype="<u4"),
    )


def coalesce(engine, pointers):
    """``[(extent, [input index...]), ...]`` — from the python walk and from
    the array form, which must agree whatever the batch size."""
    rows = pointer_rows(pointers)
    results = []
    for threshold in (len(pointers) + 1, 0):  # all-loop, then all-numpy
        engine._VECTOR_MIN_POINTERS = threshold
        results.append(engine._coalesce(rows.zone, rows.off, rows.vlen))
    assert results[0] == results[1]
    extents, extent_of, start = results[0]
    for (_zone, off, _length), at, extent in zip(pointers, start, extent_of):
        assert extents[extent][1] + at == off
    return [
        (extent, [i for i, e in enumerate(extent_of) if e == idx])
        for idx, extent in enumerate(extents)
    ]


# ------------------------------------------------------------------ coalescing
def test_coalesce_adjacent_pointers_merge():
    engine, _, _ = make_engine()
    pointers = [(0, 0, 100), (0, 100, 100), (0, 200, 100)]
    extents = coalesce(engine, pointers)
    assert len(extents) == 1
    (zone, off, length), members = extents[0]
    assert zone == 0 and off == 0
    assert length == 4096  # page aligned
    assert sorted(members) == [0, 1, 2]


def test_coalesce_same_page_scattered_hits_merge():
    """Scattered records within one 4 KiB page cost a single media read."""
    engine, _, _ = make_engine()
    pointers = [(0, 10, 32), (0, 2000, 32), (0, 3900, 32)]
    extents = coalesce(engine, pointers)
    assert len(extents) == 1


def test_coalesce_distant_pages_stay_separate():
    engine, _, _ = make_engine()
    pointers = [(0, 0, 32), (0, 100 * 4096, 32)]
    extents = coalesce(engine, pointers)
    assert len(extents) == 2


def test_coalesce_across_zones_never_merges():
    engine, _, _ = make_engine()
    pointers = [(0, 0, 32), (1, 0, 32)]
    extents = coalesce(engine, pointers)
    assert len(extents) == 2
    assert {e[0][0] for e in extents} == {0, 1}


def test_coalesce_preserves_input_index_mapping():
    engine, _, _ = make_engine()
    pointers = [(0, 5000, 32), (0, 100, 32)]  # out of order
    extents = coalesce(engine, pointers)
    members = [m for _e, ms in extents for m in ms]
    assert sorted(members) == [0, 1]


def test_fetch_values_roundtrip_with_page_reads():
    engine, env, ssd = make_engine()
    values = [bytes([i]) * 50 for i in range(20)]

    def proc():
        pointers = []
        for v in values:
            off = yield from ssd.append(0, v)
            pointers.append((0, off, len(v)))
        # fetch in a scrambled order
        order = list(range(20))[::-1]
        scrambled = [pointers[i] for i in order]
        from repro.host.threads import ThreadCtx
        from repro.sim import CpuPool

        ctx = ThreadCtx(cpu=CpuPool(env, 1))
        got = yield from engine._fetch_values(pointer_rows(scrambled), ctx)
        return [got[order.index(i)] for i in range(20)]

    got = env.run(env.process(proc()))
    assert got == values


def test_coalesce_array_form_matches_walk_on_random_pointers():
    """Overlaps, duplicates, several zones, unaligned lengths: same extents,
    same placement of every pointer, from both coalescers."""
    engine, _, _ = make_engine()
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 64, 300):
        pointers = [
            (int(z), int(o), int(length))
            for z, o, length in zip(
                rng.integers(0, 3, n),
                rng.integers(0, 40 * 4096, n),
                rng.integers(1, 9000, n),
            )
        ]
        extents = coalesce(engine, pointers + pointers[:1])
        assert sorted(e for e, _m in extents) == [e for e, _m in extents]
        for (zone, off, length), members in extents:
            assert off % 4096 == 0 and length % 4096 == 0
            for i in members:
                pz, po, plen = (pointers + pointers[:1])[i]
                assert pz == zone and off <= po and po + plen <= off + length


def test_fetch_values_clips_partial_tail_page():
    """Values near the zone's write pointer must not read past it."""
    engine, env, ssd = make_engine()

    def proc():
        off = yield from ssd.append(0, b"v" * 100)  # zone holds 100 bytes only
        from repro.host.threads import ThreadCtx
        from repro.sim import CpuPool

        ctx = ThreadCtx(cpu=CpuPool(env, 1))
        got = yield from engine._fetch_values(pointer_rows([(0, off, 100)]), ctx)
        return got[0]

    assert env.run(env.process(proc())) == b"v" * 100


def test_fetch_values_fewer_reads_than_records_when_clustered():
    engine, env, ssd = make_engine()

    def proc():
        pointers = []
        for i in range(64):
            off = yield from ssd.append(0, bytes([i]) * 32)
            pointers.append((0, off, 32))
        reads_before = ssd.stats.read_ops
        from repro.host.threads import ThreadCtx
        from repro.sim import CpuPool

        ctx = ThreadCtx(cpu=CpuPool(env, 1))
        yield from engine._fetch_values(pointer_rows(pointers), ctx)
        return ssd.stats.read_ops - reads_before

    n_reads = env.run(env.process(proc()))
    assert n_reads <= 2  # 64 x 32B = 2KB -> one or two page reads, not 64


# ------------------------------------------------------------------ cost model
@pytest.mark.parametrize(
    "entries,steps", [(0, 1), (1, 1), (2, 1), (3, 2), (128, 7), (129, 8)]
)
def test_binary_search_cost_scales_with_log_entries(entries, steps):
    costs = CsdCostModel()
    assert costs.binary_search(entries) == pytest.approx(costs.key_compare * steps)


def test_shard_split_contiguous_and_complete():
    ids = list(range(11))
    slices = QueryEngine._split_ids(ids, 4)
    assert [x for s in slices for x in s] == ids  # slice order == serial order
    assert max(len(s) for s in slices) - min(len(s) for s in slices) <= 1
