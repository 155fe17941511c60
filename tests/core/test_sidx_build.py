"""The column secondary-index build against the per-pair reference.

Both builders (inline, from the values a compaction still holds; scan, over
``PIDX`` + ``SORTED_VALUES``) run one column pipeline.  What it leaves on
flash and in DRAM must be, byte for byte, what the per-pair pipeline left:
``encode_skey`` per value, a tuple-list :class:`ExternalSorter` spilling
through ``pack_sidx_pairs``, ``build_sidx_blocks``, one bloom per block.
"""

import struct

import pytest

import repro.core.index_build as index_build
from repro.core import SidxConfig
from repro.core.klog import KlogColumns
from repro.core.sidx import (
    build_sidx_blocks,
    encode_skey,
    pack_sidx_pairs,
    read_sidx_block,
    unpack_sidx_pairs,
)
from repro.core.sort import ExternalSorter
from repro.lsm.bloom import BloomFilter
from repro.units import KiB, MiB

from tests.core.conftest import CsdTestbed

CONFIG = SidxConfig("tag", value_offset=2, width=4, dtype="f32")
N = 3000
#: 8-byte values (24 KB resident, so the inline builder runs) against 24-byte
#: pairs (72 KB): three spilled runs and two merge passes at fan-in 2
SPILLING = 32 * KiB


def dataset(key_widths):
    """Tags that repeat, go negative and encode with trailing NULs (2.0 is
    ``c0 00 00 00``)."""
    pairs = []
    for i in range(N):
        key = (b"p%07d" % i)[-key_widths[i % len(key_widths)] :]
        tag = struct.pack("<f", ((i * 7919) % 41 - 20) * 0.5)
        pairs.append((key, b"\x00\x00" + tag + b"\x00\x00"))
    return pairs


def recording(runs):
    """An ``ExternalSorter`` that also keeps every run of pairs it spills
    (a compaction's KLOG sort goes through the same class)."""

    class Recording(ExternalSorter):
        def _write_run(self, records, clusters):
            if not isinstance(records, KlogColumns):
                runs.append(self.pack(records))
            return super()._write_run(records, clusters)

    return Recording


def reference_runs_and_order(pairs, budget):
    """Sort ``pairs`` as tuples on a scratch device: the spilled runs and the
    sorted list."""
    tb = CsdTestbed(sort_budget=budget)
    runs = []
    sorter = recording(runs)(
        tb.device.zone_manager,
        budget_bytes=budget,
        compare_cost=0.0,
        pack=pack_sidx_pairs,
        unpack=unpack_sidx_pairs,
        sort_key=lambda pair: pair,
    )
    pair_bytes = sum(len(s) + len(p) + 4 for s, p in pairs)
    return runs, tb.run(sorter.sort(pairs, pair_bytes, tb.ctx))


@pytest.mark.parametrize("key_widths", [(8,), (8, 6)], ids=["arrays", "lists"])
@pytest.mark.parametrize("budget", [64 * MiB, SPILLING], ids=["in-budget", "spilling"])
@pytest.mark.parametrize("mode", ["inline", "scan"])
def test_index_build_is_byte_identical_to_the_per_pair_reference(
    mode, budget, key_widths, monkeypatch
):
    index_runs = []
    monkeypatch.setattr(index_build, "ExternalSorter", recording(index_runs))
    tb = CsdTestbed(sort_budget=budget, bloom_bits_per_key=10)
    pairs = dataset(key_widths)

    def load():
        client, ctx = tb.client, tb.ctx
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        yield from client.bulk_put("ks", pairs, ctx)
        yield from client.compact(
            "ks", ctx, secondary_indexes=[CONFIG] if mode == "inline" else []
        )
        yield from client.wait_for_device("ks", ctx)
        if mode == "scan":
            yield from client.build_secondary_index(
                "ks", CONFIG.name, CONFIG.value_offset, CONFIG.width, CONFIG.dtype, ctx
            )
            yield from client.wait_for_device("ks", ctx)

    tb.run(load())
    built = "sidx_builds_inline" if mode == "inline" else "sidx_builds"
    assert tb.device.stats.counter(built).value == 1

    extracted = [
        (encode_skey(CONFIG.extract(value), CONFIG.dtype), key)
        for key, value in sorted(pairs)
    ]
    runs, ordered = reference_runs_and_order(extracted, budget)
    assert ordered == sorted(extracted)
    assert bool(runs) == (budget == SPILLING)
    assert index_runs == runs  # every temp-zone byte, run by run

    blocks = build_sidx_blocks(ordered, tb.device.block_bytes)
    _config, sketch = tb.device.keyspaces["ks"].sidx[CONFIG.name]
    assert sketch.pivots == [pivot for pivot, _blob in blocks]
    assert [
        tb.ssd.zone(zone).read(off, length) for zone, off, length in sketch.block_pointers
    ] == [blob for _pivot, blob in blocks]
    assert sorted(sketch.blooms) == list(range(len(blocks)))
    for idx, (_pivot, blob) in enumerate(blocks):
        members = [skey for skey, _pkey in read_sidx_block(blob, CONFIG.width)]
        bloom = BloomFilter(len(members), bits_per_key=10)
        for skey in members:
            bloom.add(skey)
        assert sketch.blooms[idx].to_bytes() == bloom.to_bytes()


def test_index_over_an_emptied_keyspace_is_empty():
    tb = CsdTestbed(bloom_bits_per_key=10)
    pairs = dataset((8,))[:50]

    def proc():
        client, ctx = tb.client, tb.ctx
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        yield from client.bulk_put("ks", pairs, ctx)
        yield from client.bulk_delete("ks", [key for key, _value in pairs], ctx)
        yield from client.compact("ks", ctx)
        yield from client.wait_for_device("ks", ctx)
        yield from client.build_secondary_index(
            "ks", CONFIG.name, CONFIG.value_offset, CONFIG.width, CONFIG.dtype, ctx
        )
        yield from client.wait_for_device("ks", ctx)
        return (
            yield from client.sidx_range_query(
                "ks", CONFIG.name, struct.pack("<f", -100.0), struct.pack("<f", 100.0), ctx
            )
        )

    assert tb.run(proc()) == []
    assert len(tb.device.keyspaces["ks"].sidx[CONFIG.name][1]) == 0
