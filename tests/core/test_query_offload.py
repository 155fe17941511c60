"""Tests for the multi-core query scheduler and per-block bloom filters.

The scheduler and the blooms are *optimisations only*: for any
``query_workers``/``bloom_bits_per_key`` the device must answer every query
byte-identically to the serial inline engine, while skipping block reads
for keys the blooms prove absent and accounting bloom DRAM against the
SoC budget.
"""

import pytest

from repro.errors import KeyNotFoundError, KeyspaceStateError, SimulationError
from repro.obs.journal import install_journal
from repro.sim.stats import MAX_SAMPLES

from tests.core.conftest import CsdTestbed, make_pairs

N_PAIRS = 4000


def load_and_compact(tb, pairs, sidx=False):
    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        if sidx:
            yield from tb.client.build_secondary_index(
                "ks", "head", 0, 4, "bytes", tb.ctx
            )
            yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(proc())
    return tb


@pytest.fixture
def loaded_parallel():
    tb = CsdTestbed(query_workers=4, bloom_bits_per_key=10)
    pairs = make_pairs(N_PAIRS)
    return load_and_compact(tb, pairs), pairs


def query_fingerprint(tb, pairs):
    """Every query kind's results, in a comparable structure."""
    sample = [pairs[i][0] for i in range(0, N_PAIRS, N_PAIRS // 48)]
    lo, hi = pairs[N_PAIRS // 4][0], pairs[3 * N_PAIRS // 4][0]
    out = {}

    def proc():
        out["gets"] = []
        for key in sample:
            out["gets"].append((yield from tb.client.get("ks", key, tb.ctx)))
        out["multi"] = sorted(
            (yield from tb.client.multi_get("ks", sample, tb.ctx)).items()
        )
        out["range"] = yield from tb.client.range_query("ks", lo, hi, tb.ctx)
        out["sidx_range"] = yield from tb.client.sidx_range_query(
            "ks", "head", pairs[0][1][:4], pairs[0][1][:3] + b"\xff", tb.ctx
        )
        out["sidx_point"] = yield from tb.client.sidx_point_query(
            "ks", "head", pairs[7][1][:4], tb.ctx
        )
        try:
            yield from tb.client.get("ks", b"absent-key-00000", tb.ctx)
        except KeyNotFoundError:
            out["absent"] = "missing"

    tb.run(proc())
    return out


@pytest.mark.parametrize("workers,bloom_bits", [(1, 0), (2, 10), (4, 10)])
def test_scheduler_results_byte_identical_to_serial(workers, bloom_bits):
    pairs = make_pairs(N_PAIRS)
    serial = load_and_compact(CsdTestbed(), pairs, sidx=True)
    parallel = load_and_compact(
        CsdTestbed(query_workers=workers, bloom_bits_per_key=bloom_bits),
        pairs,
        sidx=True,
    )
    assert query_fingerprint(serial, pairs) == query_fingerprint(parallel, pairs)


def test_workers_clamped_to_core_count():
    tb = CsdTestbed(query_workers=64)
    assert tb.device.query_workers == tb.board.spec.n_cores
    assert tb.device.query_scheduler.n_workers == tb.board.spec.n_cores


def test_zero_workers_runs_inline_without_scheduler():
    tb = CsdTestbed()
    assert tb.device.query_scheduler is None


def test_scheduler_requires_a_worker():
    from repro.core.scheduler import QueryScheduler

    tb = CsdTestbed()
    with pytest.raises(SimulationError):
        QueryScheduler(tb.env, tb.board, n_workers=0)


def test_scheduler_drains_and_journals(loaded_parallel):
    tb, pairs = loaded_parallel
    journal = install_journal(tb.env)

    def proc():
        for i in (0, 100, 2000):
            yield from tb.client.get("ks", pairs[i][0], tb.ctx)

    tb.run(proc())
    stats = tb.device.stats.counter_values()
    assert stats["query_admitted"] == stats["query_dispatched"]
    assert tb.device.query_scheduler.admit_depth.count == stats["query_admitted"]
    assert tb.device.query_scheduler.admit_depth.max_samples == MAX_SAMPLES
    types = {e.type for e in journal.events}
    assert {"query.admit", "query.dispatch"} <= types
    assert tb.device.query_scheduler.depth == 0


def test_scheduler_propagates_query_errors(loaded_parallel):
    tb, _pairs = loaded_parallel

    def proc():
        yield from tb.client.get("ks", b"definitely-not-here", tb.ctx)

    with pytest.raises(KeyNotFoundError):
        tb.run(proc())


# ---------------------------------------------------------------- bloom filters
def test_blooms_skip_absent_key_block_reads(loaded_parallel):
    tb, pairs = loaded_parallel
    # in-range absent keys: the high sequence byte of a real key is never 0xff
    absent = [pairs[i][0][:-1] + b"\xff" for i in range(50, 250, 4)]
    reads_before = tb.device.stats.counter("pidx_block_reads").value
    skips_before = tb.device.stats.counter("bloom_skips").value

    def proc():
        for key in absent:
            try:
                yield from tb.client.get("ks", key, tb.ctx)
            except KeyNotFoundError:
                pass

    tb.run(proc())
    skipped = tb.device.stats.counter("bloom_skips").value - skips_before
    read = tb.device.stats.counter("pidx_block_reads").value - reads_before
    assert skipped + read == len(absent)
    assert skipped >= 0.9 * len(absent)


def test_blooms_never_skip_present_keys(loaded_parallel):
    tb, pairs = loaded_parallel

    def proc():
        for key, value in pairs[:: N_PAIRS // 128]:
            got = yield from tb.client.get("ks", key, tb.ctx)
            assert got == value

    tb.run(proc())
    assert tb.device.stats.counter("bloom_probes").value > 0


def test_bloom_dram_reserved_and_released():
    tb = CsdTestbed(query_workers=0, bloom_bits_per_key=10)
    pairs = make_pairs(N_PAIRS)
    load_and_compact(tb, pairs)
    reserved = tb.device._bloom_dram["ks"]
    assert reserved > 0
    assert tb.board.dram.capacity - tb.board.dram.available >= reserved
    sketch = tb.device.keyspaces["ks"].pidx_sketch
    assert len(sketch.blooms) == len(sketch)
    assert sketch.bloom_bytes == reserved

    def drop():
        yield from tb.client.delete_keyspace("ks", tb.ctx)

    available_before = tb.board.dram.available
    tb.run(drop())
    assert tb.device._bloom_dram == {}
    assert tb.board.dram.available >= available_before + reserved


def test_no_blooms_when_knob_off():
    tb = CsdTestbed()
    pairs = make_pairs(500)
    load_and_compact(tb, pairs, sidx=True)
    ks = tb.device.keyspaces["ks"]
    assert ks.pidx_sketch.blooms == {}
    _config, sidx_sketch = ks.sidx["head"]
    assert sidx_sketch.blooms == {}


def test_sidx_blooms_skip_absent_secondary_keys():
    tb = CsdTestbed(bloom_bits_per_key=10)
    pairs = make_pairs(N_PAIRS)
    load_and_compact(tb, pairs, sidx=True)
    skips_before = tb.device.stats.counter("bloom_skips").value

    def proc():
        # no record's first value byte is 0xfe (values are bytes([i % 256])*32
        # so most exist) — use a width-4 pattern no value contains
        result = yield from tb.client.sidx_point_query(
            "ks", "head", b"\x01\x02\x03\x04", tb.ctx
        )
        return result

    assert tb.run(proc()) == []
    assert tb.device.stats.counter("bloom_skips").value > skips_before


# ---------------------------------------------------------- multi_point_query
@pytest.fixture
def loaded_serial():
    tb = CsdTestbed()
    pairs = make_pairs(N_PAIRS)
    return load_and_compact(tb, pairs), pairs


def test_multi_point_query_duplicate_keys(loaded_serial):
    tb, pairs = loaded_serial
    key, value = pairs[123]

    def proc():
        return (yield from tb.client.multi_get("ks", [key, key, key], tb.ctx))

    assert tb.run(proc()) == {key: value}


def test_multi_point_query_all_absent(loaded_serial):
    tb, pairs = loaded_serial
    absent = [pairs[i][0][:-1] + b"\xff" for i in range(8)]

    def proc():
        return (yield from tb.client.multi_get("ks", absent, tb.ctx))

    assert tb.run(proc()) == {}


def test_multi_point_query_spans_first_and_last_block(loaded_serial):
    tb, pairs = loaded_serial
    sketch = tb.device.keyspaces["ks"].pidx_sketch
    assert len(sketch) >= 2
    ordered = sorted(pairs)
    wanted = [ordered[0][0], ordered[-1][0]]

    def proc():
        return (yield from tb.client.multi_get("ks", wanted, tb.ctx))

    result = tb.run(proc())
    by_key = dict(pairs)
    assert result == {k: by_key[k] for k in wanted}
    # the two keys live at opposite ends of the sketch
    assert sketch.find_block(wanted[0]) == 0
    assert sketch.find_block(wanted[1]) == len(sketch) - 1


# ------------------------------------------------------------ state gating
def test_sidx_point_query_requires_compacted_state():
    tb = CsdTestbed()
    pairs = make_pairs(64)

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", pairs, tb.ctx)

    tb.run(setup())

    def query():
        yield from tb.client.sidx_point_query("ks", "nope", b"\x00" * 4, tb.ctx)

    # the state check must fire before the index lookup: a WRITABLE keyspace
    # reports its state, not a missing-index error
    with pytest.raises(KeyspaceStateError):
        tb.run(query())
