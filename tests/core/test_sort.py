"""Unit tests for the external merge sort and its planning."""

import numpy as np
import pytest

from repro.core.klog import KlogColumns, pack_klog_records, unpack_klog_records
from repro.core.sort import (
    MERGE_BUFFER_BYTES,
    ExternalSorter,
    ParallelSortCoordinator,
    SortPlan,
    plan_external_sort,
)
from repro.core.zone_manager import ZoneManager
from repro.errors import SimulationError
from repro.host.threads import ThreadCtx
from repro.sim import CpuPool, Environment
from repro.ssd import SsdGeometry, ZnsSsd
from repro.units import KiB, MiB


def make_sorter(env, budget_bytes):
    ssd = ZnsSsd(
        env, geometry=SsdGeometry(n_channels=4, n_zones=64, zone_size=4 * MiB)
    )
    zm = ZoneManager(ssd, np.random.default_rng(0), cluster_zones=4)

    def pack(records):
        parts = []
        for key, payload in records:
            parts.append(len(key).to_bytes(2, "little"))
            parts.append(key)
            parts.append(len(payload).to_bytes(2, "little"))
            parts.append(payload)
        return b"".join(parts)

    def unpack(blob):
        out = []
        pos = 0
        while pos < len(blob):
            klen = int.from_bytes(blob[pos : pos + 2], "little")
            pos += 2
            key = blob[pos : pos + klen]
            pos += klen
            plen = int.from_bytes(blob[pos : pos + 2], "little")
            pos += 2
            out.append((key, blob[pos : pos + plen]))
            pos += plen
        return out

    sorter = ExternalSorter(
        zm, budget_bytes=budget_bytes, compare_cost=25e-9, pack=pack, unpack=unpack
    )
    return sorter, ssd, zm


def random_records(n, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**62, size=n)
    return [
        (int(k).to_bytes(8, "big"), f"payload-{i}".encode())
        for i, k in enumerate(keys)
    ]


def run_sort(records, budget_bytes, total_bytes=None):
    env = Environment()
    sorter, ssd, zm = make_sorter(env, budget_bytes)
    cpu = CpuPool(env, 2)
    ctx = ThreadCtx(cpu=cpu)
    total = total_bytes if total_bytes is not None else sum(
        len(k) + len(p) + 4 for k, p in records
    )

    def proc():
        out = yield from sorter.sort(records, total, ctx)
        return out

    result = env.run(env.process(proc()))
    return result, sorter, ssd, zm, env


# ------------------------------------------------------------------ planning
def test_plan_single_pass_when_fits():
    plan = plan_external_sort(total_bytes=1000, budget_bytes=10_000)
    assert not plan.spills
    assert plan.n_runs == 1
    assert plan.n_merge_passes == 0
    assert plan.temp_bytes_written == 0


def test_plan_spills_when_over_budget():
    plan = plan_external_sort(total_bytes=10 * MiB, budget_bytes=1 * MiB)
    assert plan.spills
    assert plan.n_runs == 10
    assert plan.n_merge_passes >= 1


def test_plan_multiple_passes_with_small_fanin():
    # budget 512 KiB -> fanin 2; 16 runs need 4 passes.
    plan = SortPlan(total_bytes=16 * 512 * KiB, budget_bytes=512 * KiB)
    assert plan.fanin == 2
    assert plan.n_merge_passes == 4


def test_plan_rejects_zero_budget():
    with pytest.raises(SimulationError):
        SortPlan(total_bytes=100, budget_bytes=0)


# ------------------------------------------------------------------ sorting
def test_in_memory_sort_correct():
    records = random_records(500)
    result, sorter, ssd, _, _ = run_sort(records, budget_bytes=10 * MiB)
    assert result == sorted(records, key=lambda r: r[0])
    assert not sorter.last_plan.spills
    assert ssd.stats.bytes_written == 0  # no temp I/O


def test_spilled_sort_correct_and_uses_temp_zones():
    records = random_records(2000, seed=1)
    total = sum(len(k) + len(p) + 4 for k, p in records)
    result, sorter, ssd, zm, _ = run_sort(records, budget_bytes=total // 5)
    assert result == sorted(records, key=lambda r: r[0])
    assert sorter.last_plan.spills
    assert ssd.stats.bytes_written > 0  # runs were spilled
    assert ssd.stats.bytes_read > 0  # and read back
    # all temp clusters released afterwards
    assert zm.allocated_clusters == 0


def test_multi_pass_sort_correct():
    records = random_records(3000, seed=2)
    total = sum(len(k) + len(p) + 4 for k, p in records)
    # force fanin 2 with a tiny budget: many merge passes
    result, sorter, ssd, zm, _ = run_sort(
        records, budget_bytes=max(1024, total // 16)
    )
    assert result == sorted(records, key=lambda r: r[0])
    assert sorter.last_plan.n_merge_passes >= 2
    assert zm.allocated_clusters == 0


def test_smaller_budget_more_temp_io():
    records = random_records(2000, seed=3)
    total = sum(len(k) + len(p) + 4 for k, p in records)
    _, _, ssd_small, _, _ = run_sort(records, budget_bytes=total // 10)
    _, _, ssd_large, _, _ = run_sort(records, budget_bytes=total // 2)
    assert ssd_small.stats.bytes_written > ssd_large.stats.bytes_written


def test_duplicate_sort_keys_stable_via_key_function():
    env = Environment()
    sorter, _, _ = make_sorter(env, budget_bytes=10 * MiB)
    sorter.sort_key = lambda rec: (rec[0], rec[1])
    records = [(b"same", b"b"), (b"same", b"a"), (b"other", b"z")]
    cpu = CpuPool(env, 1)
    ctx = ThreadCtx(cpu=cpu)

    def proc():
        out = yield from sorter.sort(records, 100, ctx)
        return out

    assert env.run(env.process(proc())) == [
        (b"other", b"z"),
        (b"same", b"a"),
        (b"same", b"b"),
    ]


def test_empty_and_singleton_inputs():
    result, *_ = run_sort([], budget_bytes=1024)
    assert result == []
    result, *_ = run_sort([(b"k", b"v")], budget_bytes=1024)
    assert result == [(b"k", b"v")]


def test_sort_charges_cpu_time():
    records = random_records(1000, seed=4)
    _, _, _, _, env = run_sort(records, budget_bytes=10 * MiB)
    assert env.now > 0


# ------------------------------------------------------- temp I/O accounting
def test_plan_exact_pass_count_near_float_boundary():
    # 125 runs at fan-in 5 need exactly 3 passes (125 -> 25 -> 5 -> out);
    # the old ceil(log(125, 5)) closed form said 4 because the float log
    # lands at 3.0000000000000004.
    budget = 5 * MERGE_BUFFER_BYTES
    plan = SortPlan(total_bytes=125 * budget, budget_bytes=budget)
    assert plan.fanin == 5
    assert plan.n_runs == 125
    assert plan.n_merge_passes == 3
    # same boundary for 216 runs at fan-in 6
    budget = 6 * MERGE_BUFFER_BYTES
    plan = SortPlan(total_bytes=216 * budget, budget_bytes=budget)
    assert plan.n_merge_passes == 3


def test_temp_bytes_written_matches_measured_io():
    # Pin the SortPlan formula to the byte traffic the sorter actually
    # issues: run generation writes the data once, every pass except the
    # (streamed) last rewrites it once -> n_merge_passes copies in total.
    for seed, divisor in [(5, 5), (6, 16)]:
        records = random_records(2000, seed=seed)
        total = sum(len(k) + len(p) + 4 for k, p in records)
        _, sorter, ssd, _, _ = run_sort(records, budget_bytes=total // divisor)
        plan = sorter.last_plan
        assert plan.spills
        assert ssd.stats.bytes_written == plan.temp_bytes_written


def test_split_across_divides_data_and_budget():
    plan = SortPlan(total_bytes=8 * MiB, budget_bytes=4 * MiB)
    shards = plan.split_across(4)
    assert len(shards) == 4
    assert all(p.total_bytes == 2 * MiB for p in shards)
    assert all(p.budget_bytes == 1 * MiB for p in shards)
    assert plan.split_across(1) == [plan]
    with pytest.raises(SimulationError):
        plan.split_across(0)


# ------------------------------------------------------------ parallel sort
def run_parallel_sort(records, budget_bytes, shards, n_cores=4):
    env = Environment()
    sorter, ssd, zm = make_sorter(env, budget_bytes)
    cpu = CpuPool(env, n_cores)
    coord = ParallelSortCoordinator(
        zm,
        budget_bytes=budget_bytes,
        shards=shards,
        compare_cost=25e-9,
        pack=sorter.pack,
        unpack=sorter.unpack,
        make_ctx=lambda: ThreadCtx(cpu=cpu, priority=5),
    )
    ctx = ThreadCtx(cpu=cpu)
    total = sum(len(k) + len(p) + 4 for k, p in records)

    def proc():
        out = yield from coord.sort(records, total, ctx)
        return out

    result = env.run(env.process(proc()))
    return result, coord, ssd, zm, cpu


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_parallel_sort_matches_serial(shards):
    records = random_records(3000, seed=7)
    expected = sorted(records, key=lambda r: r[0])
    result, coord, _, zm, _ = run_parallel_sort(
        records, budget_bytes=10 * MiB, shards=shards
    )
    assert result == expected
    assert 1 <= len(coord.last_plans) <= shards
    assert zm.allocated_clusters == 0


def test_parallel_sort_empty_and_singleton():
    result, *_ = run_parallel_sort([], budget_bytes=1024, shards=4)
    assert result == []
    result, *_ = run_parallel_sort([(b"k", b"v")], budget_bytes=1024, shards=4)
    assert result == [(b"k", b"v")]


def test_parallel_sort_all_keys_equal_collapses_to_one_shard():
    # Pivot dedup leaves a single bucket; the result must stay stable.
    records = [(b"same-key", f"payload-{i}".encode()) for i in range(500)]
    result, coord, _, _, _ = run_parallel_sort(records, budget_bytes=10 * MiB, shards=4)
    assert result == records  # stable: equal keys keep input order
    assert len(coord.last_plans) == 1


def test_parallel_sort_skewed_keys_leave_empty_shards():
    # Nearly all keys identical: most quantile pivots dedup away, so fewer
    # buckets than shards exist; the sort must still be correct and stable.
    records = [(b"hot", f"p{i:04d}".encode()) for i in range(900)]
    records += [(b"z-cold", f"q{i:04d}".encode()) for i in range(10)]
    expected = sorted(records, key=lambda r: r[0])
    result, coord, _, _, _ = run_parallel_sort(records, budget_bytes=10 * MiB, shards=4)
    assert result == expected
    assert len(coord.last_plans) <= 4


def test_parallel_sort_budget_below_one_merge_buffer_per_shard():
    # Shard budget < MERGE_BUFFER_BYTES: fan-in clamps to 2 and the shard
    # sorts spill; output must still match a serial stable sort.
    records = random_records(2000, seed=8)
    expected = sorted(records, key=lambda r: r[0])
    total = sum(len(k) + len(p) + 4 for k, p in records)
    budget = min(4 * (MERGE_BUFFER_BYTES - KiB), max(4096, total // 4))
    assert budget // 4 < MERGE_BUFFER_BYTES
    result, coord, ssd, zm, _ = run_parallel_sort(records, budget_bytes=budget, shards=4)
    assert result == expected
    assert any(p.spills for p in coord.last_plans)
    assert ssd.stats.bytes_written > 0
    assert zm.allocated_clusters == 0


def test_parallel_sort_spreads_work_across_cores():
    records = random_records(4000, seed=9)
    _, _, _, _, cpu = run_parallel_sort(records, budget_bytes=10 * MiB, shards=4)
    # make_ctx hands each shard its own floating context over a 4-core pool,
    # so concurrent shard sorts land on distinct cores
    assert sum(1 for t in cpu.busy_time if t > 0) >= 2


def test_parallel_sort_rejects_bad_shard_count():
    env = Environment()
    sorter, _, zm = make_sorter(env, 1 * MiB)
    with pytest.raises(SimulationError):
        ParallelSortCoordinator(
            zm,
            budget_bytes=1 * MiB,
            shards=0,
            compare_cost=25e-9,
            pack=sorter.pack,
            unpack=sorter.unpack,
        )


# ------------------------------------------- compaction order: lists and columns
def _compaction_records(n, seed=1, klen=8, dup_every=5, mixed_widths=False):
    """(key, seq, pointer|None) records: duplicate keys across seqs, tombstones."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2**32, size=n)
    records = []
    for i, k in enumerate(base):
        key = int(k).to_bytes(klen, "big")
        if mixed_widths:
            key = key[: 1 + i % klen]
        records.append((key, i, (i % 7, 64 * i, 48)))
        if i % dup_every == 0:
            records.append((key, n + i, None if i % 2 else (1, i, 48)))
    return records


def _compaction_key(record):
    return (record[0], -record[1][0])  # key ascending, seq descending


def _list_sorter(zm, budget_bytes, shards):
    """The tuple-list sort perf/micro.py and PR 6 drove compaction through."""
    return ParallelSortCoordinator(
        zm,
        budget_bytes=budget_bytes,
        shards=shards,
        compare_cost=25e-9,
        pack=lambda recs: pack_klog_records([(k, s, p) for k, (s, p) in recs]),
        unpack=lambda blob: [(k, (s, p)) for k, s, p in unpack_klog_records(blob)],
        sort_key=_compaction_key,
        key_kind="key_seq_desc",
    )


def _column_sorter(zm, budget_bytes, shards):
    return ParallelSortCoordinator(
        zm,
        budget_bytes=budget_bytes,
        shards=shards,
        compare_cost=25e-9,
        pack=KlogColumns.pack,
        unpack=lambda blob: KlogColumns.from_blobs([blob]),
    )


def _run_compaction_sort(make_coordinator, batch, total_bytes, budget_bytes, shards):
    env = Environment()
    _sorter, ssd, zm = make_sorter(env, budget_bytes)
    coord = make_coordinator(zm, budget_bytes, shards)
    ctx = ThreadCtx(cpu=CpuPool(env, 4))
    out = env.run(env.process(coord.sort(batch, total_bytes, ctx)))
    plans = [(p.total_bytes, p.n_runs, p.n_merge_passes) for p in coord.last_plans]
    return out, env.now, ssd.stats.bytes_written, plans, zm.allocated_clusters


@pytest.mark.parametrize("n", [10, 500])
def test_key_seq_desc_sort_matches_python_sorted(n):
    env = Environment()
    _sorter, _ssd, zm = make_sorter(env, budget_bytes=1 * MiB)
    sorter = ExternalSorter(
        zm, 1 * MiB, 25e-9, pack=None, unpack=None,
        sort_key=_compaction_key, key_kind="key_seq_desc",
    )
    records = [(k, (s, p)) for k, s, p in _compaction_records(n)]
    assert sorter._sorted(list(records)) == sorted(records, key=_compaction_key)


def test_key_seq_desc_variable_width_keys_fall_back():
    env = Environment()
    _sorter, _ssd, zm = make_sorter(env, budget_bytes=1 * MiB)
    sorter = ExternalSorter(
        zm, 1 * MiB, 25e-9, pack=None, unpack=None,
        sort_key=_compaction_key, key_kind="key_seq_desc",
    )
    records = [(b"k" * (1 + i % 3), (i, b"")) for i in range(200)]
    assert sorter._sorted(list(records)) == sorted(records, key=_compaction_key)


@pytest.mark.parametrize("mixed_widths", [False, True])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("spill", [False, True])
def test_column_batch_sort_equals_record_list_sort(mixed_widths, shards, spill):
    # Same records, same order, same simulated charges: the column batch is
    # the record list in another shape, so bucket sizes, spill plans, temp
    # I/O and the clock must not be able to tell them apart.
    records = _compaction_records(2000, mixed_widths=mixed_widths)
    total = len(pack_klog_records(records))
    budget = total // 5 if spill else 10 * MiB
    as_list = [(k, (s, p)) for k, s, p in records]
    expected, *model = _run_compaction_sort(_list_sorter, as_list, total, budget, shards)
    assert expected == sorted(as_list, key=_compaction_key)
    got, *column_model = _run_compaction_sort(
        _column_sorter, KlogColumns.from_records(records), total, budget, shards
    )
    assert isinstance(got.keys, list) == mixed_widths
    assert unpack_klog_records(got.pack()) == [(k, s, p) for k, (s, p) in expected]
    assert column_model == model
    assert model[-1] == 0  # temp clusters released
    assert (model[1] > 0) == spill


@pytest.mark.parametrize("n", [0, 1])
def test_column_batch_sort_empty_and_singleton(n):
    batch = KlogColumns.from_records(_compaction_records(5)[:n])
    got, *_ = _run_compaction_sort(_column_sorter, batch, 64, 1024, 4)
    assert got.pack() == batch.pack()


def test_coordinator_forwards_key_kind_only_with_custom_key():
    env = Environment()
    _sorter, _ssd, zm = make_sorter(env, budget_bytes=1 * MiB)
    coord = ParallelSortCoordinator(
        zm,
        budget_bytes=1 * MiB,
        shards=2,
        compare_cost=25e-9,
        pack=lambda recs: b"",
        unpack=lambda blob: [],
        key_kind="key_seq_desc",
    )
    # key_kind without a matching sort_key must not engage the lexsort path
    assert coord.key_kind is None
