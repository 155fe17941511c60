"""The batched table build and compaction against their per-entry references.

Same file bytes, same :class:`TableMeta`, same bloom bits and the same
virtual clock: the block-at-a-time path must be indistinguishable from
adding entries one by one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import TableBuilder, TableReader
from repro.lsm.compaction import CompactionExecutor
from repro.lsm.sstable import encode_value
from repro.lsm.version import CompactionTask

from tests.lsm.conftest import LsmTestbed, small_options
from tests.lsm.reference import ReferenceCompactionExecutor, ReferenceTableBuilder

keys = st.binary(min_size=1, max_size=24)
values = st.one_of(st.none(), st.binary(min_size=0, max_size=48))
runs = st.dictionaries(keys, values, min_size=1, max_size=120).map(
    lambda d: sorted(d.items())
)
block_sizes = st.sampled_from([256, 300, 512])


def _file_bytes(tb, path):
    def read():
        return (yield from tb.fs.read(path, 0, tb.fs.file_size(path), tb.fg))

    return tb.run(read())


def _bloom(tb, meta):
    reader = TableReader(tb.fs, meta, tb.db.options)
    tb.run(reader._load_footer_and_index(tb.fg))
    return reader._bloom


def _build_both(entries, options):
    """Build ``entries`` on two fresh testbeds, batched and per entry;
    returns ``(testbed, meta, now)`` for each."""
    expected = len(entries)
    batched_tb, reference_tb = LsmTestbed(options=options), LsmTestbed(options=options)

    builder = TableBuilder(batched_tb.fs, "t.sst", 1, options, expected)
    stored = [(key, encode_value(value)) for key, value in entries]
    batched_meta = batched_tb.run(builder.build(stored, batched_tb.fg))
    batched = (batched_tb, batched_meta, batched_tb.env.now)

    def per_entry():
        ref = ReferenceTableBuilder(reference_tb.fs, "t.sst", 1, options, expected)
        for key, value in entries:
            yield from ref.add(key, value, reference_tb.fg)
        return (yield from ref.finish(reference_tb.fg))

    reference_meta = reference_tb.run(per_entry())
    return batched, (reference_tb, reference_meta, reference_tb.env.now)


def _assert_identical(batched, reference):
    (b_tb, b_meta, b_now), (r_tb, r_meta, r_now) = batched, reference
    assert b_meta == r_meta
    assert b_now == r_now
    assert _file_bytes(b_tb, b_meta.path) == _file_bytes(r_tb, r_meta.path)
    b_bloom, r_bloom = _bloom(b_tb, b_meta), _bloom(r_tb, r_meta)
    assert b_bloom.n_added == r_bloom.n_added == b_meta.n_entries
    assert b_bloom.to_bytes() == r_bloom.to_bytes()


@settings(max_examples=60, deadline=None)
@given(runs, block_sizes)
def test_batched_build_is_byte_identical_to_per_entry_adds(entries, block_bytes):
    """Variable-width keys and values, empty values and tombstones."""
    options = small_options(block_bytes=block_bytes)
    _assert_identical(*_build_both(entries, options))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 40))
def test_blocks_that_land_exactly_on_block_bytes(n_entries):
    """Entries of 32 bytes fill a 256-byte block exactly after eight; the
    next entry starts a new block in both builds."""
    options = small_options(block_bytes=256)
    # 8 (length fields) + 7-byte key + 17 stored bytes (prefix + 16) = 32
    entries = [(b"k%06d" % i, bytes(16)) for i in range(n_entries)]
    batched, reference = _build_both(entries, options)
    _assert_identical(batched, reference)
    if n_entries >= 8:
        reader = TableReader(batched[0].fs, batched[1], options)
        batched[0].run(reader._load_footer_and_index(batched[0].fg))
        # 256 entry bytes + 8 offsets + the count: the block closed exactly
        assert reader._index[0][2] == 256 + 4 * 8 + 4


@settings(max_examples=25, deadline=None)
@given(
    st.lists(runs, min_size=1, max_size=4),
    st.booleans(),
    st.sampled_from([600, 1500, 64 * 1024]),
)
def test_compaction_matches_per_entry_reference(layers, to_bottom, target_file_bytes):
    """Newest-wins across overlapping inputs, tombstones kept or dropped,
    outputs split at ``target_file_bytes``: same tables, same bytes, same
    clock, same table ids."""
    options = small_options(block_bytes=256, target_file_bytes=target_file_bytes)
    results = []
    for executor_cls in (CompactionExecutor, ReferenceCompactionExecutor):
        tb = LsmTestbed(options=options)
        inputs = []
        for i, entries in enumerate(layers):  # layers[0] is the newest
            builder = TableBuilder(tb.fs, f"in{i}.sst", 100 + i, options, len(entries))
            stored = [(key, encode_value(value)) for key, value in entries]
            inputs.append(tb.run(builder.build(stored, tb.fg)))
        ids = iter(range(1, 1000))
        executor = executor_cls(
            tb.fs,
            options,
            reader_for=lambda meta, tb=tb: TableReader(tb.fs, meta, options),
            next_table_id=lambda: next(ids),
            table_path=lambda table_id: f"out{table_id}.sst",
        )
        task = CompactionTask(
            level=0,
            inputs=tuple(inputs[:-1]),
            next_level_inputs=tuple(inputs[-1:]),
            to_bottom=to_bottom,
        )
        result = tb.run(executor.run(task, tb.fg))
        files = [_file_bytes(tb, meta.path) for meta in result.outputs]
        results.append(
            (result.outputs, result.entries_in, result.entries_out, tb.env.now, files)
        )
    batched, reference = results
    assert batched == reference
    if target_file_bytes == 600 and batched[2] > 40:
        assert len(batched[0]) > 1  # the output really was split
