"""Differential test: columnar compaction versus its per-record loops.

Compaction carries its records as numpy columns whenever the input allows
(uniform key width, enough records to pay for numpy dispatch) and runs
per-record loops otherwise.  Which of the two runs must not be observable:
for any keyspace history the flash contents, the published index, the
filters, the pair count and the simulated clock have to agree.  The loops
are forced here by lifting the size thresholds the code selects on — the
only switch there is — and both runs are also checked against a dict.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import klog, pidx, vlog
from repro.core.pidx import read_block_entries
from repro.lsm import bloom

from tests.core.conftest import CsdTestbed

NEVER = 10**9


def forced_loops() -> ExitStack:
    """Lift every array-path threshold out of reach."""
    stack = ExitStack()
    for module, threshold in (
        (klog, "_VECTOR_MIN_RECORDS"),
        (pidx, "_VECTOR_MIN_ENTRIES"),
        (vlog, "_VECTOR_MIN_VALUES"),
        (bloom, "_VECTOR_MIN_KEYS"),
    ):
        stack.enter_context(mock.patch.object(module, threshold, NEVER))
    return stack


# A two-symbol alphabet with NUL makes duplicate keys across flushes, keys
# that differ only in trailing NULs, and keys that are all NULs likely.
key_bytes = st.sampled_from([b"\x00", b"a", b"\xff"])


@st.composite
def histories(draw):
    """``(shards, [("put", pairs) | ("delete", keys), ...])``."""
    uniform_width = draw(st.one_of(st.none(), st.integers(1, 32)))
    uniform_value = draw(st.one_of(st.none(), st.integers(1, 120)))

    def key():
        width = uniform_width or draw(st.integers(1, 32))
        head = b"".join(draw(st.lists(key_bytes, min_size=1, max_size=min(width, 4))))
        return head.ljust(width, draw(key_bytes))[:width]

    def value():
        size = uniform_value or draw(st.integers(1, 200))
        return bytes([draw(st.integers(0, 255))]) * size

    ops = []
    for _ in range(draw(st.integers(0, 6))):
        count = draw(st.integers(1, 80))
        if draw(st.integers(0, 4)) == 0:
            ops.append(("delete", [key() for _ in range(count)]))
        else:
            ops.append(("put", [(key(), value()) for _ in range(count)]))
    return draw(st.sampled_from([1, 4])), ops


def compact_history(shards, ops):
    """Run the history, compact, and read back everything observable."""
    tb = CsdTestbed(
        compaction_shards=shards, bloom_bits_per_key=10, membuf_bytes=2048
    )
    out = {}

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        for kind, batch in ops:
            if kind == "put":
                yield from tb.client.bulk_put("ks", batch, tb.ctx)
            else:
                yield from tb.client.bulk_delete("ks", batch, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)
        out["now"] = tb.env.now
        ks = tb.device.keyspaces["ks"]
        sketch = ks.pidx_sketch
        out["n_pairs"] = ks.n_pairs
        out["pivots"] = list(sketch.pivots)
        out["block_pointers"] = list(sketch.block_pointers)
        out["blooms"] = {i: b.to_bytes() for i, b in sketch.blooms.items()}
        out["blocks"] = []
        for zone_id, offset, length in sketch.block_pointers:
            blob = yield from tb.ssd.read(zone_id, offset, length)
            out["blocks"].append(blob)
        out["sorted_values"] = []
        for cluster in ks.sorted_value_clusters:
            contents = yield from cluster.read_all()
            out["sorted_values"].append(contents)

    tb.run(proc())
    return out


def dict_model(ops):
    model = {}
    for kind, batch in ops:
        if kind == "put":
            model.update(batch)
        else:
            for key in batch:
                model.pop(key, None)
    return model


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(histories())
@example((4, [("put", [(bytes([i, 0]), b"v" * 9) for i in range(200)])]))
@example((1, [("put", [(b"k\x00", b"old")] * 9), ("delete", [b"k\x00"] * 8)]))
def test_column_compaction_equals_per_record_loops(history):
    shards, ops = history
    columns = compact_history(shards, ops)
    with forced_loops():
        loops = compact_history(shards, ops)
    assert columns == loops
    # ... and both are right: the index holds the dict's pairs, in key order
    model = dict_model(ops)
    zones = {z: blob for contents in columns["sorted_values"] for z, blob in contents.items()}
    pairs = [
        (key, zones[zone_id][offset : offset + length])
        for blob in columns["blocks"]
        for key, (zone_id, offset, length) in read_block_entries(blob)
    ]
    assert pairs == sorted(model.items())
    assert columns["n_pairs"] == len(model)


def test_uniform_history_takes_the_column_path():
    # the property above is vacuous unless the default selection really
    # differs from the forced one on uniform input
    records = [(bytes([i, 0]), i, (1, i, 4)) for i in range(200)]
    blob = klog.pack_klog_records(records)
    assert isinstance(klog.KlogColumns.from_blobs([blob]).keys, np.ndarray)
    with mock.patch.object(klog, "_VECTOR_MIN_RECORDS", NEVER):
        assert isinstance(klog.KlogColumns.from_blobs([blob]).keys, list)
