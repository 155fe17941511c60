"""The columnar bulk-PUT path against its per-pair reference.

The client, the dispatcher, the membuf and the flush carry one message as
a (keys, values) column pair; :mod:`tests.core.ingest_reference` keeps the
row-at-a-time path they replaced.  Both must write the same bytes to every
zone, flush at the same points and end at the same virtual time.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.membuf import MemBuffer
from repro.core.wire import split_into_messages as columnar_split

from tests.core.conftest import CsdTestbed
from tests.core.ingest_reference import (
    ReferenceMemBuffer,
    client_bulk_put,
    install_reference_ingest,
    split_into_messages,
)


@st.composite
def scripts(draw):
    """Batches of pairs (each followed by 0-3 deletes of its keys), a
    message budget and a membuf capacity.  Key and value widths are each
    either uniform or mixed; values may be empty; one batch may carry a
    pair larger than a whole message."""
    klen = draw(st.one_of(st.none(), st.integers(1, 24)))
    vlen = draw(st.one_of(st.none(), st.integers(0, 64)))
    keys = st.binary(min_size=klen or 1, max_size=klen or 24)
    values = st.binary(
        min_size=0 if vlen is None else vlen, max_size=64 if vlen is None else vlen
    )
    budget = draw(st.sampled_from([64, 300, 1024, 4096]))
    batches = draw(
        st.lists(
            st.tuples(
                st.lists(st.tuples(keys, values), max_size=120),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    if draw(st.booleans()):
        pairs, deletes = batches[draw(st.integers(0, len(batches) - 1))]
        at = draw(st.integers(0, len(pairs)))
        pairs.insert(at, (draw(keys), bytes(budget + draw(st.integers(1, 300)))))
    membuf = draw(st.sampled_from([1024, 3000, 8192]))
    return batches, budget, membuf


def _run(script, reference: bool):
    """Play ``script`` on a fresh testbed; returns what must not differ."""
    batches, budget, membuf_bytes = script
    tb = CsdTestbed(membuf_bytes=membuf_bytes, cluster_zones=2)
    tb.client.bulk_message_bytes = budget
    if reference:
        install_reference_ingest(tb.device)
    ingest = tb.device.ingest
    flushes = []
    flush = ingest.flush

    def recording_flush(ks, ctx):
        flushes.append((tb.env.now, ks.name, len(ks.membuf)))
        yield from flush(ks, ctx)

    ingest.flush = recording_flush
    client, ctx = tb.client, tb.ctx

    def play():
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        for pairs, deletes in batches:
            if reference:
                yield from client_bulk_put(client, "ks", pairs, ctx)
            else:
                yield from client.bulk_put("ks", pairs, ctx)
            if deletes and pairs:
                yield from client.bulk_delete("ks", [k for k, _ in pairs[:deletes]], ctx)
        yield from client.fsync("ks", ctx)
        return (yield from client.keyspace_stat("ks", ctx))

    with patch("repro.core.keyspace.MemBuffer", ReferenceMemBuffer if reference else MemBuffer):
        stat = tb.run(play())
    zones = [(z.state, z.write_pointer, z.read(0, z.write_pointer)) for z in tb.device.ssd.zones]
    return zones, flushes, stat, tb.env.now


@settings(max_examples=40, deadline=None)
@given(scripts())
def test_columnar_ingest_matches_the_per_pair_path(script):
    columnar = _run(script, reference=False)
    reference = _run(script, reference=True)
    assert columnar[0] == reference[0]  # every zone, byte for byte
    assert columnar[1] == reference[1]  # flush points: time, keyspace, pairs
    assert columnar[2:] == reference[2:]  # keyspace stat, env.now


@st.composite
def pair_lists(draw):
    """Pairs whose keys and values are each of one width or of mixed widths."""
    klen = draw(st.one_of(st.none(), st.integers(1, 6)))
    vlen = draw(st.one_of(st.none(), st.integers(0, 6)))
    keys = st.binary(min_size=klen or 1, max_size=klen or 6)
    values = st.binary(
        min_size=0 if vlen is None else vlen, max_size=6 if vlen is None else vlen
    )
    return draw(st.lists(st.tuples(keys, values), max_size=40))


@settings(max_examples=200, deadline=None)
@given(pair_lists(), st.sampled_from([16, 40, 100, 4096]))
def test_split_matches_the_per_pair_split(pairs, budget):
    assert columnar_split(pairs, budget) == split_into_messages(pairs, budget)
