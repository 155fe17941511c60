"""The router's one owner split posts what the per-key loops posted.

Every grouped path — bulk PUT, bulk delete, multi-GET (primary and shadow
groups) and the rebalancer's migration copy and verify — is held to
``router_reference``'s loops as ``(device, command)`` lists in order, over
key sets with duplicates (and the empty set), 1–3 replicas, a chain of up
to 11 completed migrations (so fragments ``ks.m2`` … ``ks.m11`` test the
string order of physical keyspaces), and an active migration (ready or
not) or none.  Replica picks see drawn queue depths, ties included.  The
scan filters — a range query's merge and the migration scan's
:meth:`LogicalKeyspace.held` — are held to the per-row ``holds`` loops
over drawn runs of authoritative and stale rows from every slice.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter, HashRing, LogicalKeyspace
from repro.cluster.router import _Migration
from repro.core.wire import split_into_messages
from repro.nvme.kv_commands import KvBulkDeleteCmd, KvBulkPutCmd

from tests.cluster import router_reference as ref

DEVICES = ("dev0", "dev1", "dev2", "dev3", "dev4")
#: keys of several lengths, few enough that draws repeat them
KEYS = [b"k%d" % i for i in range(24)] + [b"key-%04d" % i for i in range(24)]
#: one drawn ring change: a device and a weight (None adds or removes it)
CHANGES = st.tuples(st.sampled_from(DEVICES), st.sampled_from([None, 0.5, 3.0]))
#: 0–11 completed migrations, every length equally likely
CHAINS = st.integers(0, 11).flatmap(
    lambda n: st.lists(CHANGES, min_size=n, max_size=n)
)


def _router(inflight, message_bytes, replicas):
    env = SimpleNamespace(probe=None)
    clients = [
        (name, SimpleNamespace(
            env=env, qp=SimpleNamespace(inflight=depth),
            bulk_message_bytes=message_bytes,
        ))
        for name, depth in zip(DEVICES, inflight)
    ]
    return ClusterRouter(
        clients, ring=HashRing(DEVICES[:3], vnodes=8), replicas=replicas
    )


def _posted(router, call):
    """The targets ``call`` fans out, with every completion empty."""
    posted = []

    def fan_out(targets, ctx, op, **span_args):
        targets = list(targets)
        posted.extend(targets)
        return [SimpleNamespace(ok=True, value={}) for _ in targets]
        yield  # a generator, like the real fan-out

    def execute(seconds):
        return
        yield

    router._fan_out = fan_out
    for _ in call(SimpleNamespace(execute=execute)):
        pass
    return posted


def _scanned(router, lk, rng):
    """Range-query runs as every slice returns them: each holds a random
    subset of the keys, authoritative there or not, valued by slice."""
    runs = [
        [
            (key, key + b"@" + phys.encode())
            for key in sorted(set(KEYS))
            if rng.random() < 0.4
        ]
        for _dev, phys in lk.physical_locations()
    ]
    completions = iter(runs)

    def fan_out(targets, ctx, op, **span_args):
        return [SimpleNamespace(ok=True, value=next(completions)) for _ in targets]
        yield  # a generator, like the real fan-out

    def execute(seconds):
        return
        yield

    router._fan_out = fan_out
    gen = router.range_query("ks", b"", b"\xff", SimpleNamespace(execute=execute))
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return runs, stop.value


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(KEYS), st.binary(max_size=24)), max_size=40
    ),
    replicas=st.integers(1, 3),
    inflight=st.lists(st.integers(0, 2), min_size=5, max_size=5),
    message_bytes=st.integers(24, 256),
    past=CHAINS,
    migration=st.none() | CHANGES,
    ready=st.booleans(),
    scan_seed=st.integers(0, 2**32 - 1),
)
def test_split_targets_match_the_per_key_loops(
    pairs, replicas, inflight, message_bytes, past, migration, ready, scan_seed
):
    router = _router(inflight, message_bytes, replicas)
    lk = LogicalKeyspace("ks", router.ring, replicas)
    for epoch, (dev, weight) in enumerate(past, start=1):
        lk.rings.append(ref.ring_change(lk.rings[-1], dev, weight))
        lk.fragment_devices[epoch] = lk.rings[-1].devices
    if migration is not None:
        lk.migration = _Migration(
            ref.ring_change(lk.rings[-1], *migration), len(lk.rings)
        )
        lk.migration.fragment_ready = ready
    router.keyspaces["ks"] = lk
    keys = [key for key, _ in pairs]

    # both scan filters drop stale copies as the per-row holds loop does
    sources = lk.physical_locations()
    # one seed, not a drawn random: a draw per row would overrun long chains
    runs, merged = _scanned(router, lk, random.Random(scan_seed))
    assert merged == ref.scatter_rows(lk, sources, runs, sort_key=lambda row: row[0])
    for (dev, phys), run in zip(sources, runs):  # the migration scan's filter
        assert lk.held(dev, phys, run) == [
            row for row in run if ref.holds(lk, dev, phys, row[0])
        ]

    put = _posted(router, lambda ctx: router.bulk_put("ks", pairs, ctx))
    delete = _posted(router, lambda ctx: router.bulk_delete("ks", keys, ctx))
    if pairs:
        assert put == ref.bulk_put_targets(router, lk, pairs)
        assert delete == ref.bulk_delete_targets(router, lk, keys)
    else:  # one empty message to the first base shard
        assert put == [("dev0", KvBulkPutCmd.of("ks", []))]
        assert delete == [("dev0", KvBulkDeleteCmd(keyspace="ks", keys=()))]
    assert _posted(
        router, lambda ctx: router.multi_get("ks", keys, ctx)
    ) == ref.multi_get_targets(router, lk, keys)

    if migration is None:
        return
    # the migration copies the scan's authoritative rows: one per key
    rows = list(dict(pairs).items())
    copy = router._split(lk, [key for key, _ in rows], write=True, pending=True)
    assert [
        (dev, KvBulkPutCmd.of(phys, message))
        for dev, phys, idx in copy
        for message in split_into_messages(
            [rows[i] for i in idx], message_bytes
        )
    ] == ref.migration_copy_targets(router, lk, rows)
    moved = [key for key, _ in rows if ref.moves(lk, key)]
    verify, n_old = router._multi_get_targets(lk, moved, dual=True)
    expect = ref.migration_verify_targets(router, lk, moved)
    assert verify == expect
    fragment = lk.fragment_name(lk.migration.epoch)
    assert [cmd.keyspace == fragment for _, cmd in verify] == [
        j >= n_old for j in range(len(verify))
    ]


def test_physical_keyspaces_group_in_string_order():
    """Eleven migrations leave ``ks.m10``/``ks.m11`` groups beside
    ``ks.m2``… on one device; they come in name order, as ``sorted`` puts
    them, not in epoch order."""
    router = _router([0] * 5, 64, 1)
    lk = LogicalKeyspace("ks", router.ring, 1)
    for change in [
        ("dev3", 0.5), ("dev0", 0.5), ("dev4", 0.5), ("dev3", 0.5),
        ("dev3", 0.5), ("dev4", None), ("dev4", None), ("dev2", None),
        ("dev0", 3.0), ("dev2", 3.0), ("dev4", None),
    ]:
        lk.rings.append(ref.ring_change(lk.rings[-1], *change))
    router.keyspaces["ks"] = lk
    pairs = [(key, key) for key in KEYS]
    put = _posted(router, lambda ctx: router.bulk_put("ks", pairs, ctx))
    assert put == ref.bulk_put_targets(router, lk, pairs)
    groups = {}
    for dev, phys, _ in router._split(lk, KEYS, write=True):
        groups.setdefault(dev, []).append(phys)
    assert any(
        {"ks.m10", "ks.m11"} & set(names) and "ks.m9" in names
        for names in groups.values()
    ), groups
    assert all(names == sorted(names) for names in groups.values())
