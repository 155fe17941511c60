"""The router's one owner split posts what the per-key loops posted.

Every grouped path — bulk PUT, bulk delete, multi-GET (primary and shadow
groups) and the rebalancer's migration copy and verify — is held to
``router_reference``'s loops as ``(device, command)`` lists in order, over
key sets with duplicates (and the empty set), 1–3 replicas, a completed
past migration or none, and an active migration (ready or not) or none.
Replica picks see drawn queue depths, ties included.
"""

from __future__ import annotations

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
#: the ring an active migration moves to, from the keyspace's newest ring
MIGRATIONS = {
    "add": lambda ring: ring.add_device("dev4"),
    "remove": lambda ring: ring.remove_device("dev1"),
    "reweight": lambda ring: HashRing(
        ring.devices, vnodes=ring.vnodes, weights={"dev0": 3.0}, salt=ring.salt
    ),
}


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


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(KEYS), st.binary(max_size=24)), max_size=40
    ),
    replicas=st.integers(1, 3),
    inflight=st.lists(st.integers(0, 2), min_size=5, max_size=5),
    message_bytes=st.integers(24, 256),
    past_migration=st.booleans(),
    migration=st.sampled_from([None, *MIGRATIONS]),
    ready=st.booleans(),
)
def test_split_targets_match_the_per_key_loops(
    pairs, replicas, inflight, message_bytes, past_migration, migration, ready
):
    router = _router(inflight, message_bytes, replicas)
    lk = LogicalKeyspace("ks", router.ring, replicas)
    if past_migration:
        lk.rings.append(router.ring.add_device("dev3"))
        lk.fragment_devices[1] = ("dev3",)
    if migration is not None:
        lk.migration = _Migration(MIGRATIONS[migration](lk.rings[-1]), len(lk.rings))
        lk.migration.fragment_ready = ready
    router.keyspaces["ks"] = lk
    keys = [key for key, _ in pairs]

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
