"""Deterministic kernel-event budget: a CPU charge is one event, not a fan-out.

Counts scheduled kernel events (``env._counter`` deltas), so it needs no
wall clock and repeats exactly.  A ``CpuPool`` that again spends a request
per allowed core (six events per floating charge on the 4-core SoC) fails
both tests; the per-GET ceiling is the number measured when the pool-level
run queue landed and may only be raised with a reason.
"""

import pytest

from repro.bench import build_kvcsd_testbed
from repro.sim import CpuPool, Environment

#: scheduled kernel events for the 128 GETs below (17.6 per GET; the
#: per-core-Resource pool needed 6 482)
GET_EVENTS_CEILING = 2258


@pytest.mark.parametrize("placement", [{}, {"core": 2}, {"cores": (1, 3)}])
def test_uncontended_execute_schedules_at_most_two_events(placement):
    env = Environment()
    cpu = CpuPool(env, n_cores=4)
    spent = []

    def worker():
        before = env._counter
        yield from cpu.execute(1e-3, **placement)
        spent.append(env._counter - before)

    env.process(worker())
    env.run()
    assert spent[0] <= 2


def test_events_per_get_stay_under_the_pinned_ceiling():
    tb = build_kvcsd_testbed(
        seed=1,
        query_workers=4,
        compaction_shards=4,
        block_cache_bytes=1 << 20,
        bloom_bits_per_key=10,
    )
    client, env, ctx = tb.client, tb.env, tb.thread_ctx(core=0)
    pairs = [(b"key-%06d" % i, b"v%05d" % i * 8) for i in range(2048)]
    events = []

    def app():
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        yield from client.bulk_put("ks", pairs, ctx)
        yield from client.compact("ks", ctx)
        yield from client.wait_for_device("ks", ctx)
        before = env._counter
        for key, value in pairs[::16]:
            assert (yield from client.get("ks", key, ctx)) == value
        events.append(env._counter - before)

    env.run(env.process(app()))
    assert events[0] <= GET_EVENTS_CEILING
