"""The README quickstart snippet must actually work as written."""


def test_readme_quickstart_snippet():
    from repro.bench import build_kvcsd_testbed

    tb = build_kvcsd_testbed(seed=1)
    client, env, ctx = tb.client, tb.env, tb.thread_ctx(core=0)

    def app():
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        yield from client.bulk_put("ks", [(b"key", b"value")], ctx)
        yield from client.compact("ks", ctx)
        yield from client.wait_for_device("ks", ctx)
        value = yield from client.get("ks", b"key", ctx)
        assert value == b"value"

    env.run(env.process(app()))
    assert env.now > 0


def test_readme_power_cycle_snippet():
    from repro.bench import build_kvcsd_testbed

    tb = build_kvcsd_testbed(seed=1, bloom_bits_per_key=10)
    client, env, ctx = tb.client, tb.env, tb.thread_ctx(core=0)

    def app():
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        yield from client.bulk_put("ks", [(b"key", b"value")], ctx)
        yield from client.compact("ks", ctx)
        yield from client.wait_for_device("ks", ctx)      # durability barrier

    env.run(env.process(app()))

    # power cycle: DRAM is gone, NAND persists; a fresh SoC mounts the flash
    mount_seconds = tb.power_cycle()

    def read_back():
        value = yield from tb.client.get("ks", b"key", ctx)  # blooms reloaded, not rebuilt
        assert value == b"value"

    env.run(env.process(read_back()))
    assert mount_seconds > 0
    assert tb.device.stats.counter("blooms_reloaded").value == 1


def test_readme_async_snippet():
    from repro.bench import build_kvcsd_testbed

    tb = build_kvcsd_testbed(seed=1, query_workers=4, queue_depth=16)
    client, env, ctx = tb.client, tb.env, tb.thread_ctx(core=0)

    def app():
        yield from client.create_keyspace("ks", ctx)
        yield from client.open_keyspace("ks", ctx)
        tickets = []
        for i in range(64):
            t = yield from client.put_async("ks", b"k%03d" % i, b"v" * 32, ctx)
            tickets.append(t)
        for t in tickets:
            yield from client.wait(t, ctx)
        yield from client.compact("ks", ctx)
        yield from client.wait_for_device("ks", ctx)
        t = yield from client.get_async("ks", b"k007", ctx)
        completion = yield from client.wait(t, ctx)
        assert completion.value == b"v" * 32

    env.run(env.process(app()))
    assert client.qp.submitted == client.qp.completed == client.qp.reaped


def test_readme_performance_knobs_snippet():
    from repro.bench import build_kvcsd_testbed

    tb = build_kvcsd_testbed(
        seed=1,
        compaction_shards=4,
        block_cache_bytes=8 << 20,
    )
    assert tb.device.compaction_shards == 4
    assert tb.device.block_cache is not None
    assert tb.board.spec.block_cache_bytes == 8 << 20
