"""One ticket lifecycle: inline submit, observed submit and post + wait agree.

The unobserved ``KvQueuePair.submit`` runs the device side that ``post``
spawns in the caller's process; an observed ``submit`` is ``post`` +
``wait``.  For an OK command, an error completion and an exception raised
on the device side, all three must land on the same virtual instant, leave
the same counters and surface the same exception type.
"""

import pytest

from repro.errors import KeyNotFoundError
from repro.nvme.kv_commands import KvGetCmd, OpenKeyspaceCmd
from repro.obs.audit import check_queue_pair_accounting
from repro.obs.trace import install_tracer

from tests.core.conftest import CsdTestbed, make_pairs

PAIRS = make_pairs(300)


class _FaultyExecutor:
    """Device side that spends a little SoC time, then fails untyped."""

    def execute(self, command, ctx):
        yield from ctx.execute(2e-6)
        raise RuntimeError("firmware fault")


def _loaded():
    tb = CsdTestbed()

    def setup():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.open_keyspace("ks", tb.ctx)
        yield from tb.client.bulk_put("ks", PAIRS, tb.ctx)
        yield from tb.client.compact("ks", tb.ctx)
        yield from tb.client.wait_for_device("ks", tb.ctx)

    tb.run(setup())
    return tb


def _run_one(path: str, case: str):
    tb = _loaded()
    qp = tb.client.qp
    if path == "observed":
        install_tracer(tb.env)
    if case == "raise":
        qp.executor = _FaultyExecutor()
    key = PAIRS[7][0] if case == "ok" else b"absent-key"
    command = KvGetCmd(keyspace="ks", key=key)

    def proc():
        if path == "posted":
            ticket = yield from qp.post(command, tb.ctx, op="get")
            return (yield from qp.wait(ticket, tb.ctx))
        return (yield from qp.submit(command, tb.ctx, op="get"))

    t0 = tb.env.now
    raised = None
    try:
        completion = tb.run(proc())
    except Exception as exc:  # noqa: BLE001 - the type is the observable
        raised = type(exc)
    else:
        assert completion.value == PAIRS[7][1]
    assert check_queue_pair_accounting(qp) == []
    return tb.env.now - t0, qp.introspect(), raised


@pytest.mark.parametrize(
    "case, expected",
    [("ok", None), ("error", KeyNotFoundError), ("raise", RuntimeError)],
)
def test_inline_observed_and_posted_paths_agree(case, expected):
    results = {
        path: _run_one(path, case) for path in ("inline", "observed", "posted")
    }
    elapsed, counters, raised = results["inline"]
    assert elapsed > 0
    assert raised is expected
    for path in ("observed", "posted"):
        assert results[path] == (elapsed, counters, raised), path
    assert counters["inflight"] == counters["unreaped"] == 0
    assert counters["errors"] == (1 if case == "raise" else 0)


def test_untyped_device_failure_ends_the_command_span():
    """A non-ReproError escaping the device side still closes ``cmd.*``."""
    tb = CsdTestbed()
    tracer = install_tracer(tb.env)

    def broken_open(name, ctx):
        yield from ctx.execute(1e-6)
        raise RuntimeError("open exploded")

    tb.device.open_keyspace = broken_open

    def proc():
        yield from tb.client.create_keyspace("ks", tb.ctx)
        yield from tb.client.qp.submit(OpenKeyspaceCmd(name="ks"), tb.ctx, op="open_keyspace")

    with pytest.raises(RuntimeError, match="open exploded"):
        tb.run(proc())
    (span,) = [s for s in tracer.spans if s.name == "cmd.open_keyspace"]
    assert span.end is not None
    assert span.args["error"] == "RuntimeError"
    assert check_queue_pair_accounting(tb.client.qp) == []
