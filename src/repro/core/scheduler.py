"""Device-side query scheduler: bounded admission + multi-core fan-out.

The paper's read-side claim is that queries are "entirely processed in a
computational storage device" (Section V) — but processing them *serially*
on whichever SoC core the caller's firmware context lands on leaves the
other Cortex-A53 cores idle while a GET waits on flash.  The scheduler
closes that gap the same way PR 1's compaction pipeline did for writes:
incoming query commands are admitted into a :class:`BoundedQueue` (bounded
depth = backpressure, mirroring a real firmware's command ring) and a fixed
pool of worker processes — ``SocSpec.query_workers``, clamped to
``n_cores`` — pops commands and executes them on their own firmware
contexts.  Concurrent GETs from different host threads then overlap SoC CPU
work of one query with flash reads of another instead of serializing.

Determinism contract (same as PR 1): scheduling changes *when* work runs,
never *what it computes* — a query's result is byte-identical whether it
runs inline (``query_workers=0``), on one worker, or on four.

Observability: admission and dispatch emit ``query.admit`` /
``query.dispatch`` journal events, admitted/dispatched counters and a
queue-depth histogram accumulate on the device's stats registry (exported
through :class:`~repro.obs.metrics.MetricsHub`), and a captured
:class:`~repro.obs.probe.TraceContext` travels with each queued command so
worker-side spans parent under the submitting command's span tree.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any, Optional

from repro.errors import SimulationError
from repro.obs.probe import TraceContext
from repro.sim.core import Environment, Event
from repro.sim.stats import StatsRegistry
from repro.sim.sync import BoundedQueue
from repro.soc.board import SocBoard

__all__ = ["QueryScheduler"]


class _QueuedQuery:
    """One admitted query command in flight through the scheduler."""

    __slots__ = ("op", "fn", "done", "seq", "tctx", "admit_at", "actor",
                 "token", "admit_holders")

    def __init__(
        self, op: str, fn: Callable[[Any], Generator], done: Event, seq: int
    ):
        self.op = op
        self.fn = fn
        self.done = done
        self.seq = seq
        # Observer stamps, filled at admission when a probe is installed:
        # the submitter's trace context, admit time, submitting op identity
        # and holder token, and the snapshot of ops the workers were
        # executing when this query got in line.
        self.tctx: Optional[TraceContext] = None
        self.admit_at: Optional[float] = None
        self.actor: Optional[tuple[str, Optional[int]]] = None
        self.token: Optional[str] = None
        self.admit_holders: tuple = ()


class QueryScheduler:
    """Fans query commands out across a pool of SoC worker processes.

    ``submit`` is the only entry point: it enqueues a thunk (a generator
    function taking a firmware :class:`~repro.host.threads.ThreadCtx`) and
    blocks the caller until a worker has run it, re-raising any exception
    the query raised — so callers see exactly the inline path's semantics,
    just with the CPU work happening on a worker core.
    """

    def __init__(
        self,
        env: Environment,
        board: SocBoard,
        n_workers: int,
        queue_depth: int = 64,
        stats: Optional[StatsRegistry] = None,
        owner: str = "kvcsd",
    ):
        if n_workers < 1:
            raise SimulationError("query scheduler needs at least one worker")
        self.env = env
        self.board = board
        #: owning device's name, stamped on journal events (cluster runs
        #: share one journal across N schedulers)
        self.owner = owner
        self.n_workers = n_workers
        self.queue = BoundedQueue(env, queue_depth, name="soc.query_queue")
        self.stats = stats
        self._admitted = 0
        self._busy = 0
        self._workers = [
            env.process(self._worker(i), name=f"query-worker-{i}")
            for i in range(n_workers)
        ]

    @property
    def depth(self) -> int:
        """Commands admitted but not yet popped by a worker."""
        return len(self.queue)

    def submit(self, op: str, fn: Callable[[Any], Generator]) -> Generator:
        """Admit one query and wait for its result (generator).

        ``fn(ctx)`` runs on a worker's own firmware context; its return
        value is handed back to the caller, and an exception it raises is
        re-raised here — the scheduler is transparent to query semantics.
        """
        env = self.env
        seq = self._admitted
        self._admitted += 1
        item = _QueuedQuery(op, fn, Event(env), seq)
        probe = env.probe
        if probe is not None:
            probe.event(
                "query.admit",
                {"dev": self.owner, "op": op, "seq": seq, "depth": len(self.queue)},
            )
            item.tctx = probe.capture()
            item.admit_at = env.now
            item.actor = probe.actor()
            item.token = probe.token()
            item.admit_holders = probe.holders("soc.query_queue")
        if self.stats is not None:
            self.stats.counter("query_admitted").add()
            self.stats.histogram("query_queue_depth").record(float(len(self.queue)))
        yield from self.queue.put(item)
        result = yield item.done
        return result

    def _worker(self, idx: int) -> Generator:
        """Forever-looping worker: pop, execute on a fresh firmware ctx."""
        env = self.env
        lane = f"query-worker-{idx}"
        while True:
            item = yield from self.queue.get()
            probe = env.probe
            if probe is not None:
                if item.admit_at is not None:
                    # Queue-sojourn edge: admitted -> dispatched, blocked
                    # behind whatever the workers ran at admission time.
                    probe.wait_edge(
                        "soc.query_queue", "queue", item.admit_at,
                        item.admit_holders, item.actor,
                    )
                probe.event(
                    "query.dispatch",
                    {"dev": self.owner, "op": item.op, "seq": item.seq,
                     "worker": idx},
                )
            if self.stats is not None:
                self.stats.counter("query_dispatched").add()
            ctx = self.board.firmware_ctx()
            if item.tctx is not None:
                # Parent this worker's spans under the submitting command.
                with item.tctx.activate(), probe.span(
                    "query.dispatch", "stage", lane,
                    {"op": item.op, "worker": idx},
                ):
                    yield from self._run(item, ctx)
            else:
                yield from self._run(item, ctx)

    def _run(self, item: _QueuedQuery, ctx: Any) -> Generator:
        """Execute one query, routing result/exception to the submitter."""
        self._busy += 1
        token = item.token
        if token is not None:
            # While executing, this op *holds* the scheduler: queries queued
            # behind it will name it in their blocked-by snapshots.
            self.env.probe.acquire("soc.query_queue", token)
        try:
            result = yield from item.fn(ctx)
        except Exception as exc:  # noqa: BLE001 - re-raised at the submitter
            item.done.fail(exc)
        else:
            item.done.succeed(result)
        finally:
            self._busy -= 1
            if token is not None:
                self.env.probe.release("soc.query_queue", token)

    @property
    def busy_workers(self) -> int:
        """Workers currently executing a query (in-flight depth gauge)."""
        return self._busy

    def introspect(self) -> dict:
        """Scheduler state for device snapshots (no simulation events)."""
        return {
            "n_workers": self.n_workers,
            "queue_capacity": self.queue.capacity,
            "queue_depth": len(self.queue),
            "admitted": self._admitted,
            "busy_workers": self._busy,
        }

    def metric_gauges(self) -> dict[str, Callable[[], float]]:
        """Instantaneous gauges for MetricsHub/timeline sampling."""
        return {
            "soc.query_queue_depth": lambda: float(len(self.queue)),
            "soc.query_busy_workers": lambda: float(self._busy),
        }
