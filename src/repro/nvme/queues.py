"""NVMe submission/completion queue pairs with true async post/reap.

A queue pair bounds the number of commands in flight (queue depth) — the
mechanism by which NVMe exposes device parallelism to software.  The API
mirrors a polled SPDK-style driver:

* ``post`` acquires a queue slot, sends the command, rings the doorbell and
  returns a :class:`CommandTicket` immediately; the device side executes
  the command in its own simulation process, so up to ``depth`` commands
  run concurrently.
* ``wait`` blocks on one ticket's completion (and surfaces an error CQE);
  ``poll`` reaps every completion that has already arrived without
  blocking.
* ``submit`` is ``post`` + ``wait`` — the synchronous path.

Both queue pairs share one ticket lifecycle (:class:`_TicketQueue`): slot,
cid, ticket, counters, completion and reap bookkeeping.  A command's life
is ``_send`` (open the ticket, take a slot, move the capsule) then
``_execute`` (the device side, then retire: count it, free the slot, post
the CQE).  :class:`QueuePair` binds a block/ZNS controller;
:class:`KvQueuePair` is the host client's KV command queue, which adds the
host-side pack/unpack CPU costs and the capsule and result DMA over the
link, and emits ``sq.post`` / ``cq.reap`` journal events plus per-command
trace spans.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import NvmeError, SimulationError
from repro.nvme.commands import Completion, NvmeCommand
from repro.nvme.kv_commands import COMMAND_WIRE_BYTES, KvCommand
from repro.obs.probe import NULL_SCOPE, TraceContext
from repro.sim.core import Environment, Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.nvme.controller import NvmeController
    from repro.obs.probe import SpanRecord

__all__ = ["CommandTicket", "QueuePair", "KvQueuePair"]


class CommandTicket:
    """One posted command's future: slot, completion event, timestamps."""

    __slots__ = ("cid", "command", "op", "event", "completion", "span",
                 "posted_at", "submitted_at", "completed_at", "result_bytes",
                 "_slot", "_reaped", "cp_token")

    def __init__(self, cid: int, command: NvmeCommand, op: str, event: Event,
                 span: Optional["SpanRecord"], posted_at: float):
        self.cid = cid
        self.command = command
        self.op = op
        self.event = event
        self.completion: Optional[Completion] = None
        self.span = span
        self.posted_at = posted_at  #: post() entry (before the slot wait)
        self.submitted_at = posted_at  #: doorbell rung (slot held, capsule sent)
        self.completed_at: Optional[float] = None
        self.result_bytes = 0
        self._slot = None
        self._reaped = False
        #: holder token registered with the critical-path observer while
        #: this command occupies a queue slot (None when the observer is off)
        self.cp_token: Optional[str] = None

    @property
    def done(self) -> bool:
        """The completion has been posted (the ticket can be reaped)."""
        return self.completion is not None

    def latency_split(self) -> tuple[float, float]:
        """(queue wait, execution) seconds for latency attribution."""
        end = self.completed_at if self.completed_at is not None else self.submitted_at
        return (self.submitted_at - self.posted_at, end - self.submitted_at)


class _TicketQueue:
    """The ticket lifecycle every queue pair shares.

    Subclasses supply ``_send`` (open the ticket and move the command to
    the device).  The device side is ``executor.execute(command, ctx) ->
    Completion`` on ``device_ctx()`` (default: the submitting context),
    then — when the pair has a ``link`` — the result's DMA back to the host.
    """

    #: host<->device link the results cross (None: the executor is local)
    link: Any = None
    #: optional factory of device-side execution contexts.  By default
    #: commands execute on the submitting thread's context — the
    #: io_uring-style borrowing a direct-attached device gets away with.
    #: An NVMe-oF target runs commands on its *own* cores: cluster testbeds
    #: set this to the device board's ``firmware_ctx`` so N devices burn N
    #: SoCs' worth of CPU instead of serializing their execution on the
    #: posting host core.
    device_ctx: Optional[Callable[[], Any]] = None

    #: process-name prefix of a spawned device side
    _proc_prefix = "qp-cmd"
    #: whether a command's span stays open until the ticket is reaped (the
    #: KV pair's client-visible latency) or ends at device completion
    _span_until_reap = False

    def __init__(self, env: Environment, executor: Any, depth: int, name: str):
        if depth < 1:
            raise SimulationError("queue depth must be >= 1")
        self.env = env
        self.executor = executor
        self.depth = depth
        self.name = name
        self._slots = Resource(env, capacity=depth)
        self.submitted = 0
        self.completed = 0
        self.reaped = 0
        self.errors = 0
        self._next_cid = 0
        self._done: list[CommandTicket] = []

    @property
    def name(self) -> str:
        """Label for critpath resources + journal events; cluster routers
        name each device's pair (e.g. ``dev3.host-kv``) so blocked-by edges
        and explain blockers identify the device, not just "the QP"."""
        return self._name

    @name.setter
    def name(self, name: str) -> None:
        self._name = name
        self._slot_resource = f"qp.{name}"
        self._cq_resource = f"cq.{name}"

    # -- submission ----------------------------------------------------------
    def _open(self, command: NvmeCommand, op: str) -> CommandTicket:
        self._next_cid += 1
        return CommandTicket(
            self._next_cid, command, op, Event(self.env), None, self.env.now
        )

    def _take_slot(self, ticket: CommandTicket, probe, wait_span) -> Generator:
        """Hold a submission slot for ``ticket``; blocks at full depth."""
        req = self._slots.request()
        t0 = self.env.now
        if probe is not None:
            slot_holders = probe.holders(self._slot_resource)
        yield req
        ticket._slot = req
        if probe is not None:
            if wait_span is not None:
                wait_span.args["wait"] = self.env.now - t0
            probe.wait_edge(self._slot_resource, "qp_slot", t0, slot_holders)
            ticket.cp_token = probe.token()
            probe.acquire(self._slot_resource, ticket.cp_token)

    def post(self, command: NvmeCommand, ctx: Any = None, op: Optional[str] = None,
             span_args: Optional[dict[str, Any]] = None) -> Generator:
        """Send one command and spawn its device side; returns its ticket.

        The caller keeps running and reaps the completion later with
        ``wait`` or ``poll``.  Blocks only while the queue is at full depth.
        """
        env = self.env
        probe = env.probe
        prev = probe.current() if probe is not None else None
        ticket = yield from self._send(
            command, ctx, op or type(command).__name__, span_args
        )
        # The device-side process starts under the command's span, then the
        # poster's previous span is restored so later posts are siblings.
        env.process(
            self._execute(ticket, ctx), name=f"{self._proc_prefix}-{ticket.cid}"
        )
        if probe is not None:
            probe.set_current(prev)
        return ticket

    def try_post(self, command: NvmeCommand, *args, **kwargs) -> Generator:
        """Like ``post``, but returns ``None`` instead of blocking when the
        queue pair is at full depth (would-block)."""
        if self._slots.count >= self._slots.capacity or self._slots.queue_len > 0:
            if False:  # pragma: no cover - keep generator shape
                yield None
            return None
        return (yield from self.post(command, *args, **kwargs))

    # -- device side ---------------------------------------------------------
    def _execute(self, ticket: CommandTicket, ctx: Any, spawned: bool = True) -> Generator:
        """Run one command's device side — execute, result DMA — then
        retire it.

        ``spawned``: the body runs in its own process and the CQE is posted
        to the ticket's event; otherwise it runs in the submitting process,
        which gets the completion (or the exception) back directly.
        """
        if self.device_ctx is not None:
            ctx = self.device_ctx()
        try:
            completion = yield from self.executor.execute(ticket.command, ctx)
            if completion.ok and self.link is not None:
                nbytes = ticket.command.result_bytes(completion.value)
                yield from self.link.receive(nbytes)
                ticket.result_bytes = nbytes
        except BaseException as exc:  # noqa: BLE001 - surfaced at the reaper
            self._retire(ticket, exc)
            if not spawned:
                raise
            ticket.event.fail(exc)
            return None
        ticket.completion = completion
        self._retire(ticket)
        if spawned:
            self._done.append(ticket)
            ticket.event.succeed(completion)
        return completion

    def _retire(self, ticket: CommandTicket, exc: Optional[BaseException] = None) -> None:
        """Count a finished command and free its slot."""
        ticket.completed_at = self.env.now
        self.completed += 1
        if exc is not None:
            self.errors += 1
        self._slots.release(ticket._slot)
        if ticket.cp_token is not None:
            self.env.probe.release(self._slot_resource, ticket.cp_token)
            ticket.cp_token = None
        span = ticket.span
        if span is not None and (exc is not None or not self._span_until_reap):
            if exc is not None:
                span.args.setdefault("error", type(exc).__name__)
            self.env.probe.span_end(span)

    # -- completion reaping --------------------------------------------------
    def _mark_reaped(self, ticket: CommandTicket) -> bool:
        """Count ``ticket`` as reaped; False if it already was."""
        if ticket._reaped:
            return False
        ticket._reaped = True
        self.reaped += 1
        if ticket in self._done:
            self._done.remove(ticket)
        return True

    def poll(self) -> list[CommandTicket]:
        """Reap every completion that has arrived; never blocks, no events.

        Returns the completed tickets (error completions included — inspect
        ``ticket.completion.status``); each is reported exactly once across
        ``poll``/``wait``.
        """
        done, self._done = self._done, []
        for ticket in done:
            ticket._reaped = True
            self.reaped += 1
        return done

    # -- accounting ----------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Commands currently occupying queue slots."""
        return self._slots.count

    @property
    def unreaped(self) -> int:
        """Completions posted but not yet collected via ``wait``/``poll``."""
        return len(self._done)

    def introspect(self) -> dict:
        """Queue-depth accounting for snapshots (no simulation events)."""
        return {
            "depth": self.depth,
            "submitted": self.submitted,
            "completed": self.completed,
            "inflight": self.inflight,
            "reaped": self.reaped,
            "unreaped": self.unreaped,
            "errors": self.errors,
        }


class QueuePair(_TicketQueue):
    """One NVMe submission+completion queue pair bound to a controller."""

    def __init__(self, env: Environment, controller: "NvmeController", depth: int = 32):
        super().__init__(env, controller, depth, "nvme")
        self.controller = controller

    def _send(self, command: NvmeCommand, ctx: Any, op: str, span_args) -> Generator:
        probe = self.env.probe
        ticket = self._open(command, op)
        if probe is not None:
            ticket.span = probe.span_begin(f"nvme.{op}", "queue", "nvme/qp")
        yield from self._take_slot(ticket, probe, ticket.span)
        ticket.submitted_at = self.env.now
        self.submitted += 1
        return ticket

    def wait(self, ticket: CommandTicket) -> Generator:
        """Block until ``ticket`` completes; returns its :class:`Completion`.

        Raises :class:`NvmeError` if the command completed with an error
        status, mirroring how a polled driver surfaces failed CQEs.  One
        command's error never poisons the queue pair: every other in-flight
        ticket completes (and can be reaped) normally.
        """
        completion = yield ticket.event
        self._mark_reaped(ticket)
        if not completion.ok:
            raise NvmeError(completion.status, f"{ticket.op} failed")
        return completion

    def submit(self, command: NvmeCommand) -> Generator:
        """Execute ``command`` synchronously; returns its :class:`Completion`.

        ``post()`` + ``wait()`` — the one-command-in-flight path, virtual-time
        identical to a blocking driver.
        """
        ticket = yield from self.post(command)
        return (yield from self.wait(ticket))


class KvQueuePair(_TicketQueue):
    """The host client's KV submission/completion queue pair.

    Models what the paper's client library does per command: pack the
    capsule on the submitting thread, DMA it over the link, ring the
    doorbell, and later reap the CQE and unpack the result.  The device side
    (an executor with ``execute(command, ctx) -> Completion``, i.e. the
    :class:`~repro.core.dispatch.KvCommandDispatcher`) runs in its own
    process per command, so one host thread drives up to ``depth`` commands
    concurrently — that is how device parallelism (query workers, compaction
    cores) becomes visible to a single-threaded benchmark.  Commands size
    themselves on the wire (:meth:`KvCommand.payload_bytes` /
    :meth:`KvCommand.result_bytes`).
    """

    _proc_prefix = "kv-cmd"
    _span_until_reap = True

    def __init__(
        self,
        env: Environment,
        executor: Any,
        link: Any,
        costs: Any,
        depth: int = 32,
        name: str = "host-kv",
    ):
        super().__init__(env, executor, depth, name)
        self.link = link
        self.costs = costs

    # -- submission ----------------------------------------------------------
    def _send(self, command: KvCommand, ctx: Any, op: str, span_args) -> Generator:
        """Open the ticket and its root span, take a slot, pack the capsule
        on ``ctx`` and DMA it to the device."""
        env = self.env
        probe = env.probe
        payload = command.payload_bytes()
        ticket = self._open(command, op)
        scope = NULL_SCOPE
        if probe is not None:
            ticket.span = probe.span_begin(f"cmd.{op}", "command", None, span_args)
            scope = probe.span(
                "sq.post", "queue", "nvme/kv-sq", {"cid": ticket.cid, "op": op}
            )
        with scope as post_span:
            yield from self._take_slot(ticket, probe, post_span)
            yield from ctx.execute(
                self.costs.per_command + self.costs.pack_per_byte * payload
            )
            yield from self.link.send(COMMAND_WIRE_BYTES + payload)
        ticket.submitted_at = env.now
        self.submitted += 1
        if probe is not None:
            probe.event(
                "sq.post",
                {"cid": ticket.cid, "op": op, "qp": self.name,
                 "inflight": self.inflight,
                 "thread": ctx.where() if hasattr(ctx, "where") else "?"},
            )
        return ticket

    def submit(
        self,
        command: KvCommand,
        ctx: Any,
        op: Optional[str] = None,
        span_args: Optional[dict[str, Any]] = None,
    ) -> Generator:
        """``post()`` + ``wait()`` for one command; returns its Completion.

        When nothing observes the run, the device side that ``post`` would
        spawn runs in the calling process instead: with exactly one command
        in flight the caller would only sit blocked on the completion event
        anyway, so every charge and transfer happens at identical virtual
        times — minus the spawn/complete event round trip.
        """
        env = self.env
        if env.probe is not None:
            # Any observer routes through the fully instrumented async path
            # (virtual-time identical; only host-side event counts differ).
            ticket = yield from self.post(command, ctx, op=op, span_args=span_args)
            return (yield from self.wait(ticket, ctx))
        ticket = yield from self._send(
            command, ctx, op or type(command).__name__, None
        )
        completion = yield from self._execute(ticket, ctx, spawned=False)
        return (yield from self._collect(ticket, completion, ctx, True))

    # -- completion reaping --------------------------------------------------
    def wait(
        self, ticket: CommandTicket, ctx: Any, raise_on_error: bool = True
    ) -> Generator:
        """Reap one ticket: block on its CQE, unpack the result on ``ctx``.

        Returns the :class:`Completion`.  Error completions re-raise the
        original device exception (``raise_on_error=True``, the synchronous
        API's semantics) or are returned as-is for batch reapers.  Either
        way the error touches only this ticket — the queue pair and every
        other in-flight command are unaffected.
        """
        completion = yield ticket.event
        return (yield from self._collect(ticket, completion, ctx, raise_on_error))

    def _collect(
        self, ticket: CommandTicket, completion: Completion, ctx: Any,
        raise_on_error: bool,
    ) -> Generator:
        """Reap ``ticket``'s arrived completion; unpack its result on ``ctx``."""
        probe = self.env.probe
        if self._mark_reaped(ticket) and probe is not None:
            self._record_reap_edge(ticket)
            queued, executed = ticket.latency_split()
            probe.event(
                "cq.reap",
                {"cid": ticket.cid, "op": ticket.op, "qp": self.name,
                 "status": ticket.completion.status if ticket.completion else "FAILED",
                 "queued": queued, "executed": executed},
            )
        span = ticket.span
        with NULL_SCOPE if span is None else TraceContext(probe, span):
            if span is not None:
                with probe.span(
                    "cq.reap", "queue", "nvme/kv-cq",
                    {"cid": ticket.cid, "op": ticket.op,
                     "status": completion.status}, nests=False,
                ):
                    pass  # zero-duration marker: the CQE arrival instant
            if completion.ok and ticket.result_bytes:
                yield from ctx.execute(self.costs.unpack_per_byte * ticket.result_bytes)
        if span is not None:
            if not completion.ok:
                err = completion.error
                span.args.setdefault(
                    "error", type(err).__name__ if err is not None else completion.status
                )
            probe.span_end(span)
        if raise_on_error and not completion.ok:
            if completion.error is not None:
                raise completion.error
            raise NvmeError(completion.status, f"{ticket.op} failed")
        return completion

    def poll(self) -> list[CommandTicket]:
        """Reap every completion that has arrived; never blocks, no events.

        The raw reaping primitive: no host unpack cost is charged and no
        exception is raised — callers inspect ``ticket.completion``.  Each
        ticket is reported exactly once across ``poll``/``wait``.
        """
        done = super().poll()
        for ticket in done:
            if ticket.span is not None:
                self._record_reap_edge(ticket)
                self.env.probe.span_end(ticket.span)
        return done

    def _record_reap_edge(self, ticket: CommandTicket) -> None:
        """Blocked-by edge for CQE residency: completion posted -> reaped.

        While the host thread is busy posting the rest of a batch (or
        blocked on a submission slot), finished completions sit unreaped
        and the command's client-visible latency keeps growing — attribute
        that tail to the completion queue, behind the commands still in
        flight on this pair.
        """
        if ticket.span is not None and ticket.completed_at is not None:
            probe = self.env.probe
            probe.wait_edge(
                self._cq_resource, "cq_reap", ticket.completed_at,
                probe.holders(self._slot_resource),
                (ticket.span.name, ticket.span.span_id),
            )
