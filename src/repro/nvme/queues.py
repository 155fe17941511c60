"""NVMe submission/completion queue pairs with true async post/reap.

A queue pair bounds the number of commands in flight (queue depth) — the
mechanism by which NVMe exposes device parallelism to software.  The API
mirrors a polled SPDK-style driver:

* :meth:`QueuePair.post` acquires a queue slot, rings the doorbell and
  returns a :class:`CommandTicket` immediately; the controller executes the
  command in its own simulation process, so up to ``depth`` commands run
  concurrently.
* :meth:`QueuePair.wait` blocks on one ticket's completion (and surfaces an
  error CQE as :class:`~repro.errors.NvmeError`); :meth:`QueuePair.poll`
  reaps every completion that has already arrived without blocking.
* :meth:`QueuePair.submit` is ``post`` + ``wait`` — the synchronous
  convenience path, byte-identical in virtual time to the pre-async code.

:class:`KvQueuePair` is the host client's KV command queue: on top of the
slot discipline it models the command capsule DMA over the PCIe link, the
host-side pack/unpack CPU costs, and the result DMA — and emits ``sq.post``
/ ``cq.reap`` journal events plus per-command trace spans.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import NvmeError, SimulationError
from repro.nvme.commands import Completion, NvmeCommand
from repro.nvme.kv_commands import COMMAND_WIRE_BYTES
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


class QueuePair:
    """One NVMe submission+completion queue pair bound to a controller."""

    def __init__(self, env: Environment, controller: "NvmeController", depth: int = 32):
        if depth < 1:
            raise SimulationError("queue depth must be >= 1")
        self.env = env
        self.controller = controller
        self.depth = depth
        self._slots = Resource(env, capacity=depth)
        self.submitted = 0
        self.completed = 0
        self.reaped = 0
        self.errors = 0
        self._next_cid = 0
        self._done: list[CommandTicket] = []

    # -- submission ----------------------------------------------------------
    def post(self, command: NvmeCommand) -> Generator:
        """Acquire a slot, ring the doorbell, return a :class:`CommandTicket`.

        The controller executes the command in its own process; the caller
        keeps running and reaps the completion later with :meth:`wait` or
        :meth:`poll`.  Blocks only while the queue is at full depth.
        """
        env = self.env
        probe = env.probe
        op = type(command).__name__
        prev = span = None
        if probe is not None:
            prev = probe.current()
            span = probe.span_begin(f"nvme.{op}", "queue", "nvme/qp")
        self._next_cid += 1
        ticket = CommandTicket(self._next_cid, command, op, Event(env), span, env.now)
        req = self._slots.request()
        t0 = env.now
        if probe is not None:
            slot_holders = probe.holders("qp.nvme")
        yield req
        ticket._slot = req
        if probe is not None:
            if span is not None:
                span.args["wait"] = env.now - t0
            probe.wait_edge("qp.nvme", "qp_slot", t0, slot_holders)
            ticket.cp_token = probe.token()
            probe.acquire("qp.nvme", ticket.cp_token)
        ticket.submitted_at = env.now
        self.submitted += 1
        # The executor process starts under the command's span, then the
        # poster's previous span is restored so later posts become siblings.
        env.process(self._execute(ticket), name=f"qp-cmd-{ticket.cid}")
        if probe is not None:
            probe.set_current(prev)
        return ticket

    def try_post(self, command: NvmeCommand) -> Generator:
        """Like :meth:`post`, but returns ``None`` instead of blocking when
        the queue pair is at full depth (would-block)."""
        if self._slots.count >= self._slots.capacity or self._slots.queue_len > 0:
            if False:  # pragma: no cover - keep generator shape
                yield None
            return None
        return (yield from self.post(command))

    def _execute(self, ticket: CommandTicket) -> Generator:
        """Device-side execution of one in-flight command (own process)."""
        try:
            completion = yield from self.controller.execute(ticket.command)
        except BaseException as exc:  # noqa: BLE001 - surfaced at the reaper
            self.completed += 1
            self.errors += 1
            ticket.completed_at = self.env.now
            self._slots.release(ticket._slot)
            self._release_hold(ticket, "qp.nvme")
            if ticket.span is not None:
                ticket.span.args.setdefault("error", type(exc).__name__)
                self.env.probe.span_end(ticket.span)
            ticket.event.fail(exc)
            return
        ticket.completion = completion
        ticket.completed_at = self.env.now
        self.completed += 1
        self._slots.release(ticket._slot)
        self._release_hold(ticket, "qp.nvme")
        if ticket.span is not None:
            self.env.probe.span_end(ticket.span)
        self._done.append(ticket)
        ticket.event.succeed(completion)

    def _release_hold(self, ticket: CommandTicket, resource: str) -> None:
        """Drop the slot-holder registration made at post time, if any."""
        if ticket.cp_token is not None:
            self.env.probe.release(resource, ticket.cp_token)
            ticket.cp_token = None

    # -- completion reaping --------------------------------------------------
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

    def _mark_reaped(self, ticket: CommandTicket) -> None:
        if ticket._reaped:
            return
        ticket._reaped = True
        self.reaped += 1
        if ticket in self._done:
            self._done.remove(ticket)

    def submit(self, command: NvmeCommand) -> Generator:
        """Execute ``command`` synchronously; returns its :class:`Completion`.

        ``post()`` + ``wait()`` — the one-command-in-flight path, virtual-time
        identical to a blocking driver.
        """
        ticket = yield from self.post(command)
        return (yield from self.wait(ticket))

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
        """Queue-depth accounting for device snapshots (no simulation events)."""
        return {
            "depth": self.depth,
            "submitted": self.submitted,
            "completed": self.completed,
            "inflight": self.inflight,
            "reaped": self.reaped,
            "unreaped": self.unreaped,
            "errors": self.errors,
        }


class KvQueuePair:
    """The host client's KV submission/completion queue pair.

    Models what the paper's client library does per command: pack the
    capsule on the submitting thread, DMA it over the PCIe link, ring the
    doorbell, and later reap the CQE and unpack the result.  The device side
    (an executor with ``execute(command, ctx) -> Completion``, i.e. the
    :class:`~repro.core.dispatch.KvCommandDispatcher`) runs in its own
    process per command, so one host thread drives up to ``depth`` commands
    concurrently — that is how device parallelism (query workers, compaction
    cores) becomes visible to a single-threaded benchmark.

    Wire sizing is injected (``capsule_bytes`` / ``result_bytes``
    callables), keeping this NVMe-layer class free of KV wire-format
    knowledge.
    """

    def __init__(
        self,
        env: Environment,
        executor: Any,
        link: Any,
        costs: Any,
        capsule_bytes: Callable[[NvmeCommand], int],
        result_bytes: Callable[[NvmeCommand, Any], int],
        depth: int = 32,
        name: str = "host-kv",
    ):
        if depth < 1:
            raise SimulationError("queue depth must be >= 1")
        self.env = env
        self.executor = executor
        self.link = link
        self.costs = costs
        self.capsule_bytes = capsule_bytes
        self.result_bytes = result_bytes
        self.depth = depth
        self.name = name
        #: optional factory of device-side execution contexts.  By default
        #: commands execute on the submitting thread's context — the
        #: io_uring-style borrowing a direct-attached device gets away with.
        #: An NVMe-oF target runs commands on its *own* cores: cluster
        #: testbeds set this to the device board's ``firmware_ctx`` so N
        #: devices burn N SoCs' worth of CPU instead of serializing their
        #: execution on the posting host core.
        self.device_ctx: Optional[Callable[[], Any]] = None
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
    def post(
        self,
        command: NvmeCommand,
        ctx: Any,
        op: Optional[str] = None,
        span_args: Optional[dict[str, Any]] = None,
    ) -> Generator:
        """Pack + DMA one command capsule; returns a :class:`CommandTicket`.

        Opens the command's root trace span (finished at reap time), charges
        the host-side pack cost to ``ctx``, sends the capsule over the link,
        and spawns the device-side execution process.  Blocks only while the
        submission queue is at full depth.
        """
        env = self.env
        probe = env.probe
        op = op or type(command).__name__
        payload = self.capsule_bytes(command)
        self._next_cid += 1
        cid = self._next_cid
        prev = span = None
        scope = NULL_SCOPE
        if probe is not None:
            prev = probe.current()
            span = probe.span_begin(f"cmd.{op}", "command", None, span_args)
            scope = probe.span(
                "sq.post", "queue", "nvme/kv-sq", {"cid": cid, "op": op}
            )
        ticket = CommandTicket(cid, command, op, Event(env), span, env.now)
        with scope as post_span:
            req = self._slots.request()
            t0 = env.now
            if probe is not None:
                slot_holders = probe.holders(self._slot_resource)
            yield req
            ticket._slot = req
            if probe is not None:
                if post_span is not None:
                    post_span.args["wait"] = env.now - t0
                probe.wait_edge(self._slot_resource, "qp_slot", t0, slot_holders)
                ticket.cp_token = probe.token()
                probe.acquire(self._slot_resource, ticket.cp_token)
            yield from ctx.execute(
                self.costs.per_command + self.costs.pack_per_byte * payload
            )
            yield from self.link.send(COMMAND_WIRE_BYTES + payload)
        ticket.submitted_at = env.now
        self.submitted += 1
        if probe is not None:
            probe.event(
                "sq.post",
                {"cid": cid, "op": op, "qp": self.name, "inflight": self.inflight,
                 "thread": ctx.where() if hasattr(ctx, "where") else "?"},
            )
        # The device-side process starts under the command's span, then the
        # poster's previous span is restored so later posts are siblings.
        env.process(self._device_side(ticket, ctx), name=f"kv-cmd-{cid}")
        if probe is not None:
            probe.set_current(prev)
        return ticket

    def try_post(
        self,
        command: NvmeCommand,
        ctx: Any,
        op: Optional[str] = None,
        span_args: Optional[dict[str, Any]] = None,
    ) -> Generator:
        """Like :meth:`post`, but returns ``None`` instead of blocking when
        the submission queue is at full depth (would-block)."""
        if self._slots.count >= self._slots.capacity or self._slots.queue_len > 0:
            if False:  # pragma: no cover - keep generator shape
                yield None
            return None
        return (yield from self.post(command, ctx, op=op, span_args=span_args))

    def _device_side(self, ticket: CommandTicket, ctx: Any) -> Generator:
        """Decode + execute + result DMA for one in-flight command."""
        env = self.env
        if self.device_ctx is not None:
            ctx = self.device_ctx()
        try:
            completion = yield from self.executor.execute(ticket.command, ctx)
            if completion.ok:
                nbytes = self.result_bytes(ticket.command, completion.value)
                yield from self.link.receive(nbytes)
                ticket.result_bytes = nbytes
        except BaseException as exc:  # noqa: BLE001 - surfaced at the reaper
            self.completed += 1
            self.errors += 1
            ticket.completed_at = env.now
            self._slots.release(ticket._slot)
            self._release_hold(ticket)
            ticket.event.fail(exc)
            return
        ticket.completion = completion
        ticket.completed_at = env.now
        self.completed += 1
        self._slots.release(ticket._slot)
        self._release_hold(ticket)
        self._done.append(ticket)
        ticket.event.succeed(completion)

    def _release_hold(self, ticket: CommandTicket) -> None:
        """Drop the slot-holder registration made at post time, if any."""
        if ticket.cp_token is not None:
            self.env.probe.release(self._slot_resource, ticket.cp_token)
            ticket.cp_token = None

    def submit(
        self,
        command: NvmeCommand,
        ctx: Any,
        op: Optional[str] = None,
        span_args: Optional[dict[str, Any]] = None,
    ) -> Generator:
        """``post()`` + ``wait()`` for one command; returns its Completion.

        When nothing observes the run the device side executes inline in
        the calling process instead of a spawned one: with exactly
        one command in flight the caller would only sit blocked on the
        completion event anyway, so the slot hold, link transfers, CPU
        charges and completion bookkeeping happen at identical virtual
        times — minus the spawn/complete event round trip.
        """
        env = self.env
        if env.probe is not None:
            # Any observer routes through the fully instrumented async path
            # (virtual-time identical; only host-side event counts differ).
            ticket = yield from self.post(command, ctx, op=op, span_args=span_args)
            completion = yield from self.wait(ticket, ctx)
            return completion
        payload = self.capsule_bytes(command)
        self._next_cid += 1
        ticket = CommandTicket(
            self._next_cid, command, op or type(command).__name__,
            Event(env), None, env.now,
        )
        req = self._slots.request()
        yield req
        ticket._slot = req
        yield from ctx.execute(
            self.costs.per_command + self.costs.pack_per_byte * payload
        )
        yield from self.link.send(COMMAND_WIRE_BYTES + payload)
        ticket.submitted_at = env.now
        self.submitted += 1
        exec_ctx = self.device_ctx() if self.device_ctx is not None else ctx
        try:
            completion = yield from self.executor.execute(command, exec_ctx)
            if completion.ok:
                nbytes = self.result_bytes(command, completion.value)
                yield from self.link.receive(nbytes)
                ticket.result_bytes = nbytes
        except BaseException:
            # Mirrors the spawned path: slot freed and counters bumped, the
            # original exception surfaces at the caller, no reap happens.
            self.completed += 1
            self.errors += 1
            ticket.completed_at = env.now
            self._slots.release(req)
            raise
        ticket.completion = completion
        ticket.completed_at = env.now
        self.completed += 1
        self._slots.release(req)
        ticket._reaped = True
        self.reaped += 1
        if completion.ok and ticket.result_bytes:
            yield from ctx.execute(self.costs.unpack_per_byte * ticket.result_bytes)
        if not completion.ok:
            if completion.error is not None:
                raise completion.error
            raise NvmeError(completion.status, f"{ticket.op} failed")
        return completion

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
        self._reap(ticket)
        span = ticket.span
        if span is None:
            yield from self._unpack(ticket, completion, ctx)
        else:
            probe = self.env.probe
            with TraceContext(probe, span):
                with probe.span(
                    "cq.reap", "queue", "nvme/kv-cq",
                    {"cid": ticket.cid, "op": ticket.op,
                     "status": completion.status}, nests=False,
                ):
                    pass  # zero-duration marker: the CQE arrival instant
                yield from self._unpack(ticket, completion, ctx)
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

    def _unpack(self, ticket: CommandTicket, completion: Completion, ctx: Any):
        """Host-side decode of the reaped result (zero-size: no events)."""
        if completion.ok and ticket.result_bytes:
            yield from ctx.execute(self.costs.unpack_per_byte * ticket.result_bytes)

    def poll(self) -> list[CommandTicket]:
        """Reap every completion that has arrived; never blocks, no events.

        The raw reaping primitive: no host unpack cost is charged and no
        exception is raised — callers inspect ``ticket.completion``.  Each
        ticket is reported exactly once across ``poll``/``wait``.
        """
        done, self._done = self._done, []
        for ticket in done:
            ticket._reaped = True
            self.reaped += 1
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

    def _reap(self, ticket: CommandTicket) -> None:
        if ticket._reaped:
            return
        ticket._reaped = True
        self.reaped += 1
        self._record_reap_edge(ticket)
        if ticket in self._done:
            self._done.remove(ticket)
        probe = self.env.probe
        if probe is not None:
            queued, executed = ticket.latency_split()
            probe.event(
                "cq.reap",
                {"cid": ticket.cid, "op": ticket.op, "qp": self.name,
                 "status": ticket.completion.status if ticket.completion else "FAILED",
                 "queued": queued, "executed": executed},
            )

    # -- accounting ----------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Commands currently occupying submission-queue slots."""
        return self._slots.count

    @property
    def unreaped(self) -> int:
        """Completions posted but not yet collected via ``wait``/``poll``."""
        return len(self._done)

    def introspect(self) -> dict:
        """Queue accounting for device snapshots (no simulation events)."""
        return {
            "depth": self.depth,
            "submitted": self.submitted,
            "completed": self.completed,
            "inflight": self.inflight,
            "reaped": self.reaped,
            "unreaped": self.unreaped,
            "errors": self.errors,
        }
