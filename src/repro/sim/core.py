"""Discrete-event simulation kernel.

This is the substrate for the entire reproduction: every CPU core, SSD
channel, PCIe link, filesystem, and database in the library is modelled as a
set of *processes* (Python generators) that advance a shared virtual clock by
yielding :class:`Event` objects to an :class:`Environment`.

The design follows the classic event-list formulation (and will look familiar
to SimPy users):

* An :class:`Environment` owns the virtual clock and a priority queue of
  scheduled events.
* An :class:`Event` is a one-shot occurrence with a value (or an exception)
  and a list of callbacks.
* A :class:`Process` wraps a generator; each yielded event suspends the
  process until the event fires, at which point the event's value is sent
  back into the generator (or its exception thrown).

Determinism: ties in the event queue are broken by insertion order, so a
simulation with seeded RNG streams is bit-reproducible.

Fast path
---------

The vast majority of schedules are *immediate*: ``succeed()``/``fail()``
and process completions fire at the current time with default priority.
Those bypass the heap entirely and land on an "immediate deque" whose
entries are totally ordered by their schedule counter.  ``step()`` merges
the two structures by comparing full ``(time, priority, counter)`` keys,
so the firing order is bit-identical to the single-heap formulation —
``tests/sim/test_golden_clock.py`` holds that contract.  One-shot
:class:`Timeout` objects with a single waiter are recycled through a small
free list instead of being re-allocated (guarded by a refcount check so a
timeout anyone still holds a reference to is never reused).
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator
from sys import getrefcount
from typing import Any, Callable, Optional

from repro.errors import InterruptError, SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
]

# Event states.
PENDING = 0  #: not yet triggered
TRIGGERED = 1  #: scheduled on the event queue, value decided
PROCESSED = 2  #: callbacks have run

# Condition classes, resolved lazily (sync imports this module) but cached —
# Environment.all_of/any_of are hot paths and must not pay an import per call.
_AllOf = None
_AnyOf = None


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail` decides
    their value and schedules them; the environment then runs their callbacks
    at the current simulation time, marking them *processed*.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: int = PENDING
        self._defused: bool = False

    # -- inspection ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event's outcome has been decided."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._state == PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- outcome ------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Decide the event successfully with ``value`` and schedule it."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inline of env._schedule(self): immediate, default priority.
        env = self.env
        self._state = TRIGGERED
        env._counter += 1
        env._imm.append((env._counter, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Decide the event with an exception and schedule it.

        Waiting processes will have ``exception`` thrown into them.  If no
        process waits on a failed event the environment raises the exception
        at the end of the step unless the event is :meth:`defused`.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        self._state = TRIGGERED
        env._counter += 1
        env._imm.append((env._counter, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it won't crash the simulation."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self)


class Process(Event):
    """A running generator.  Also an event that fires when the generator ends.

    The value of the process-event is the generator's return value; if the
    generator raises, the process-event fails with that exception.
    """

    __slots__ = ("_generator", "_target", "name", "span")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process() requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: the event this process is currently waiting on (None if not started
        #: or currently being resumed)
        self._target: Optional[Event] = None
        #: current trace span of this process (kept by ``env.probe``; a
        #: spawned process starts under its spawner's span)
        self.span = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process.

        The process stops waiting on its current target event and resumes
        immediately (at the current simulation time) with the exception.
        Interrupting a finished process is an error.
        """
        if self._state != PENDING:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is None:
            raise SimulationError("cannot interrupt a process before it starts")
        # Detach from the event we were waiting on.
        target = self._target
        if self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = InterruptError(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks.append(self._resume)
        self.env._schedule(interrupt_ev, priority=0)

    # -- internal -----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.env._active_process = self
        self._target = None
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self.env._active_process = None
                self._ok = True
                self._value = stop.value
                self.env._schedule(self)
                return
            except BaseException as exc:
                self.env._active_process = None
                self._ok = False
                self._value = exc
                self.env._schedule(self)
                return

            if not isinstance(next_event, Event):
                self._generator.close()
                self.env._active_process = None
                self._ok = False
                self._value = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self.env._schedule(self)
                return
            if next_event.env is not self.env:
                self._generator.close()
                self.env._active_process = None
                self._ok = False
                self._value = SimulationError(
                    "cannot wait on an event from another environment"
                )
                self.env._schedule(self)
                return

            if next_event._state == PROCESSED:
                # Already fired: feed its value straight back in.
                event = next_event
                continue
            next_event.callbacks.append(self._resume)
            self._target = next_event
            self.env._active_process = None
            return


class EmptySchedule(Exception):
    """Internal: raised by step() when there is nothing left to do."""


class Environment:
    """Owner of the virtual clock and the pending event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now: float = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        #: immediate events: scheduled at the current time with default
        #: priority.  Entries are ``(counter, event)`` in counter order; the
        #: clock cannot advance while any are pending, so every entry's fire
        #: time is exactly ``self._now``.
        self._imm: deque[tuple[int, Event]] = deque()
        self._counter: int = 0
        #: recycled one-shot Timeout objects (see ``step()``)
        self._timeout_pool: list[Timeout] = []
        self._active_process: Optional[Process] = None
        #: the one observability hook: a :class:`repro.obs.probe.Probe` once
        #: any observer is installed (``repro.obs.install_tracer`` /
        #: ``install_journal`` / ``install_timeline`` / ``install_critpath``),
        #: else ``None`` — every instrumentation site costs one attribute
        #: read, and ``run()`` one per call (not per event).  The probe is
        #: pure bookkeeping: it creates no simulation events; only a started
        #: timeline sampler schedules (pure-read) ticks.
        self.probe = None

    # The installed observer surfaces, for export and queries (``None`` when
    # not installed); instrumentation sites read :attr:`probe` only.
    @property
    def tracer(self):
        return self.probe and self.probe.tracer

    @property
    def journal(self):
        return self.probe and self.probe.journal

    @property
    def timeline(self):
        return self.probe and self.probe.timeline

    @property
    def critpath(self):
        return self.probe and self.probe.critpath

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def metric_gauges(self) -> dict[str, Callable[[], float]]:
        """Kernel self-telemetry for MetricsHub/timeline sampling.

        Free reads of state the kernel keeps anyway — nothing is counted on
        the scheduling path for them.
        """
        return {
            "sim.events_scheduled": lambda: float(self._counter),
            "sim.heap_depth": lambda: float(len(self._queue)),
            "sim.imm_depth": lambda: float(len(self._imm)),
            "sim.timeout_pool": lambda: float(len(self._timeout_pool)),
        }

    # -- event construction --------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            t = pool.pop()
            t.delay = delay
            t._ok = True
            t._value = value
            t._defused = False
            self._schedule(t, delay=delay)
            return t
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start running ``generator`` as a simulation process."""
        proc = Process(self, generator, name=name)
        probe = self.probe
        if probe is not None:
            # Spawned processes start under the spawner's current span so
            # that fan-out work (compaction shards, striped appends) stays
            # inside the span tree of the command or job that launched it.
            proc.span = probe.current()
        return proc

    def all_of(self, events: list[Event]) -> Event:
        """Event that fires when all of ``events`` have succeeded."""
        # repro.sim.sync imports this module, so the reference is resolved
        # lazily — but only once, not on every call (this is a hot path).
        global _AllOf
        if _AllOf is None:
            from repro.sim.sync import AllOf as _allof

            _AllOf = _allof
        return _AllOf(self, events)

    def any_of(self, events: list[Event]) -> Event:
        """Event that fires when any of ``events`` has succeeded."""
        global _AnyOf
        if _AnyOf is None:
            from repro.sim.sync import AnyOf as _anyof

            _AnyOf = _anyof
        return _AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        event._state = TRIGGERED
        self._counter += 1
        if delay == 0.0 and priority == 1:
            # Immediate, default-priority: the common case (succeed/fail,
            # process completion, zero timeouts).  The deque keeps these in
            # counter order without heap churn.
            self._imm.append((self._counter, event))
        else:
            heapq.heappush(
                self._queue, (self._now + delay, priority, self._counter, event)
            )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._imm:
            return self._now  # immediate events always fire at the current time
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event.

        The next event is the minimum of the heap's ``(time, priority,
        counter)`` key and the immediate deque's front ``(self._now, 1,
        counter)`` key — exactly the order a single heap would produce.
        """
        imm = self._imm
        queue = self._queue
        if imm:
            take_heap = False
            if queue:
                head = queue[0]
                # Heap times are always >= self._now, so the heap wins only
                # on a same-time, lower-(priority, counter) key.
                if head[0] == self._now and (
                    head[1] < 1 or (head[1] == 1 and head[2] < imm[0][0])
                ):
                    take_heap = True
            if take_heap:
                when, _prio, _cnt, event = heapq.heappop(queue)
            else:
                _cnt, event = imm.popleft()
        else:
            try:
                when, _prio, _cnt, event = heapq.heappop(queue)
            except IndexError:
                raise EmptySchedule() from None
            self._now = when
        callbacks = event.callbacks
        event._state = PROCESSED
        if len(callbacks) == 1:
            # Single waiter (the overwhelmingly common case): run it off the
            # existing list instead of allocating a replacement.
            callback = callbacks[0]
            callbacks.clear()
            callback(event)
            if event._ok:
                # One-shot timeouts nobody else references are recycled.
                # refcount == 2 means only our local + the getrefcount
                # argument see the object, so reuse cannot be observed.
                if (
                    type(event) is Timeout
                    and getrefcount(event) == 2
                    and len(self._timeout_pool) < 128
                ):
                    event._value = None
                    self._timeout_pool.append(event)
                return
        else:
            if callbacks:
                event.callbacks = []
                for callback in callbacks:
                    callback(event)
        if not event._ok and not event._defused:
            # A failed event that nobody handled: crash the simulation,
            # mirroring an unhandled exception in a thread.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event has been processed, and
          return its value (raising if it failed).
        """
        if self.probe is not None:
            self.probe.on_run()
        if isinstance(until, Event):
            stop_event = until
            while not stop_event.processed:
                try:
                    self.step()
                except EmptySchedule:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event fired (deadlock?)"
                    ) from None
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value

        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError("cannot run() into the past")
            while self._imm or (self._queue and self._queue[0][0] <= horizon):
                self.step()
            self._now = horizon
            return None

        while self._imm or self._queue:
            self.step()
        return None
