"""Composite condition events and producer/consumer queues.

:class:`AllOf` / :class:`AnyOf` wait for a set of events; :class:`BoundedQueue`
connects pipeline stages (e.g. the compaction engine's SORTED_VALUES writer
feeding the PIDX builder) with backpressure: a full queue blocks the producer,
an empty queue blocks the consumer.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any

from repro.errors import SimulationError
from repro.sim.core import Environment, Event, PENDING

__all__ = ["AllOf", "AnyOf", "BoundedQueue"]


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: Environment, events: list[Event]):
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if not isinstance(ev, Event):
                raise SimulationError(f"condition requires events, got {ev!r}")
            if ev.env is not env:
                raise SimulationError("all events must share one environment")
        pending = [ev for ev in self._events if not ev.processed]
        processed = [ev for ev in self._events if ev.processed]
        # Count all pending events before observing processed ones so that an
        # early already-processed event cannot see a transiently-zero count.
        self._remaining = len(pending)
        for ev in pending:
            ev.callbacks.append(self._check)
        for ev in processed:
            self._observe_processed(ev)
        if self._state == PENDING and self._remaining == 0:
            self._finalize()

    # subclass hooks ---------------------------------------------------------
    def _observe_processed(self, ev: Event) -> None:
        raise NotImplementedError

    def _finalize(self) -> None:
        raise NotImplementedError

    def _check(self, ev: Event) -> None:
        if self._state != PENDING:
            if not ev._ok:
                ev._defused = True
            return
        self._remaining -= 1
        self._observe_processed(ev)

    def _collect_values(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events if ev.processed and ev._ok}


class AllOf(_Condition):
    """Fires when every constituent event has fired.

    Succeeds with a dict mapping each event to its value.  Fails as soon as
    any constituent fails (with that exception); remaining failures are
    defused.
    """

    __slots__ = ()

    def _observe_processed(self, ev: Event) -> None:
        if not ev._ok:
            ev._defused = True
            if self._state == PENDING:
                self.fail(ev._value)
            return
        if self._remaining == 0 and self._state == PENDING:
            self._finalize()

    def _finalize(self) -> None:
        self.succeed(self._collect_values())


class BoundedQueue:
    """A FIFO channel of bounded capacity between simulation processes.

    ``put`` blocks (in simulated time) while the queue is full, ``get``
    while it is empty, so a fast producer cannot run unboundedly ahead of
    its consumer — the buffer models a fixed number of in-flight items
    (e.g. stripe groups) held in DRAM.
    """

    def __init__(self, env: Environment, capacity: int, name: str = "queue"):
        if capacity < 1:
            raise SimulationError("queue capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        #: resource label for blocked-by edges (critical-path attribution)
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def _observed_wait(self, probe, event: Event, span_name: str) -> Generator:
        """Block on ``event`` as a queue-wait span plus a blocked-by edge on
        this queue: the wait is backpressure from the other side, so it is
        queue time on the waiter's span tree."""
        t0 = self.env.now
        holders = probe.holders(self.name)
        with probe.span(
            span_name, "queue", None, {"capacity": self.capacity}, nests=False
        ):
            yield event
        probe.wait_edge(self.name, "queue", t0, holders)

    def put(self, item: Any) -> Generator:
        """Enqueue ``item``; waits while the queue is at capacity."""
        while len(self._items) >= self.capacity:
            slot = Event(self.env)
            self._putters.append(slot)
            probe = self.env.probe
            if probe is None:
                yield slot
            else:
                yield from self._observed_wait(probe, slot, "queue.put_wait")
        self._items.append(item)
        if self._getters:
            self._getters.popleft().succeed()

    def get(self) -> Generator:
        """Dequeue the oldest item; waits while the queue is empty."""
        while not self._items:
            ready = Event(self.env)
            self._getters.append(ready)
            probe = self.env.probe
            if probe is None:
                yield ready
            else:
                yield from self._observed_wait(probe, ready, "queue.get_wait")
        item = self._items.popleft()
        if self._putters:
            self._putters.popleft().succeed()
        return item


class AnyOf(_Condition):
    """Fires as soon as one constituent event fires.

    Succeeds with a dict of the events processed so far and their values.
    Fails if the first event to fire failed.  An empty event list succeeds
    immediately (vacuous truth, matching SimPy).
    """

    __slots__ = ()

    def _observe_processed(self, ev: Event) -> None:
        if self._state != PENDING:
            if not ev._ok:
                ev._defused = True
            return
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value)
            return
        self._finalize()

    def _finalize(self) -> None:
        self.succeed(self._collect_values())
