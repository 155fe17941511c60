"""CPU modelling: pools of cores with pinning, contention and timeslicing.

Compute work in the reproduction (sorting, compaction, request handling,
checksum/serialization overhead) is expressed as *seconds of CPU time* and
billed to a :class:`CpuPool` via :meth:`CpuPool.execute`.  Threads either pin
to a specific core (the paper pins every test thread) or run on any core of
an allowed set (RocksDB's background compaction workers run on whichever
pinned cores are available; the device firmware floats over the whole SoC).

The pool is its own scheduler: one busy bit per core and one run queue of
waiters ordered by ``(priority, arrival)``, each carrying the set of cores it
may run on.  Work that finds an allowed core idle takes it on the spot —
no kernel event — and a core that is released goes straight to the first
waiter allowed on it, so a core is never idle while work it could run waits.

Long work items are split into timeslices so that a multi-second compaction
job cannot monopolise a core against interactive foreground work — the same
effect an OS scheduler provides.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Generator
from typing import Optional, Sequence

from repro.errors import SimulationError
from repro.sim.core import Environment, Event

__all__ = ["CpuPool"]

#: Default scheduler timeslice in simulated seconds.
DEFAULT_TIMESLICE = 10e-3


class CpuPool:
    """A set of identical CPU cores.

    Parameters
    ----------
    env:
        Simulation environment.
    n_cores:
        Number of cores in the pool.
    timeslice:
        Maximum contiguous occupancy of a core by one work item; longer work
        is split and re-queued, approximating preemptive scheduling.
    name:
        Label used in stats and debugging output.
    """

    def __init__(
        self,
        env: Environment,
        n_cores: int,
        timeslice: float = DEFAULT_TIMESLICE,
        name: str = "cpu",
    ):
        if n_cores < 1:
            raise SimulationError("a CPU pool needs at least one core")
        if timeslice <= 0:
            raise SimulationError("timeslice must be positive")
        self.env = env
        self.n_cores = n_cores
        self.timeslice = timeslice
        self.name = name
        #: cumulative busy seconds per core, for utilization reporting
        self.busy_time = [0.0] * n_cores
        #: bit ``i`` set = core ``i`` is held (running, or handed to a waiter
        #: whose wake-up event has not been processed yet)
        self._busy = 0
        #: run queue, sorted: ``(priority, arrival seq, allowed mask, event)``
        self._waiting: list[tuple[int, int, int, Event]] = []
        self._seq = 0
        self._all_mask = (1 << n_cores) - 1
        #: memoized core masks per distinct ``cores=`` argument — thread
        #: contexts pass the same pinned set on every execute()
        self._mask_cache: dict[tuple, int] = {}
        self._resource = f"cpu.{name}"  # span name and critical-path resource
        self._lanes = [f"{name}/core{idx}" for idx in range(n_cores)]

    # -- scheduling -----------------------------------------------------------
    def _allowed_mask(self, core: Optional[int], cores: Optional[Sequence[int]]) -> int:
        """Bit mask of the cores ``core=`` / ``cores=`` allow."""
        if core is not None:
            if cores is not None:
                raise SimulationError("pass either core= or cores=, not both")
            if not 0 <= core < self.n_cores:
                raise SimulationError(f"core index {core} out of range")
            return 1 << core
        if cores is None:
            return self._all_mask
        key = tuple(cores)
        mask = self._mask_cache.get(key)
        if mask is None:
            if not key:
                raise SimulationError("cores= must not be empty")
            mask = 0
            for idx in key:
                if not 0 <= idx < self.n_cores:
                    raise SimulationError(f"core index {idx} out of range")
                mask |= 1 << idx
            self._mask_cache[key] = mask
        return mask

    def _release(self, idx: int) -> None:
        """Hand core ``idx`` to the first waiter allowed on it, else idle it."""
        bit = 1 << idx
        waiting = self._waiting
        for pos, waiter in enumerate(waiting):
            if waiter[2] & bit:
                del waiting[pos]
                waiter[3].succeed(idx)  # the core stays busy across the hand-over
                return
        self._busy &= ~bit

    def _withdraw(self, waiter: tuple[int, int, int, Event]) -> None:
        """Leave the run queue after an exception hit a waiting ``execute``."""
        event = waiter[3]
        if event.triggered:
            # Already handed a core whose wake-up had not been processed.
            self._release(event.value)
        else:
            self._waiting.remove(waiter)

    # -- work ------------------------------------------------------------------
    def execute(
        self,
        seconds: float,
        core: Optional[int] = None,
        cores: Optional[Sequence[int]] = None,
        priority: int = 0,
    ) -> Generator:
        """Consume ``seconds`` of CPU time on one core (generator).

        ``core=`` pins the work to a single core; ``cores=`` restricts it to a
        set; neither means any core in the pool.  The lowest-index idle
        allowed core is taken; when all are busy the work queues, and lower
        ``priority`` values win the queue (arrival order among equals).

        Work longer than the pool timeslice releases and re-acquires the core
        between slices, so concurrent work items interleave rather than run
        to completion serially.  Zero seconds still takes and returns a core,
        so it queues behind work ahead of it on a contended core.
        """
        if seconds < 0:
            raise SimulationError("cannot execute negative CPU time")
        mask = self._allowed_mask(core, cores)
        env = self.env
        probe = env.probe
        resource = self._resource
        span = token = None
        remaining = float(seconds)
        if probe is not None:
            token = probe.token()  # the op this charge serves, not the charge
            span = probe.span_begin(
                resource, "cpu", None, {"pool": self.name, "run": remaining},
                nests=False,
            )
        wait = 0.0
        timeslice = self.timeslice
        busy_time = self.busy_time
        try:
            while True:
                idle = mask & ~self._busy
                if idle:
                    bit = idle & -idle  # lowest-index idle allowed core
                    self._busy |= bit
                    idx = bit.bit_length() - 1
                else:
                    t0 = env.now
                    if probe is not None:
                        # the work this charge is stuck behind
                        holders = probe.holders(resource)
                    self._seq += 1
                    waiter = (priority, self._seq, mask, Event(env))
                    insort(self._waiting, waiter)
                    try:
                        idx = yield waiter[3]
                    except BaseException:
                        self._withdraw(waiter)
                        raise
                    now = env.now
                    if now > t0:
                        wait += now - t0
                        if probe is not None:
                            probe.wait_edge(resource, "cpu", t0, holders)
                if probe is not None:
                    probe.acquire(resource, token)
                    if span is not None and span.lane is None:
                        probe.set_lane(span, self._lanes[idx])
                slice_len = remaining if remaining < timeslice else timeslice
                started = env.now
                try:
                    if slice_len > 0.0:
                        yield env.timeout(slice_len)
                except BaseException:
                    busy_time[idx] += env.now - started  # slice cut short
                    raise
                else:
                    busy_time[idx] += slice_len
                finally:
                    self._release(idx)
                    if probe is not None:
                        probe.release(resource, token)
                remaining -= slice_len
                if remaining <= 0.0:
                    return
        finally:
            if span is not None:
                span.args["wait"] = wait
                span.args["run"] = float(seconds) - remaining
                probe.span_end(span)

    def utilization(self, up_to: Optional[float] = None) -> list[float]:
        """Per-core busy fraction of elapsed simulated time."""
        horizon = self.env.now if up_to is None else up_to
        if horizon <= 0:
            return [0.0] * self.n_cores
        return [busy / horizon for busy in self.busy_time]

    def total_busy_time(self) -> float:
        """Sum of busy seconds over all cores."""
        return sum(self.busy_time)
