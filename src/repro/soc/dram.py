"""SoC DRAM budget accounting.

The device's sort and buffer paths must fit in the SoC's 8 GB DRAM (Table I
of the paper); the external merge sort sizes its runs off this budget.  A
thin wrapper over :class:`repro.sim.resources.Container` with reservation
semantics.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.resources import Container

__all__ = ["DramBudget"]


class DramBudget:
    """Byte budget with blocking reserve/release."""

    def __init__(self, env: Environment, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise SimulationError("DRAM capacity must be positive")
        self.env = env
        self.capacity = capacity_bytes
        self._container = Container(env, capacity=capacity_bytes, init=capacity_bytes)

    @property
    def available(self) -> float:
        """Bytes currently unreserved."""
        return self._container.level

    def reserve(self, nbytes: int) -> Generator:
        """Block until ``nbytes`` can be reserved."""
        if nbytes > self.capacity:
            raise SimulationError(
                f"reservation of {nbytes} exceeds DRAM capacity {self.capacity}"
            )
        probe = self.env.probe
        if probe is None:
            yield self._container.get(nbytes)
            return
        t0 = self.env.now
        holders = probe.holders("soc.dram")
        yield self._container.get(nbytes)
        probe.wait_edge("soc.dram", "dram", t0, holders)
        probe.acquire("soc.dram", probe.token())

    def release(self, nbytes: int) -> Generator:
        """Return ``nbytes`` to the budget."""
        probe = self.env.probe
        if probe is not None:
            # Tolerant of a different op releasing than reserved (e.g. bloom
            # filters freed at keyspace delete): release() drops the entry
            # only when the token matches a live hold.
            probe.release("soc.dram", probe.token())
        yield self._container.put(nbytes)

    def introspect(self) -> dict:
        """Budget occupancy for device snapshots (no simulation events)."""
        return {
            "capacity_bytes": self.capacity,
            "available_bytes": self.available,
            "reserved_bytes": self.capacity - self.available,
        }

    def metric_gauges(self) -> dict[str, Callable[[], float]]:
        """Instantaneous gauges for MetricsHub/timeline sampling."""
        return {
            "dram.reserved_bytes": lambda: float(self.capacity - self.available),
            "dram.budget_used_frac": lambda: (
                (self.capacity - self.available) / self.capacity
            ),
        }
