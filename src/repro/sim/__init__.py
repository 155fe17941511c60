"""Discrete-event simulation substrate.

Public surface::

    from repro.sim import Environment, Resource, Container, Store, CpuPool
"""

from repro.sim.core import Environment, Event, Process, Timeout
from repro.sim.cpu import CpuPool
from repro.sim.resources import Container, PriorityResource, Request, Resource, Store
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.stats import Counter, Histogram, StatsRegistry
from repro.sim.sync import AllOf, AnyOf

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Resource",
    "PriorityResource",
    "Request",
    "Container",
    "Store",
    "AllOf",
    "AnyOf",
    "CpuPool",
    "RngRegistry",
    "derive_seed",
    "Counter",
    "Histogram",
    "StatsRegistry",
]
