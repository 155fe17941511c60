"""Lightweight measurement primitives: counters, histograms, labeled series.

These deliberately avoid any third-party dependency so they can be embedded
in every subsystem without import cycles.  Components only increment;
:class:`~repro.obs.metrics.MetricsHub` is the one registry that exports
them.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Optional

__all__ = [
    "Counter",
    "Histogram",
    "MAX_SAMPLES",
    "Series",
    "StatsRegistry",
    "nan_to_zero",
    "series_key",
]

#: Reservoir bound of every :class:`Histogram`: count/sum/min/max stay
#: exact, percentiles come from a uniform sample of this many values, so a
#: 1M-key scale-bench run holds ~8k floats per histogram, not one per op.
MAX_SAMPLES = 8192


def nan_to_zero(value: float) -> float:
    """0.0 for NaN, the value otherwise — for JSON-bound report fields."""
    return 0.0 if isinstance(value, float) and math.isnan(value) else value


class Counter:
    """A monotonically-growing named count/sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only grow; use two counters for +/-")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Streaming histogram with reservoir-bounded percentiles.

    The first ``max_samples`` values are all kept, so percentiles are exact
    up to that many samples.  Past it, Vitter's Algorithm R keeps a uniform
    reservoir of ``max_samples`` values: count/sum/min/max stay exact and
    memory stays bounded no matter how long the run is.  The reservoir RNG
    is seeded from the histogram name, so two runs recording the same
    sequence agree bit-for-bit.
    """

    def __init__(self, name: str, max_samples: int = MAX_SAMPLES):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.max_samples = max_samples
        self._sorted: list[float] = []
        self._dirty = False  # appends land unsorted; sorted on read
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._rng = random.Random(zlib.crc32(name.encode()))

    def record(self, value: float) -> None:
        self._sum += value
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._sorted) < self.max_samples:
            self._sorted.append(value)
            self._dirty = True
        else:
            # Algorithm R: keep each of the n samples with probability k/n.
            slot = self._rng.randrange(self._count)
            if slot < self.max_samples:
                self._sorted[slot] = value
                self._dirty = True

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else math.nan

    @property
    def min(self) -> float:
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        return self._max if self._count else math.nan

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the retained samples; ``p`` in [0, 100]."""
        if self._dirty:
            self._sorted.sort()
            self._dirty = False
        if not self._sorted:
            return math.nan
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        rank = max(0, math.ceil(p / 100.0 * len(self._sorted)) - 1)
        return self._sorted[rank]

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }


class Series:
    """A labeled (time, value) series — one telemetry timeline track.

    It carries a label set (``{"qp": "host-kv"}``) so many instances of one
    metric stay distinguishable in exports, and a canonical flat ``key``
    (``qp.depth{qp=host-kv}``) that alert rules match against.
    """

    __slots__ = ("name", "labels", "times", "values")

    def __init__(self, name: str, labels: Optional[dict[str, str]] = None):
        self.name = name
        self.labels: dict[str, str] = dict(labels) if labels else {}
        self.times: list[float] = []
        self.values: list[float] = []

    @property
    def key(self) -> str:
        """Canonical flat identity: ``name{label=value,...}`` (sorted)."""
        return series_key(self.name, self.labels)

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def decimate(self) -> None:
        """Drop every second sample in place (timeline memory bounding)."""
        self.times = self.times[::2]
        self.values = self.values[::2]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "times": list(self.times),
            "values": [nan_to_zero(v) for v in self.values],
        }

    def __len__(self) -> int:
        return len(self.times)


def series_key(name: str, labels: Optional[dict[str, str]] = None) -> str:
    """The flat metric identity alert rules and exports use."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class StatsRegistry:
    """The named counters one component increments.

    Counters appear on first use; a :class:`~repro.obs.metrics.MetricsHub`
    the registry is registered on exports each one as it appears.
    """

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        #: counter name -> live :class:`Counter` (the hub binds the objects
        #: once instead of copying values per read)
        self.counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = Counter(f"{self.prefix}.{name}" if self.prefix else name)
            self.counters[name] = c
        return c

    def counter_values(self) -> dict[str, float]:
        """Counter name -> value (for reports)."""
        return {name: counter.value for name, counter in self.counters.items()}
