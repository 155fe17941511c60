"""Lightweight measurement primitives: counters, timers, histograms, series.

These deliberately avoid any third-party dependency so they can be embedded
in every subsystem without import cycles; the benchmark harness formats them
for reporting.
"""

from __future__ import annotations

import bisect
import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "Counter",
    "HitRatio",
    "Histogram",
    "Series",
    "TimeSeries",
    "StatsRegistry",
    "nan_to_zero",
    "series_key",
]


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


class HitRatio:
    """Paired hit/miss counters with a derived ratio (caches, filters)."""

    __slots__ = ("name", "hits", "misses")

    def __init__(self, name: str):
        self.name = name
        self.hits = Counter(f"{name}.hits")
        self.misses = Counter(f"{name}.misses")

    def hit(self, amount: float = 1.0) -> None:
        self.hits.add(amount)

    def miss(self, amount: float = 1.0) -> None:
        self.misses.add(amount)

    @property
    def total(self) -> float:
        return self.hits.value + self.misses.value

    @property
    def ratio(self) -> float:
        """Hit fraction in [0, 1]; NaN before the first lookup."""
        total = self.total
        return self.hits.value / total if total else math.nan

    @property
    def ratio_or_zero(self) -> float:
        """Like :attr:`ratio` but 0.0 before the first lookup.

        Use this anywhere the value lands in JSON or formatted reports:
        NaN is not valid JSON and reads as garbage in tables, while "no
        lookups yet" rendering as a 0% hit rate is the expected shape.
        """
        total = self.total
        return self.hits.value / total if total else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "hits": self.hits.value,
            "misses": self.misses.value,
            "hit_ratio": self.ratio_or_zero,
        }

    def __repr__(self) -> str:
        return f"HitRatio({self.name}: {self.hits.value}/{self.total})"


class Histogram:
    """Streaming histogram with exact or reservoir-bounded percentiles.

    The default mode stores every sample sorted: exact percentiles, one
    float of memory per sample — fine up to a few million samples per run.
    Passing ``max_samples`` switches to Vitter's Algorithm R once that many
    samples have arrived: count/sum/min/max stay exact, percentiles come
    from a uniform reservoir of ``max_samples`` values, and memory stays
    bounded no matter how long the run is (per-op latency at 1M-key scale
    is the consumer).  The reservoir RNG is seeded from the histogram name,
    so two runs recording the same sequence agree bit-for-bit.
    """

    def __init__(self, name: str, max_samples: Optional[int] = None):
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.max_samples = max_samples
        self._sorted: list[float] = []
        self._dirty = False  # reservoir mode appends unsorted
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._rng = (
            random.Random(zlib.crc32(name.encode())) if max_samples else None
        )

    def record(self, value: float) -> None:
        self._sum += value
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self.max_samples is None:
            bisect.insort(self._sorted, value)
        elif len(self._sorted) < self.max_samples:
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
        """Percentile by nearest-rank; ``p`` in [0, 100].

        Exact in the default mode; in reservoir mode, the nearest rank of
        the retained uniform sample.
        """
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


@dataclass
class TimeSeries:
    """(time, value) samples, e.g. queue depth or cumulative bytes over time."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def sample(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("time series samples must be non-decreasing in time")
        self.times.append(time)
        self.values.append(value)

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def __len__(self) -> int:
        return len(self.times)


class Series:
    """A labeled (time, value) series — one telemetry timeline track.

    Unlike :class:`TimeSeries` (an unlabeled per-component scratch series),
    a :class:`Series` carries a label set (``{"qp": "host-kv"}``) so many
    instances of one metric stay distinguishable in exports, and a canonical
    flat ``key`` (``qp.depth{qp=host-kv}``) that alert rules match against.
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

    def sample(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("series samples must be non-decreasing in time")
        self.times.append(time)
        self.values.append(value)

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
    """The flat series identity alert rules and exports use."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class StatsRegistry:
    """Namespace of counters/histograms/series owned by one component."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self._counters: dict[str, Counter] = {}
        self._hit_ratios: dict[str, HitRatio] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, TimeSeries] = {}

    def _full(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = Counter(self._full(name))
            self._counters[name] = c
        return c

    def hit_ratio(self, name: str) -> HitRatio:
        r = self._hit_ratios.get(name)
        if r is None:
            r = HitRatio(self._full(name))
            self._hit_ratios[name] = r
        return r

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = Histogram(self._full(name))
            self._histograms[name] = h
        return h

    def series(self, name: str) -> TimeSeries:
        s = self._series.get(name)
        if s is None:
            s = TimeSeries(self._full(name))
            self._series[name] = s
        return s

    @property
    def counters(self) -> dict[str, Counter]:
        """Unprefixed counter name -> live :class:`Counter` (read-only use:
        samplers bind the objects once instead of copying values per tick)."""
        return self._counters

    def counter_values(self) -> dict[str, float]:
        """Unprefixed counter name -> value (for reports)."""
        return {name: counter.value for name, counter in self._counters.items()}

    def snapshot(self) -> dict[str, float]:
        """Flat dict of all counter values and histogram means."""
        out: dict[str, float] = {}
        for name, c in self._counters.items():
            out[self._full(name)] = c.value
        for name, h in self._histograms.items():
            out[self._full(name) + ".mean"] = h.mean
            out[self._full(name) + ".count"] = float(h.count)
        return out

    def as_dict(self) -> dict[str, dict]:
        """Structured, JSON-safe view for results files and metrics export.

        Unlike :meth:`snapshot`, histograms carry their full percentile
        summary (p50/p95/p99, not just the mean) and hit ratios appear as
        hit/miss pairs with a NaN-free ratio.  Histogram means of empty
        histograms are reported as 0.0 so the output is always valid JSON.
        """
        histograms = {}
        for name, h in self._histograms.items():
            summary = h.summary()
            histograms[name] = {
                key: nan_to_zero(value) for key, value in summary.items()
            }
        return {
            "counters": {
                name: c.value for name, c in self._counters.items()
            },
            "hit_ratios": {
                name: r.summary() for name, r in self._hit_ratios.items()
            },
            "histograms": histograms,
            "series": {
                name: {"samples": float(len(s)), "last": s.last()}
                for name, s in self._series.items()
            },
        }
