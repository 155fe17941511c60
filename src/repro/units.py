"""Size and time unit helpers.

All sizes in the library are plain integers in bytes and all simulated times
are floats in seconds.  These constants and helpers exist so that call sites
read naturally (``4 * KiB``, ``usec(20)``) and so that no magic numbers leak
into the subsystems.
"""

from __future__ import annotations

#: One kibibyte (2**10 bytes).
KiB: int = 1024
#: One mebibyte (2**20 bytes).
MiB: int = 1024 * KiB
#: One gibibyte (2**30 bytes).
GiB: int = 1024 * MiB
#: One tebibyte (2**40 bytes).
TiB: int = 1024 * GiB

#: Decimal kilobyte/megabyte/gigabyte, used for bandwidth figures that vendors
#: quote in base-10 units (e.g. "3.2 GB/s").
KB: int = 1000
MB: int = 1000 * KB
GB: int = 1000 * MB


def usec(n: float) -> float:
    """Return ``n`` microseconds expressed in seconds."""
    return n * 1e-6


def msec(n: float) -> float:
    """Return ``n`` milliseconds expressed in seconds."""
    return n * 1e-3


def nsec(n: float) -> float:
    """Return ``n`` nanoseconds expressed in seconds."""
    return n * 1e-9


def transfer_time(nbytes: int, bandwidth_bytes_per_s: float) -> float:
    """Time in seconds to move ``nbytes`` at the given bandwidth.

    A bandwidth of ``0`` or ``inf`` means "free" and returns ``0.0`` for
    ``inf``; zero bandwidth is a configuration error.
    """
    if bandwidth_bytes_per_s == float("inf"):
        return 0.0
    if bandwidth_bytes_per_s <= 0:
        raise ValueError("bandwidth must be positive")
    return nbytes / bandwidth_bytes_per_s


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count (binary units), e.g. ``'1.5 MiB'``."""
    n = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(n)} B"
            return f"{n:.1f} {unit}"
        n /= 1024.0
    raise AssertionError("unreachable")


def fmt_time(seconds: float) -> str:
    """Human-readable duration, e.g. ``'12.3 ms'`` or ``'4.5 s'``."""
    s = float(seconds)
    if s == 0.0:
        return "0 s"
    if abs(s) < 1e-6:
        return f"{s * 1e9:.1f} ns"
    if abs(s) < 1e-3:
        return f"{s * 1e6:.1f} us"
    if abs(s) < 1.0:
        return f"{s * 1e3:.1f} ms"
    return f"{s:.2f} s"


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative operands."""
    if b <= 0:
        raise ValueError("divisor must be positive")
    return -(-a // b)


def align_up(n: int, alignment: int) -> int:
    """Round ``n`` up to the next multiple of ``alignment``."""
    return ceil_div(n, alignment) * alignment
