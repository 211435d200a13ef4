"""Integer time base for the simulator.

Like gem5, the simulator counts time in integer *ticks*, with one tick equal
to one picosecond.  All timing arithmetic is done on integers to keep event
ordering exact and runs reproducible; floating point only appears at the
reporting boundary (``ticks_to_seconds`` and friends).
"""

from __future__ import annotations

#: Number of ticks per simulated second (1 tick = 1 ps).
TICKS_PER_SEC: int = 10**12

#: Ticks per common sub-second units.
TICKS_PER_MS: int = TICKS_PER_SEC // 10**3
TICKS_PER_US: int = TICKS_PER_SEC // 10**6
TICKS_PER_NS: int = TICKS_PER_SEC // 10**9
TICKS_PER_PS: int = 1

#: Frequency helpers (Hz).
GHZ: int = 10**9
MHZ: int = 10**6
KHZ: int = 10**3


def ps(value: float) -> int:
    """Convert picoseconds to ticks."""
    return round(value * TICKS_PER_PS)


def ns(value: float) -> int:
    """Convert nanoseconds to ticks."""
    return round(value * TICKS_PER_NS)


def us(value: float) -> int:
    """Convert microseconds to ticks."""
    return round(value * TICKS_PER_US)


def from_seconds(value: float) -> int:
    """Convert seconds to ticks."""
    return round(value * TICKS_PER_SEC)


def ticks_to_seconds(ticks: int) -> float:
    """Convert ticks to (floating point) seconds."""
    return ticks / TICKS_PER_SEC


def ticks_to_ns(ticks: int) -> float:
    """Convert ticks to (floating point) nanoseconds."""
    return ticks / TICKS_PER_NS


def ticks_to_us(ticks: int) -> float:
    """Convert ticks to (floating point) microseconds."""
    return ticks / TICKS_PER_US


def freq_to_period(freq_hz: float) -> int:
    """Return the clock period in ticks for a frequency in Hz.

    >>> freq_to_period(1 * GHZ)
    1000
    """
    if freq_hz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_hz}")
    return max(1, round(TICKS_PER_SEC / freq_hz))


def cycles_to_ticks(cycles: int, period: int) -> int:
    """Return the duration of ``cycles`` clock cycles of the given period."""
    return cycles * period


def gbps_to_bytes_per_sec(gbps: float) -> int:
    """Convert a line rate in gigabits per second to bytes per second.

    PCIe lane speeds are quoted in Gb/s (giga = 1e9); the return value is an
    integer number of bytes per second.
    """
    return round(gbps * 10**9 / 8)


def gb_per_sec(gbytes: float) -> int:
    """Convert gigabytes per second (1e9 bytes) to bytes per second."""
    return round(gbytes * 10**9)


def serialization_ticks(nbytes: int, bytes_per_sec: int) -> int:
    """Ticks needed to serialize ``nbytes`` at ``bytes_per_sec``.

    Rounds up so that a transfer never completes early; a zero-byte transfer
    takes zero time.
    """
    if nbytes <= 0:
        return 0
    if bytes_per_sec <= 0:
        raise ValueError(f"bandwidth must be positive, got {bytes_per_sec}")
    return -(-nbytes * TICKS_PER_SEC // bytes_per_sec)
