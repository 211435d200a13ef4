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
TICKS_PER_US: int = TICKS_PER_SEC // 10**6
TICKS_PER_NS: int = TICKS_PER_SEC // 10**9


def ns(value: float) -> int:
    """Convert nanoseconds to ticks."""
    return round(value * TICKS_PER_NS)


def us(value: float) -> int:
    """Convert microseconds to ticks."""
    return round(value * TICKS_PER_US)


def ticks_to_seconds(ticks: int) -> float:
    """Convert ticks to (floating point) seconds."""
    return ticks / TICKS_PER_SEC


def ticks_to_ns(ticks: int) -> float:
    """Convert ticks to (floating point) nanoseconds."""
    return ticks / TICKS_PER_NS


def freq_to_period(freq_hz: float) -> int:
    """Return the clock period in ticks for a frequency in Hz.

    >>> freq_to_period(10**9)
    1000
    """
    if freq_hz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_hz}")
    return max(1, round(TICKS_PER_SEC / freq_hz))


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
