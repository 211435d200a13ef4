"""Simulator self-profiling: host wall-clock per component bucket.

Attributes the *host* time spent inside ``Simulator.run`` to the
components whose callbacks consumed it, bucketed by event name (every
component schedules its events under its own name).  Two modes:

* ``"exact"`` wraps every callback in a ``perf_counter`` pair --
  precise, roughly doubles loop overhead, fine for diagnosis runs.
* ``"sampling"`` times every *K*-th event and scales the measurement by
  the stride -- an estimate whose loop overhead stays near zero.

The profiler is host-side observation only: it never touches simulated
time, so results stay bit-identical (the run merely takes longer).  Its
*output* is wall-clock and therefore non-deterministic -- it is kept
out of trace artifacts and result records, which must be byte-stable.

Near-zero overhead when off: ``Simulator._profiler`` defaults to
``None`` and the run loop pays one local ``is None`` test per event.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["SelfProfiler"]


class SelfProfiler:
    """Wall-clock accumulator keyed by event-name bucket."""

    MODES = ("exact", "sampling")

    __slots__ = ("mode", "sample_every", "buckets", "events_seen")

    def __init__(self, mode: str = "exact", sample_every: int = 97) -> None:
        if mode not in self.MODES:
            raise ValueError(
                f"profiler mode must be one of {self.MODES}, got {mode!r}"
            )
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.mode = mode
        self.sample_every = sample_every if mode == "sampling" else 1
        #: bucket name -> [timed_calls, seconds].
        self.buckets: Dict[str, list] = {}
        self.events_seen = 0

    def record(self, name: str, seconds: float) -> None:
        """Credit ``seconds`` of host time to bucket ``name``."""
        bucket = self.buckets.get(name)
        if bucket is None:
            self.buckets[name] = [1, seconds]
        else:
            bucket[0] += 1
            bucket[1] += seconds

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Estimated total attributed host time (stride-scaled)."""
        return sum(b[1] for b in self.buckets.values()) * self.sample_every

    def table(self, limit: Optional[int] = None) -> List[dict]:
        """Buckets sorted by attributed time, heaviest first."""
        rows = [
            {
                "bucket": name or "(anonymous)",
                "timed_calls": calls,
                "seconds": seconds * self.sample_every,
            }
            for name, (calls, seconds) in self.buckets.items()
        ]
        rows.sort(key=lambda row: (-row["seconds"], row["bucket"]))
        return rows[:limit] if limit is not None else rows

    def to_record(self) -> dict:
        return {
            "mode": self.mode,
            "sample_every": self.sample_every,
            "events_seen": self.events_seen,
            "total_seconds": self.total_seconds,
            "buckets": self.table(),
        }
