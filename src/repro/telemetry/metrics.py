"""Time-series metrics: periodic StatGroup snapshots with deltas.

The sampler rides the dirty-flag/generation machinery of
:class:`~repro.sim.statistics.StatGroup`: a component whose stats have
not moved since the previous sample is skipped on a two-field check
(``dirty`` plus ``generation``), so clean components cost nothing per
sample and the per-sample cost is O(components touched in the window).

Samples land in a bounded ring buffer (oldest dropped, drop count
kept), each holding the *deltas* of every changed series over the
window -- a sweep point reports utilization/queue-depth/retry-rate
timelines instead of only final counters.  Sampling is driven by a
self-rescheduling simulator event at :data:`~repro.sim.eventq.
PRIORITY_LATE` (observing a settled tick) which stands down as soon as
it finds the queue otherwise empty, so drain-mode ``run()`` still
terminates.  The sampler only ever *reads* stats; simulated results are
bit-identical with and without it (``events_executed`` moves, which is
exactly why runner records exclude it).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.eventq import PRIORITY_LATE

__all__ = ["MetricsSampler", "render_prometheus"]


def _escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def render_prometheus(families: Sequence[tuple]) -> str:
    """Prometheus text exposition for a list of metric families.

    ``families`` is ``[(name, kind, help, samples), ...]`` where
    ``samples`` is ``[(labels or None, value), ...]``.  One writer for
    the whole tree: the sampler's per-point ``.prom`` artifacts and the
    result server's ``/metrics`` endpoint emit through this, so both
    stay deterministic (caller-ordered families, ``repr``-stable value
    formatting, escaped label values) and format drift cannot split
    them.
    """
    lines: List[str] = []
    for name, kind, help_text, samples in families:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            if labels:
                rendered = ",".join(
                    f'{key}="{_escape_label(val)}"'
                    for key, val in labels.items()
                )
                lines.append(f"{name}{{{rendered}}} {value!r}")
            else:
                lines.append(f"{name} {value!r}")
    return "\n".join(lines) + "\n"


class MetricsSampler:
    """Ring-buffered periodic sampler over a set of stat groups."""

    def __init__(self, every: int, capacity: int = 4096) -> None:
        if every < 1:
            raise ValueError(f"sample interval must be >= 1 tick, got {every}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.every = every
        self.capacity = capacity
        #: Retained samples: (tick, {series: delta}).
        self.samples: deque = deque(maxlen=capacity)
        #: Samples evicted by the ring bound.
        self.dropped = 0
        self.total_samples = 0
        #: Watched groups: (StatGroup, last generation seen).
        self._groups: List[list] = []
        #: Latest absolute value per series (across all samples).
        self._latest: Dict[str, float] = {}
        #: Absolute values at the previous sample, per series.
        self._previous: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def begin_run(self, system) -> None:
        """Point a fresh collection window at ``system``'s components.

        Called once per point acquisition (after the system reset), so
        baselines, the ring buffer and the watch list never leak across
        points or across the different systems of a mixed-config grid.
        """
        self.samples.clear()
        self.dropped = 0
        self.total_samples = 0
        self._latest.clear()
        self._previous.clear()
        self._groups = [
            [obj.stats, obj.stats.generation]
            for obj in system.sim.objects
            if getattr(obj, "stats", None) is not None
        ]

    def arm(self, sim) -> None:
        """Schedule the periodic sample event on ``sim``.

        The event re-arms itself only while other events remain pending,
        so it never keeps a drained queue alive.
        """
        every = self.every

        def fire() -> None:
            self.sample_now(sim.now)
            if sim.pending_events > 0:
                sim.schedule(every, fire, priority=PRIORITY_LATE)

        sim.schedule(every, fire, priority=PRIORITY_LATE)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_now(self, tick: int) -> Dict[str, float]:
        """Take one sample: deltas of every series that moved."""
        deltas: Dict[str, float] = {}
        previous = self._previous
        latest = self._latest
        for entry in self._groups:
            group, seen_generation = entry
            if not group.dirty and group.generation == seen_generation:
                continue  # untouched since the last sample: free skip
            for key, value in group.flatten():
                if previous.get(key, 0) != value:
                    deltas[key] = value - previous.get(key, 0)
                    previous[key] = value
                    latest[key] = value
            entry[1] = group.generation
        self.total_samples += 1
        if len(self.samples) == self.capacity:
            self.dropped += 1
        self.samples.append((tick, deltas))
        return deltas

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def timeline(self, series: str) -> List[Tuple[int, float]]:
        """(tick, delta) pairs for one series, oldest first."""
        return [
            (tick, deltas[series])
            for tick, deltas in self.samples
            if series in deltas
        ]

    def summary(self) -> dict:
        """Compact JSON-safe description for shard reports/provenance."""
        return {
            "every": self.every,
            "samples": self.total_samples,
            "retained": len(self.samples),
            "dropped": self.dropped,
            "series": len(self._latest),
        }

    def to_record(self) -> dict:
        """Full JSON-safe dump: summary plus the retained timeline."""
        return {
            **self.summary(),
            "timeline": [
                {"tick": tick, "deltas": dict(sorted(deltas.items()))}
                for tick, deltas in self.samples
            ],
        }

    def prometheus_text(self) -> str:
        """Prometheus text exposition of the latest absolute values.

        Series names become labels of one ``repro_stat`` family (dotted
        stat names are not valid Prometheus metric names), plus sampler
        meta-counters.  Deterministic: series sorted, values rendered
        with ``repr``-stable formatting.
        """
        return render_prometheus([
            (
                "repro_stat", "gauge",
                "Simulated component statistic (latest absolute value).",
                [({"series": name}, self._latest[name])
                 for name in sorted(self._latest)],
            ),
            (
                "repro_samples_total", "counter",
                "Samples taken this run.",
                [(None, self.total_samples)],
            ),
            (
                "repro_samples_dropped", "counter",
                "Samples evicted by the ring buffer.",
                [(None, self.dropped)],
            ),
        ])
