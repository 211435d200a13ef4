"""Telemetry settings and the slot that scopes collection to one point.

Settings travel explicitly: a caller hands :class:`TelemetrySettings` to
the sweep engine (``run_sweep(..., telemetry=settings)``), which passes
them to every point it simulates -- inside the pool job tuple when a
worker simulates it -- and
:func:`repro.telemetry.runtime.collect_point` fills :data:`COLLECTOR`
for that point alone.  Settings never ride the content-addressed cache
key: telemetry never changes what a point *computes*, so it must never
change what a point is *named*.

The system factory (:func:`repro.core.runner.system_for`) calls
:func:`on_system_acquired` on *every* acquisition, including the default
untraced path, so this module imports nothing beyond the standard
library and the hook costs one ``None`` check when nothing collects.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

__all__ = ["COLLECTOR", "TelemetrySettings", "on_system_acquired"]


@dataclass(frozen=True)
class TelemetrySettings:
    """What the telemetry layer should collect for each simulated point.

    Everything defaults to *off*; :attr:`enabled` is False for the
    default settings, and the instrumentation hooks stay ``None`` so the
    fault-layer precedent holds: an inactive telemetry subsystem is
    bit-identical (and, within the perf gate, cost-identical) to a tree
    without one.
    """

    #: Record tick-domain spans (DMA lifecycles, TLP trains, fault
    #: windows) and export Chrome trace JSON.
    trace: bool = False
    #: Directory for per-point trace artifacts (``<key_hash>.trace.json``).
    trace_dir: Optional[str] = None
    #: Sample StatGroup deltas every N simulated ticks (None disables).
    metrics_every: Optional[int] = None
    #: Run each point under cProfile and write its per-package layer
    #: table to ``trace_dir`` (``<key_hash>.profile.json``); without a
    #: ``trace_dir`` nothing is profiled.
    profile: bool = False
    #: Capture ``Simulator.diagnostics()`` per point.
    diagnostics: bool = False

    @property
    def enabled(self) -> bool:
        return bool(
            self.trace
            or self.metrics_every is not None
            or self.profile
            or self.diagnostics
        )


#: The :class:`~repro.telemetry.runtime.TelemetryRuntime` collecting the
#: point simulated in this context, or None.  Only
#: :func:`~repro.telemetry.runtime.collect_point` sets it, and it
#: restores the previous value when the point ends.
COLLECTOR: ContextVar = ContextVar("repro_telemetry_collector", default=None)


def on_system_acquired(system) -> None:
    """Hook called by :func:`repro.core.runner.system_for`.

    A no-op (one None check) outside a collected point; otherwise
    attaches instrumentation to ``system`` and opens the point's
    collection window.
    """
    runtime = COLLECTOR.get()
    if runtime is not None:
        runtime.on_system_acquired(system)
