"""Wiring a telemetry session into built systems.

:class:`TelemetryRuntime` is the per-process companion of one active
:class:`~repro.telemetry.state.TelemetrySettings`: it attaches hook
objects to a system's instrumented components (mirroring how
:class:`~repro.faults.injector.FaultModel` attaches fault state --
default-``None`` attributes checked next to existing branches), arms
the metrics sampler per point, and *drains* the
collected data after each point so consecutive points of a sweep never
bleed into each other.

Attachment happens in :func:`repro.core.runner.system_for` -- the one
chokepoint every runner acquires systems through -- right after the
memoized reset, and survives ``reset()`` exactly like fault state does.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.metrics import MetricsSampler
from repro.telemetry.state import TelemetrySettings
from repro.telemetry.tracer import DmaTrace, LinkTrace, SpanTracer

__all__ = ["TelemetryRuntime"]


def _fabric_links(system) -> list:
    """Every directional link of the system's fabric, in stable order."""
    from repro.topology.fabric import SwitchedPCIeFabric

    fabric = system.fabric
    if isinstance(fabric, SwitchedPCIeFabric):
        return list(fabric.links())
    up = getattr(fabric, "up", None)
    down = getattr(fabric, "down", None)
    return [link for link in (up, down) if link is not None]


class TelemetryRuntime:
    """One process-wide collection pipeline for an active session."""

    def __init__(self, settings: TelemetrySettings) -> None:
        self.settings = settings
        self.tracer: Optional[SpanTracer] = (
            SpanTracer() if settings.trace else None
        )
        self.metrics: Optional[MetricsSampler] = (
            MetricsSampler(settings.metrics_every, settings.metrics_capacity)
            if settings.metrics_every is not None
            else None
        )
        #: Systems instrumented so far (strong refs are fine: the system
        #: memo retains at most a handful per process).
        self._attached: List = []
        self._attached_ids = set()
        self.current_system = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def on_system_acquired(self, system) -> None:
        """Instrument ``system`` (once) and open a new point window."""
        if id(system) not in self._attached_ids:
            self._attach(system)
            self._attached_ids.add(id(system))
            self._attached.append(system)
        self.current_system = system
        if self.tracer is not None:
            self.tracer.clear()
        if self.metrics is not None:
            self.metrics.begin_run(system)
            self.metrics.arm(system.sim)

    def _attach(self, system) -> None:
        if self.tracer is None:
            return
        tracer = self.tracer
        hooks: Dict[str, LinkTrace] = {}
        for link in _fabric_links(system):
            hook = LinkTrace(tracer, link.name)
            link.trace = hook
            hooks[link.name] = hook
        fault_model = getattr(system, "fault_model", None)
        if fault_model is not None:
            for name, state in fault_model.link_states.items():
                state.trace = hooks.get(name)
        for wrapper in system.wrappers:
            dma = wrapper.dma
            dma.trace = DmaTrace(tracer, dma.name)

    def _detach(self, system) -> None:
        for link in _fabric_links(system):
            link.trace = None
        fault_model = getattr(system, "fault_model", None)
        if fault_model is not None:
            for state in fault_model.link_states.values():
                state.trace = None
        for wrapper in system.wrappers:
            wrapper.dma.trace = None

    def detach_all(self) -> None:
        for system in self._attached:
            self._detach(system)
        self._attached.clear()
        self._attached_ids.clear()
        self.current_system = None

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def drain_point(self) -> dict:
        """Collect everything recorded since the last acquisition.

        Clears the tracer (the sampler resets at the next acquisition)
        so each point's artifacts stand alone.  The
        returned dict is JSON-safe except for ``trace.chrome_json``,
        which is the pre-serialized (byte-stable) trace document.
        """
        out: dict = {}
        if self.tracer is not None:
            out["trace"] = {
                "events": len(self.tracer),
                "chrome_json": self.tracer.to_chrome_json(),
            }
            self.tracer.clear()
        if self.metrics is not None:
            out["metrics"] = {
                "summary": self.metrics.summary(),
                "record": self.metrics.to_record(),
                "prometheus": self.metrics.prometheus_text(),
            }
        system = self.current_system
        if system is not None and self.settings.diagnostics:
            out["diagnostics"] = system.sim.diagnostics()
        return out
