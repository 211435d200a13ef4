"""Collecting telemetry for one simulated point.

:func:`collect_point` is a point's whole telemetry life cycle: it builds
a fresh :class:`TelemetryRuntime` from the caller's settings, makes it
the point's collector (:data:`~repro.telemetry.state.COLLECTOR`), runs
the point body -- under cProfile when profiling -- writes the point's
artifacts and detaches the hooks in ``finally``.  Serial and pool
execution share it: the sweep engine calls it from the one point body
both run.

Attachment happens in :func:`repro.core.runner.system_for` -- the one
chokepoint every runner acquires systems through -- right after the
memoized reset, mirroring how :class:`~repro.faults.injector.FaultModel`
attaches fault state (default-``None`` attributes checked next to
existing branches).  Because the hooks come off when the point ends, a
memoized system goes back to the memo exactly as untraced code left it.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional, Tuple

from repro.telemetry.metrics import MetricsSampler
from repro.telemetry.state import COLLECTOR, TelemetrySettings
from repro.telemetry.tracer import DmaTrace, LinkTrace, SpanTracer

__all__ = ["ARTIFACT_SUFFIXES", "TelemetryRuntime", "artifact_path",
           "collect_point"]

#: File name suffix of each per-point artifact: ``<key_hash><suffix>``.
#: Rerunning a point overwrites its artifacts (byte-identically, except
#: the wall-clock profile).
ARTIFACT_SUFFIXES = {
    "trace": ".trace.json",
    "metrics": ".metrics.json",
    "prometheus": ".prom",
    "profile": ".profile.json",
}


def artifact_path(directory: str, key_hash: str, kind: str) -> str:
    """Where the ``kind`` artifact of point ``key_hash`` lives."""
    return os.path.join(directory, key_hash + ARTIFACT_SUFFIXES[kind])


class TelemetryRuntime:
    """The collection pipeline for one simulated point."""

    def __init__(self, settings: TelemetrySettings) -> None:
        self.settings = settings
        self.tracer: Optional[SpanTracer] = (
            SpanTracer() if settings.trace else None
        )
        self.metrics: Optional[MetricsSampler] = (
            MetricsSampler(settings.metrics_every)
            if settings.metrics_every is not None
            else None
        )
        #: The system the point acquired (and carries the hooks).
        self.system = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def on_system_acquired(self, system) -> None:
        """Instrument ``system`` and open the point's collection window."""
        self.detach()
        self._attach(system)
        self.system = system
        if self.tracer is not None:
            self.tracer.clear()
        if self.metrics is not None:
            self.metrics.begin_run(system)
            self.metrics.arm(system.sim)

    def _attach(self, system) -> None:
        if self.tracer is None:
            return
        tracer = self.tracer
        hooks = {}
        for link in system.fabric.links():
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

    def detach(self) -> None:
        """Take every hook off the instrumented system, if any."""
        system = self.system
        if system is None:
            return
        for link in system.fabric.links():
            link.trace = None
        fault_model = getattr(system, "fault_model", None)
        if fault_model is not None:
            for state in fault_model.link_states.values():
                state.trace = None
        for wrapper in system.wrappers:
            wrapper.dma.trace = None
        self.system = None

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def write_artifacts(self, key_hash: str,
                        profile: Optional[dict]) -> Optional[dict]:
        """Write the point's artifacts; return its telemetry summary.

        Artifacts land in ``settings.trace_dir`` (none without one) from
        whichever process simulated the point.  The summary -- carried
        on :attr:`repro.sweep.engine.SweepOutcome.telemetry` -- is
        JSON-safe and deterministic, because it crosses process
        boundaries: the profile's wall-clock numbers go only into their
        artifact file.  None when nothing was collected.
        """
        from repro.sweep.cache import atomic_write_json

        directory = self.settings.trace_dir
        if directory:
            os.makedirs(directory, exist_ok=True)

        def path(kind: str) -> str:
            return artifact_path(directory, key_hash, kind)

        out: dict = {}
        if self.tracer is not None:
            entry: dict = {"events": len(self.tracer)}
            if directory:
                entry["path"] = path("trace")
                self.tracer.write_chrome(entry["path"])
            out["trace"] = entry
        if self.metrics is not None:
            entry = {"summary": self.metrics.summary()}
            if directory:
                entry["path"] = path("metrics")
                entry["prometheus_path"] = path("prometheus")
                atomic_write_json(entry["path"], self.metrics.to_record())
                with open(entry["prometheus_path"], "w",
                          encoding="utf-8") as handle:
                    handle.write(self.metrics.prometheus_text())
            out["metrics"] = entry
        if profile is not None and directory:
            out["profile"] = {"path": path("profile")}
            atomic_write_json(out["profile"]["path"], profile)
        if self.system is not None and self.settings.diagnostics:
            out["diagnostics"] = self.system.sim.diagnostics()
        return out or None


def collect_point(
    settings: TelemetrySettings, key_hash: str, body: Callable, *args
) -> Tuple[Any, Optional[dict]]:
    """Run ``body(*args)`` -- one simulated point -- collecting telemetry.

    Returns ``(body's return value, the point's telemetry summary or
    None)``.  ``settings.profile`` with an artifact directory runs the
    body under cProfile.  The body is a call rather than a ``with``
    block because cProfile's ``runcall`` then profiles the point and
    nothing of the collection around it.
    """
    from repro.telemetry import profiler

    runtime = TelemetryRuntime(settings)
    token = COLLECTOR.set(runtime)
    try:
        if settings.profile and settings.trace_dir:
            value, profile = profiler.profile_call(body, *args)
        else:
            value, profile = body(*args), None
        return value, runtime.write_artifacts(key_hash, profile)
    finally:
        COLLECTOR.reset(token)
        runtime.detach()
