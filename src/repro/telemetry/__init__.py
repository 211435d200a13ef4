"""Telemetry: span tracing, time-series metrics, host-time profiling.

Three observability primitives for the simulator (docs/OBSERVABILITY.md):

* :mod:`repro.telemetry.tracer` -- tick-domain spans (DMA descriptor
  lifecycles, TLP trains per link hop, fault retrain/down-train
  windows) exported as deterministic Chrome trace-event JSON, loadable
  in Perfetto.
* :mod:`repro.telemetry.metrics` -- periodic StatGroup delta snapshots
  in a bounded ring buffer, with a Prometheus text exposition writer.
* :mod:`repro.telemetry.profiler` -- each simulated point run under
  stdlib ``cProfile``, with self time and calls folded by the ``repro``
  package (layer) that defines each function.  It loads ``cProfile``
  only when a point is profiled.

Sessions are process-global (:func:`activate` / :func:`deactivate`,
inherited by sweep pool workers through an environment variable) and
never touch cache keys or result records: telemetry observes a
simulation, it does not participate in one.  Disabled -- the default --
every hook is ``None`` and the golden-value tests pin bit-identical
results; the per-acquisition session check is gated below 2% of a warm
point by ``benchmarks/bench_perf_core.py``'s ``tracer_off_overhead``
metric.
"""

from repro.telemetry.metrics import MetricsSampler, render_prometheus
from repro.telemetry.runtime import TelemetryRuntime
from repro.telemetry.state import (
    TELEMETRY_ENV,
    TelemetrySettings,
    activate,
    active,
    current_runtime,
    deactivate,
    drain_point,
    on_system_acquired,
)
from repro.telemetry.tracer import (
    TRACER,
    NullTracer,
    SpanTracer,
    validate_chrome_trace,
)

__all__ = [
    "TELEMETRY_ENV",
    "MetricsSampler",
    "NullTracer",
    "SpanTracer",
    "TRACER",
    "TelemetryRuntime",
    "TelemetrySettings",
    "activate",
    "active",
    "current_runtime",
    "deactivate",
    "drain_point",
    "on_system_acquired",
    "render_prometheus",
    "validate_chrome_trace",
]
