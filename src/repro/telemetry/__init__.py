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

Telemetry is an explicit argument, scoped to one simulated point: the
sweep entry points take ``telemetry=TelemetrySettings(...)`` and hand
the settings to every point they simulate (inside each pool job), where
:func:`~repro.telemetry.runtime.collect_point` attaches the hooks,
writes the artifacts and detaches them again.  Telemetry never touches
cache keys or result records: it observes a simulation, it does not
participate in one.  Disabled -- the default -- every hook is ``None``
and the golden-value tests pin bit-identical results; the
per-acquisition collector check is gated below 2% of a warm point by
``benchmarks/bench_perf_core.py``'s ``tracer_off_overhead`` metric.
"""

from repro.telemetry.metrics import MetricsSampler, render_prometheus
from repro.telemetry.runtime import TelemetryRuntime, collect_point
from repro.telemetry.state import TelemetrySettings, on_system_acquired
from repro.telemetry.tracer import SpanTracer, validate_chrome_trace

__all__ = [
    "MetricsSampler",
    "SpanTracer",
    "TelemetryRuntime",
    "TelemetrySettings",
    "collect_point",
    "on_system_acquired",
    "render_prometheus",
    "validate_chrome_trace",
]
