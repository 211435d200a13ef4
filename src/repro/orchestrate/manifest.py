"""Re-export of :func:`repro.sweep.apply_overrides`."""

# The benchmark harness under perfbench/ still imports apply_overrides
# from this path; it moves to ``repro.sweep`` with the next benchmark
# change, and this shim goes with it.
from repro.sweep.experiments import apply_overrides

__all__ = ["apply_overrides"]
