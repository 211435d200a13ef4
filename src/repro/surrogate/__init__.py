"""Analytical surrogate tier: score huge grids, simulate only survivors.

The fidelity ladder in one import::

    from repro.surrogate import LadderSpec, run_ladder
    from repro.sweep import build_sweep

    ladder = LadderSpec(spec=build_sweep("fig6a-mem-bandwidth"),
                        top_k="10%", margin=0.1)
    report = run_ladder(ladder, cache_dir="~/.cache/repro/sweeps")
    print(report.describe())

See docs/SURROGATE.md for the model assumptions, the calibration
workflow, and the error-quantile gating rules.
"""

from repro.surrogate.ladder import (
    CalibrationError,
    LadderReport,
    LadderSpec,
    prune_estimates,
    run_ladder,
    survivor_spec,
)
from repro.surrogate.model import (
    OBJECTIVES,
    LinkFeatures,
    SurrogateEstimate,
    estimate_point,
    estimate_spec,
    features_for,
    memory_bandwidth,
)
from repro.surrogate.prune import pareto_front, parse_top_k, top_k
from repro.surrogate.xval import (
    Calibration,
    RunnerCalibration,
    cross_validate,
    simulated_ticks,
    stratified_sample,
)

__all__ = [
    "SurrogateEstimate",
    "LinkFeatures",
    "OBJECTIVES",
    "estimate_point",
    "estimate_spec",
    "features_for",
    "memory_bandwidth",
    "top_k",
    "pareto_front",
    "parse_top_k",
    "LadderSpec",
    "LadderReport",
    "CalibrationError",
    "run_ladder",
    "prune_estimates",
    "survivor_spec",
    "Calibration",
    "RunnerCalibration",
    "cross_validate",
    "stratified_sample",
    "simulated_ticks",
]
