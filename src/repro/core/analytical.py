"""GEMM / non-GEMM trade-off model (Section V-D.2, Fig. 9).

The paper models total transformer time as::

    Time_overall = T_other + W_GEMM / P_GEMM + W_NonGEMM / P_NonGEMM

where the W's are workload fractions and the P's per-class performance of
a configuration.  Feeding the model with *measured* per-class times from
:func:`~repro.core.runner.run_vit` lets us sweep the non-GEMM fraction
from 0 to 100% and find the thresholds where DevMem stops paying off --
the paper reports W_GEMM > 34.31% (2 GB/s), 10.16% (8 GB/s) and 4.27%
(64 GB/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Shared tolerance for the crossover/threshold helpers.  The models are
#: linear, so ratios that differ only by floating-point noise must not
#: flip a threshold between "exists" and "dominates everywhere" -- every
#: comparison against 1.0 (or between the two curves) uses this epsilon.
EPSILON = 1e-9


@dataclass(frozen=True)
class TradeoffModel:
    """Per-configuration unit costs calibrated from a measured run.

    ``gemm_unit_time`` / ``nongemm_unit_time`` are the times the
    configuration needs for the *whole* reference workload's GEMM and
    non-GEMM portions; ``t_other`` is the fixed remainder.
    """

    name: str
    gemm_unit_time: float
    nongemm_unit_time: float
    t_other: float = 0.0

    def __post_init__(self) -> None:
        for label, value in (
            ("gemm_unit_time", self.gemm_unit_time),
            ("nongemm_unit_time", self.nongemm_unit_time),
            ("t_other", self.t_other),
        ):
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{label} must be a finite number, got {value!r}")
            if value < 0:
                raise ValueError(f"{label} must be non-negative, got {value}")

    @classmethod
    def from_measured(
        cls, name: str, gemm_ticks: float, nongemm_ticks: float,
        other_ticks: float = 0.0,
    ) -> "TradeoffModel":
        """Calibrate from a measured run's per-class times.

        Inputs are validated exactly like direct construction (finite,
        non-negative); tick counts are coerced to float so integer
        measurements and analytical estimates feed one code path.
        """
        return cls(
            name,
            float(gemm_ticks),
            float(nongemm_ticks),
            float(other_ticks),
        )

    def overall_time(self, nongemm_fraction: float) -> float:
        """Total time for a workload with the given non-GEMM share.

        The reference workload is rescaled so that ``nongemm_fraction``
        of its *work* is non-GEMM: fractions weight each class's unit
        time, exactly the paper's formula with W_G + W_NG = 1.
        """
        if not 0.0 <= nongemm_fraction <= 1.0:
            raise ValueError(
                f"fraction must be within [0, 1], got {nongemm_fraction}"
            )
        w_gemm = 1.0 - nongemm_fraction
        return (
            self.t_other
            + w_gemm * self.gemm_unit_time
            + nongemm_fraction * self.nongemm_unit_time
        )

    def sweep(self, steps: int = 101) -> List[Tuple[float, float]]:
        """(fraction, time) samples across the whole range."""
        return [
            (i / (steps - 1), self.overall_time(i / (steps - 1)))
            for i in range(steps)
        ]


def relative_time_curve(
    devmem: TradeoffModel, pcie: TradeoffModel, steps: int = 11
) -> List[Tuple[float, float]]:
    """DevMem time normalized to the PCIe system, vs non-GEMM time share.

    This is the exact parameterization of the paper's Fig. 9: the x-axis
    is the fraction of total time the workload spends in non-GEMM *when
    executed on the PCIe system*; the PCIe curve is the constant 1.  With
    ``r_g = G_dev / G_pcie`` and ``r_ng = NG_dev / NG_pcie``::

        T_dev(w) = (1 - w) * r_g + w * r_ng
    """
    if pcie.gemm_unit_time <= 0 or pcie.nongemm_unit_time <= 0:
        raise ValueError("PCIe reference times must be positive")
    r_g = devmem.gemm_unit_time / pcie.gemm_unit_time
    r_ng = devmem.nongemm_unit_time / pcie.nongemm_unit_time
    return [
        (w, (1 - w) * r_g + w * r_ng)
        for w in (i / (steps - 1) for i in range(steps))
    ]


def nongemm_time_threshold(
    devmem: TradeoffModel, pcie: TradeoffModel
) -> Optional[float]:
    """Largest non-GEMM time share at which DevMem still wins (Fig. 9).

    The paper reports these thresholds falling with PCIe bandwidth:
    34.31% at 2 GB/s, 10.16% at 8 GB/s, 4.27% at 64 GB/s (DevMem is
    preferred when the non-GEMM fraction stays below the threshold).
    Returns None when DevMem never wins, 1.0 when it always wins.
    """
    if pcie.gemm_unit_time <= 0 or pcie.nongemm_unit_time <= 0:
        raise ValueError("PCIe reference times must be positive")
    r_g = devmem.gemm_unit_time / pcie.gemm_unit_time
    r_ng = devmem.nongemm_unit_time / pcie.nongemm_unit_time
    if r_g >= 1.0 - EPSILON:
        return None if r_ng >= 1.0 - EPSILON else 1.0
    if r_ng <= 1.0 + EPSILON:
        return 1.0
    # Solve (1 - w) r_g + w r_ng = 1.
    return (1.0 - r_g) / (r_ng - r_g)
