"""Roofline analysis of the accelerator system (Fig. 2).

The paper fixes the PCIe bandwidth (8 GB/s) and sweeps the systolic
array's computation time, observing two regimes: above the crossover the
system is *compute-bound* (execution time scales with compute time),
below it *memory-bound* (execution time is flat, pinned by the data-path
bandwidth).  ``roofline_sweep`` reproduces the experiment by sweeping the
array's per-tile compute-time override; ``find_crossover`` locates the
boundary between the regimes.

The sweep itself runs on the sweep engine (the registered ``roofline``
sweep), so it shares the result cache, parallel workers, and ``--shard``
slicing with every other experiment; :func:`roofline_sweep` remains the
thin public wrapper over that path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.analytical import EPSILON
from repro.core.config import SystemConfig
from repro.sim.ticks import ns, us

#: Default per-tile compute-time samples: spans both regimes on the
#: paper's 8 GB/s reference system at small matrix sizes.
DEFAULT_COMPUTE_TICKS = (ns(100), ns(500), us(1), us(4), us(16), us(64))


@dataclass(frozen=True)
class RooflinePoint:
    """One sweep sample."""

    compute_ticks: int
    exec_ticks: int
    normalized: float


def roofline_points(
    config: SystemConfig,
    matrix_size: int,
    compute_ticks_values: Sequence[int],
):
    """The sweep points behind :func:`roofline_sweep`.

    Keys are the per-tile compute-tick overrides, so cached results are
    shared between the wrapper and the registered ``roofline`` sweep.
    """
    from repro.sweep.spec import SweepPoint, square_gemm

    if not compute_ticks_values:
        raise ValueError("need at least one compute-time sample")
    return [
        SweepPoint(
            key=int(compute_ticks),
            config=config.with_(compute_ticks_override=int(compute_ticks)),
            params=square_gemm(matrix_size),
        )
        for compute_ticks in compute_ticks_values
    ]


def roofline_sweep(
    config: SystemConfig,
    matrix_size: int,
    compute_ticks_values: Sequence[int],
    workers: Optional[int] = None,
    cache: bool = False,
    cache_dir=None,
    shard=None,
) -> List[RooflinePoint]:
    """Run the GEMM at each per-tile compute time; normalize to the max.

    A thin wrapper over the sweep engine: pass ``cache=True`` (or a
    ``cache_dir``) to reuse the content-addressed result cache, and
    ``workers``/``shard`` exactly as for :func:`repro.sweep.run_sweep`.
    Caching is off by default so direct calls stay side-effect free.
    """
    from repro.sweep.engine import run_sweep
    from repro.sweep.spec import SweepSpec

    points = roofline_points(config, matrix_size, compute_ticks_values)
    spec = SweepSpec(name="roofline", points=points, runner="gemm")
    if cache_dir is not None:
        cache = True
    report = run_sweep(
        spec, workers=workers, cache=cache, cache_dir=cache_dir, shard=shard
    )
    results = report.results()
    raw = [
        (point.key, results[point.key].ticks)
        for point in spec.points
        if point.key in results  # a shard runs a slice of the grid
    ]
    slowest = max(ticks for _, ticks in raw)
    return [
        RooflinePoint(compute, ticks, ticks / slowest)
        for compute, ticks in raw
    ]


def find_crossover(
    points: Sequence[RooflinePoint], tolerance: float = 0.05
) -> Optional[int]:
    """Compute time at the memory-bound/compute-bound boundary.

    Points are sorted by compute time; the memory-bound plateau is the
    region where execution time stays within ``tolerance`` of the minimum.
    Returns the largest compute time still on the plateau (the paper's
    red line), or None if the sweep never leaves one regime.
    """
    ordered = sorted(points, key=lambda p: p.compute_ticks)
    floor = min(p.exec_ticks for p in ordered)
    plateau = [
        p for p in ordered
        if p.exec_ticks <= floor * (1 + tolerance + EPSILON)
    ]
    if not plateau or len(plateau) == len(ordered):
        return None
    return plateau[-1].compute_ticks
