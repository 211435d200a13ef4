"""The fidelity ladder: surrogate-score, prune, then simulate survivors.

A :class:`LadderSpec` wraps any sweep spec.  :func:`run_ladder` scores
the full grid analytically (microseconds per point), prunes it with
top-K or Pareto selection, and feeds only the surviving points through
the normal :func:`repro.sweep.run_sweep` path -- so the content-addressed
result cache and ``--shard`` slicing apply to the survivors unchanged.  Cache keys depend only on (runner, config,
params), never on the spec or the ladder, so a survivor's simulated
record is bit-identical to running the same point without the ladder.

When a :class:`~repro.surrogate.xval.Calibration` is attached, the
ladder refuses to prune if the measured p95 relative error exceeds the
safety margin: pruning on an estimate less accurate than the margin
would silently drop true winners.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.surrogate.model import SurrogateEstimate, estimate_spec
from repro.surrogate.prune import pareto_front, parse_top_k, top_k
from repro.sweep.spec import SweepSpec


class CalibrationError(ValueError):
    """The measured surrogate error is too large for the requested margin."""


@dataclass(frozen=True)
class LadderSpec:
    """A sweep spec plus the pruning policy applied before simulation.

    Exactly one of ``top_k`` (an int or ``"10%"``-style string) and
    ``pareto`` must be set.  ``objectives`` picks what the filter
    minimizes: top-K uses the first entry, Pareto all of them.
    """

    spec: SweepSpec
    top_k: Optional[Any] = None
    pareto: bool = False
    objectives: Tuple[str, ...] = ("ticks",)
    margin: float = 0.1
    calibration: Optional[Any] = None

    def __post_init__(self) -> None:
        if (self.top_k is None) == (not self.pareto):
            raise ValueError(
                "exactly one of top_k and pareto must be selected"
            )
        if self.margin < 0:
            raise ValueError(f"margin must be non-negative, got {self.margin}")
        if not self.objectives:
            raise ValueError("need at least one objective")


@dataclass
class LadderReport:
    """Surrogate estimates, pruning decision, and the simulated survivors."""

    spec_name: str
    estimates: List[SurrogateEstimate]
    survivor_keys: List[Any]
    report: Any  # SweepReport of the surviving points

    @property
    def scored(self) -> int:
        return len(self.estimates)

    @property
    def surviving(self) -> int:
        return len(self.survivor_keys)

    @property
    def pruned(self) -> int:
        return self.scored - self.surviving

    def describe(self) -> str:
        return (
            f"ladder '{self.spec_name}': scored {self.scored} points, "
            f"pruned {self.pruned}, simulated {self.surviving} "
            f"({self.report.hits} cached / {self.report.misses} simulated)"
        )

    def to_record(self) -> Dict[str, Any]:
        """JSON-able summary: estimates alongside simulated records."""
        record = self.report.to_record()
        record["ladder"] = {
            "scored": self.scored,
            "pruned": self.pruned,
            "surviving": self.surviving,
            "estimates": [est.to_record() for est in self.estimates],
        }
        return record


def prune_estimates(
    ladder: LadderSpec, estimates: Sequence[SurrogateEstimate]
) -> List[SurrogateEstimate]:
    """Apply the ladder's pruning policy to a scored grid."""
    if ladder.pareto:
        return pareto_front(
            estimates, objectives=ladder.objectives, margin=ladder.margin
        )
    k = parse_top_k(ladder.top_k, len(estimates))
    return top_k(
        estimates, k, objective=ladder.objectives[0], margin=ladder.margin
    )


def survivor_spec(spec: SweepSpec, survivor_keys) -> SweepSpec:
    """The sub-spec of surviving points, preserving runner and seeds."""
    keep = set(survivor_keys)
    points = [p for p in spec.points if p.key in keep]
    return dataclasses.replace(spec, points=points)


def run_ladder(
    ladder: LadderSpec,
    workers: Optional[int] = None,
    cache=True,
    cache_dir=None,
    shard=None,
    progress=None,
    telemetry=None,
) -> LadderReport:
    """Score, prune, and simulate one wrapped sweep.

    Keyword arguments pass straight through to
    :func:`repro.sweep.run_sweep` for the surviving points.

    Raises :class:`CalibrationError` when a calibration is attached and
    its measured p95 relative error for this runner exceeds the margin.
    """
    from repro.sweep.engine import run_sweep

    spec = ladder.spec
    if ladder.calibration is not None:
        runner = spec.runner if isinstance(spec.runner, str) else getattr(
            spec.runner, "name", str(spec.runner)
        )
        p95 = ladder.calibration.p95_for(runner)
        if p95 is not None and p95 > ladder.margin:
            raise CalibrationError(
                f"refusing to prune '{spec.name}': measured p95 relative "
                f"error {p95:.4f} for runner '{runner}' exceeds the safety "
                f"margin {ladder.margin:g}; raise --margin to at least "
                f"{p95:.4f} or improve the calibration"
            )
    estimates = estimate_spec(spec, calibration=ladder.calibration)
    survivors = prune_estimates(ladder, estimates)
    keys = [est.key for est in survivors]
    sub = survivor_spec(spec, keys)
    report = run_sweep(
        sub,
        workers=workers,
        cache=cache,
        cache_dir=cache_dir,
        shard=shard,
        progress=progress,
        telemetry=telemetry,
    )
    return LadderReport(
        spec_name=spec.name,
        estimates=estimates,
        survivor_keys=keys,
        report=report,
    )
