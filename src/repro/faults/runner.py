"""Resilience workloads: DMA streams driven through a faulty fabric.

:class:`ResilienceRunner` measures what the fault subsystem exists to
answer: how much goodput survives a given fault schedule, and how the
degradation machinery (ACK/NAK replays, retrain stalls, completion
timeouts, bounded retries, descriptor aborts) accounts for the loss.
One point submits a fixed stream of DMA transfers round-robin across
the cluster and reports completion/abort counts, latency tail, and the
per-fault-class totals gathered from the link and engine counters.

The runner registers as ``"resilience"`` in the sweep registry, so the
``resilience-*`` grids flow through the existing cache / shard /
fidelity-ladder machinery unchanged -- the
:class:`~repro.faults.spec.FaultSpec` rides the config hash, keeping
cached fault-free results honest.

This module is deliberately *not* imported by ``repro.faults.__init__``:
it pulls the sweep/runner stack, which imports the system builder, which
imports the driver, which imports ``repro.faults.spec`` -- importing it
from the package root would create a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.config import SystemConfig
from repro.core.runner import WorkloadRunner
from repro.faults.spec import FaultSpec
from repro.sim.ticks import ticks_to_seconds
from repro.sweep.spec import SweepPoint, SweepSpec, register_runner


@dataclass
class ResilienceResult:
    """Outcome of one resilience point: goodput under a fault schedule."""

    config_name: str
    transfers: int
    size_bytes: int
    active_devices: int
    #: Transfers that completed / aborted (their sum is ``transfers``
    #: unless the run hung, which drive() turns into a hard error).
    completed: int
    aborted: int
    #: Last completion/abort tick -- end-to-end makespan of the stream.
    ticks: int
    #: Bytes of *successfully delivered* payload (completed transfers).
    payload_bytes: int
    #: DMA-engine fault counters summed across the cluster.
    timeouts: int = 0
    retries: int = 0
    #: Link fault counters summed across every faulty link.
    replays: int = 0
    replay_ticks: int = 0
    retrain_stall_ticks: int = 0
    downtrain_penalty_ticks: int = 0
    #: Cluster indices whose device was lost by end of run.
    device_lost: List[int] = field(default_factory=list)
    #: Completion-latency distribution over completed transfers (ticks).
    latency_p50: int = 0
    latency_max: int = 0

    @property
    def seconds(self) -> float:
        return ticks_to_seconds(self.ticks)

    @property
    def goodput_bytes_per_sec(self) -> float:
        """Delivered payload over the makespan (aborted bytes excluded)."""
        if self.ticks == 0:
            return 0.0
        return self.payload_bytes / ticks_to_seconds(self.ticks)

    @property
    def completion_rate(self) -> float:
        if self.transfers == 0:
            return 0.0
        return self.completed / self.transfers


class ResilienceRunner(WorkloadRunner):
    """A fixed DMA stream pushed through whatever faults the config arms.

    ``transfers`` descriptors of ``size_bytes`` each are submitted up
    front, round-robin across the cluster's first ``devices`` DMA
    engines (device-to-host writes: pure fabric/host-memory traffic, no
    kernel launches, so endpoint crash faults surface through the DMA
    timeout path rather than the driver).  The system then drains; each
    descriptor either completes or -- under an armed
    :class:`~repro.faults.spec.RetryPolicy` -- aborts with an error
    string.  A transfer that does neither means the fault schedule
    swallowed a completion with no retry machinery armed; drive() raises
    rather than report a silent hang.
    """

    def drive(
        self,
        system,
        size_bytes: int = 65536,
        transfers: int = 8,
        devices: Optional[int] = None,
    ) -> ResilienceResult:
        from repro.dma import DMADescriptor, DMADirection

        config = system.config
        total = len(system.wrappers)
        active = total if devices is None else devices
        if not 1 <= active <= total:
            raise ValueError(
                f"devices={active} out of range 1..{total} "
                f"(cluster has {total} accelerator(s))"
            )

        records = []
        for index in range(transfers):
            device = index % active
            addr = system.alloc_buffer(
                f"resilience.{index}", size_bytes,
                driver=system.drivers[device],
            )
            descriptor = DMADescriptor(
                addr=addr, size=size_bytes,
                direction=DMADirection.DEVICE_TO_HOST, stream="R",
            )
            record = {"descriptor": descriptor, "done_at": None}

            def complete(_descriptor, record=record) -> None:
                record["done_at"] = system.now

            system.wrappers[device].dma.submit(descriptor, complete)
            records.append(record)
        system.run()

        hung = [r for r in records if r["done_at"] is None]
        if hung:
            raise RuntimeError(
                f"{len(hung)}/{transfers} transfers neither completed nor "
                f"aborted -- a fault swallowed their completions with no "
                f"RetryPolicy armed (set FaultSpec.retry)"
            )
        completed = [
            r for r in records if r["descriptor"].error is None
        ]
        aborted = [r for r in records if r["descriptor"].error is not None]
        latencies = sorted(r["done_at"] for r in completed)

        timeouts = retries = 0
        for wrapper in system.wrappers:
            stats = wrapper.dma.stats
            if "fault_timeouts" in stats:
                timeouts += int(stats["fault_timeouts"].value)
                retries += int(stats["fault_retries"].value)

        link_totals = {
            "replays": 0, "replay_ticks": 0,
            "retrain_stall_ticks": 0, "downtrain_penalty_ticks": 0,
        }
        if system.fault_model is not None:
            link_totals = system.fault_model.link_totals()

        # The makespan is the last completion/abort tick, *not*
        # ``system.now``: cancelled timeout events are reaped lazily and
        # must never leak into the reported end of the stream.
        ticks = max((r["done_at"] for r in records), default=0)
        return ResilienceResult(
            config_name=config.name,
            transfers=transfers,
            size_bytes=size_bytes,
            active_devices=active,
            completed=len(completed),
            aborted=len(aborted),
            ticks=ticks,
            payload_bytes=len(completed) * size_bytes,
            timeouts=timeouts,
            retries=retries,
            replays=link_totals["replays"],
            replay_ticks=link_totals["replay_ticks"],
            retrain_stall_ticks=link_totals["retrain_stall_ticks"],
            downtrain_penalty_ticks=link_totals["downtrain_penalty_ticks"],
            device_lost=[
                index for index, driver in enumerate(system.drivers)
                if driver.device_lost
            ],
            latency_p50=(
                latencies[(len(latencies) - 1) // 2] if latencies else 0
            ),
            latency_max=latencies[-1] if latencies else 0,
        )


def run_resilience(
    config: SystemConfig,
    size_bytes: int = 65536,
    transfers: int = 8,
    devices: Optional[int] = None,
) -> ResilienceResult:
    """Drive one resilience stream under ``config`` (faults included)."""
    return ResilienceRunner().run(
        config, size_bytes=size_bytes, transfers=transfers, devices=devices
    )


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
register_runner("resilience", run_resilience, ResilienceResult)


def apply_faults(spec: SweepSpec, faults: Optional[FaultSpec]) -> SweepSpec:
    """Copy of ``spec`` with every point running under ``faults``.

    The CLI's ``sweep --faults <preset>`` overlays a fault schedule onto
    any registered grid.  Because the spec rides the config hash, the
    overlaid points can never alias the fault-free cache entries.
    ``None`` returns the spec unchanged.
    """
    if faults is None:
        return spec
    points = [
        SweepPoint(point.key, point.config.with_faults(faults), point.params)
        for point in spec.points
    ]
    return SweepSpec(
        name=spec.name,
        points=points,
        runner=spec.runner,
        base_seed=spec.base_seed,
        auto_seed=spec.auto_seed,
    )
