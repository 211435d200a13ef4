"""Runtime fault state attached to links, DMA engines and drivers.

:class:`FaultModel` compiles a frozen :class:`~repro.faults.spec.FaultSpec`
against a built system: every matching link gets a
:class:`LinkFaultState` (its injection hook plus per-fault-class stat
counters), every DMA engine gets the retry policy and its endpoint's
stall/crash state, and every driver learns whether its device can be
lost.  Nothing here runs when ``SystemConfig.faults`` is ``None`` -- the
hooks in the links and the DMA engine are a single ``is None`` check,
so the fault-free path stays bit-identical to a tree without this
subsystem (pinned by the golden tests).

Determinism: a link's injection decisions are pure functions of
``(spec.seed, link name, per-link train counter)`` plus the train's
deterministic start tick.  The counters advance once per granted train
and are rewound by ``reset_state``, so reruns and ``--shard`` slices
all see identical schedules.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.prng import stream_for, uniform
from repro.faults.spec import (
    DeviceLostError,
    EndpointFault,
    FaultSpec,
    LinkFaults,
)

__all__ = [
    "DeviceLostError",
    "EndpointFaultState",
    "FaultModel",
    "LinkFaultState",
]


class LinkFaultState:
    """Deterministic fault runtime for one directional link.

    Attached as ``link.faults``; the link's timing path calls
    :meth:`adjust` once per granted TLP train.  Stats are created
    lazily here -- only faulty links grow ``fault_*`` counters, so the
    stat-snapshot shape of fault-free systems never changes.
    """

    __slots__ = (
        "spec", "stream", "counter", "trace",
        "_replays", "_replay_ticks", "_retrain_ticks", "_downtrain_ticks",
    )

    def __init__(self, spec: LinkFaults, seed: int, link_name: str,
                 stats) -> None:
        self.spec = spec
        self.stream = stream_for(seed, link_name)
        self.counter = 0
        # Telemetry hook (repro.telemetry): the owning link's LinkTrace,
        # so retrain/down-train windows land on the same trace row as
        # the TLP trains they delay; None when tracing is off.
        self.trace = None
        self._replays = stats.scalar(
            "fault_replays", "TLPs retransmitted after LCRC corruption"
        )
        self._replay_ticks = stats.scalar(
            "fault_replay_ticks", "wire time spent on ACK/NAK replays"
        )
        self._retrain_ticks = stats.scalar(
            "fault_retrain_stall_ticks", "ticks stalled in retrain windows"
        )
        self._downtrain_ticks = stats.scalar(
            "fault_downtrain_penalty_ticks",
            "extra occupancy from down-trained lanes",
        )

    def reset(self) -> None:
        """Rewind the draw counter (stat values reset with the group)."""
        self.counter = 0

    def adjust(self, start: int, occupancy: int, n_tlps: int,
               tlp_fill: int) -> tuple:
        """Apply this link's faults to one TLP train.

        Returns ``(stall, occupancy)``: ``stall`` is how long the train
        waits for a retrain window to close before the wire is usable,
        and ``occupancy`` is the (possibly inflated) wire time.  The
        caller folds the stall into its own notion of start time (the
        flat channel delays ``start``, the switch link extends the wire
        hold) -- both keep FIFO arrival ordering.
        """
        spec = self.spec
        # Persistent lane down-training: bandwidth divided from a tick on.
        if spec.downtrain_at and start >= spec.downtrain_at \
                and spec.downtrain_factor > 1:
            penalty = occupancy * (spec.downtrain_factor - 1)
            occupancy += penalty
            self._downtrain_ticks.inc(penalty)
            if self.trace is not None:
                self.trace.downtrain(start, penalty)
        # Retrain window: the wire is dead until the window closes.
        stall = 0
        if spec.retrain_period and spec.retrain_duration:
            phase = start % spec.retrain_period
            if phase < spec.retrain_duration:
                stall = spec.retrain_duration - phase
                self._retrain_ticks.inc(stall)
                if self.trace is not None:
                    self.trace.retrain(start, stall)
        # Transient TLP corruption -> NAK + replay-buffer retransmission.
        # One counter draw per train: the expected corrupted-TLP count is
        # n * rate; the fractional remainder resolves through the
        # counter-based PRNG so long-run rates are exact and every
        # decision replays bit-identically.
        if spec.corrupt_rate > 0.0 and n_tlps > 0:
            counter = self.counter
            self.counter = counter + 1
            expected = n_tlps * spec.corrupt_rate
            replays = int(expected)
            fraction = expected - replays
            if fraction > 0.0 and uniform(self.stream, counter) < fraction:
                replays += 1
            replays = min(replays, n_tlps * spec.max_replays_per_tlp)
            if replays:
                penalty = replays * (tlp_fill + spec.replay_latency)
                occupancy += penalty
                self._replays.inc(replays)
                self._replay_ticks.inc(penalty)
        return stall, occupancy


class EndpointFaultState:
    """Stall/crash schedule of one endpoint (pure functions of the tick)."""

    __slots__ = ("fault",)

    def __init__(self, fault: EndpointFault) -> None:
        self.fault = fault

    def crashed(self, now: int) -> bool:
        crash_at = self.fault.crash_at
        return crash_at is not None and now >= crash_at

    def dropping(self, now: int) -> bool:
        """Whether a completion arriving at ``now`` is lost."""
        if self.crashed(now):
            return True
        return self.fault.stall_from <= now < self.fault.stall_until


class FaultModel:
    """A :class:`FaultSpec` compiled against one built system."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.link_states: Dict[str, LinkFaultState] = {}
        self.endpoint_states: Dict[int, EndpointFaultState] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, system) -> None:
        """Wire the spec into ``system``'s links, DMA engines and drivers.

        Called once from ``AcceSysSystem.__init__`` after the fabric,
        wrappers and drivers exist; the attachment survives ``reset()``
        (per-run counters rewind through each component's
        ``reset_state``).
        """
        spec = self.spec
        # CXLFabric inherits links() from PCIeFabric, so gate on the
        # configured interconnect.
        if system.config.interconnect == "cxl":
            raise ValueError(
                "fault injection models the PCIe fabric; the CXL port has "
                "no TLP trains to corrupt -- drop `faults` or use a PCIe "
                "interconnect"
            )
        for link in system.fabric.links():
            entry = spec.link_spec_for(link.name)
            if entry is not None and entry.active:
                state = LinkFaultState(entry, spec.seed, link.name, link.stats)
                link.faults = state
                self.link_states[link.name] = state

        for fault in spec.endpoints:
            if not 0 <= fault.endpoint < len(system.wrappers):
                raise ValueError(
                    f"endpoint fault targets index {fault.endpoint}, but the "
                    f"cluster has {len(system.wrappers)} accelerator(s)"
                )
            self.endpoint_states[fault.endpoint] = EndpointFaultState(fault)

        if spec.retry is not None:
            for index, wrapper in enumerate(system.wrappers):
                wrapper.dma.configure_faults(
                    spec.retry, self.endpoint_states.get(index)
                )
        for index, driver in enumerate(system.drivers):
            state = self.endpoint_states.get(index)
            if state is not None:
                driver.fault_state = state

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def link_totals(self) -> Dict[str, int]:
        """Summed per-fault-class link counters across every faulty link."""
        totals = {
            "replays": 0,
            "replay_ticks": 0,
            "retrain_stall_ticks": 0,
            "downtrain_penalty_ticks": 0,
        }
        for state in self.link_states.values():
            totals["replays"] += int(state._replays.value)
            totals["replay_ticks"] += int(state._replay_ticks.value)
            totals["retrain_stall_ticks"] += int(state._retrain_ticks.value)
            totals["downtrain_penalty_ticks"] += int(
                state._downtrain_ticks.value
            )
        return totals
