"""Frozen fault-injection specifications.

A :class:`FaultSpec` describes everything that can go wrong on a
simulated run: per-link fault schedules (TLP corruption with ACK/NAK
replay, link retraining windows, persistent lane down-training),
endpoint stall/crash events, and the retry policy the DMA engines use
to survive them.  It rides :class:`~repro.core.config.SystemConfig` as
an ordinary frozen field, so it flows through ``to_canonical()`` /
``stable_hash()`` and the sweep cache keys on it like any other
configuration knob -- a faulty run can never alias a fault-free cache
entry.

All schedules are *deterministic*: periodic windows and crash ticks are
literal tick values, and probabilistic corruption expands from
``FaultSpec.seed`` through the counter-based PRNG in
:mod:`repro.faults.prng` (see docs/FAULTS.md for the guarantees).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro.sim.ticks import ns, us


class DeviceLostError(RuntimeError):
    """Raised by the driver when its device has crashed off the bus.

    Surfacing the loss as an exception (instead of an MMIO write into
    the void that never completes) is what keeps callers from hanging
    on a dead endpoint.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Completion-timeout and retry behaviour of the DMA engines.

    ``completion_timeout`` arms a timer per in-flight segment; on expiry
    the segment is reissued with the timeout scaled by
    ``backoff ** attempts`` (exponential backoff), up to ``max_retries``
    reissues.  ``retry_budget`` bounds how many segments *per channel*
    may be in a retry state at once -- a segment that times out with the
    budget exhausted aborts its descriptor instead of retrying.
    """

    completion_timeout: int = us(200)
    max_retries: int = 3
    backoff: int = 2
    retry_budget: int = 4

    def __post_init__(self) -> None:
        if self.completion_timeout <= 0:
            raise ValueError(
                f"completion timeout must be positive, got {self.completion_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 1:
            raise ValueError(f"backoff factor must be >= 1, got {self.backoff}")
        if self.retry_budget < 1:
            raise ValueError(f"retry budget must be >= 1, got {self.retry_budget}")


@dataclass(frozen=True)
class LinkFaults:
    """Fault schedule for every link whose name matches ``link``.

    ``link`` is an ``fnmatch`` pattern over compiled link names
    (``system.pcie.up``, ``system.pcie.ep2.down``, ...); the first
    matching entry in ``FaultSpec.links`` wins.

    Fault classes (any combination):

    * ``corrupt_rate`` -- per-TLP LCRC corruption probability.  Each
      corrupted TLP is NAK'd and retransmitted from the replay buffer,
      costing one TLP wire time plus ``replay_latency`` (the ACK/NAK
      turnaround); ``max_replays_per_tlp`` bounds the retransmissions
      charged to one train.
    * ``retrain_period`` / ``retrain_duration`` -- the link retrains for
      ``retrain_duration`` ticks at the start of every
      ``retrain_period``-tick interval; trains hitting the window stall
      until it closes.
    * ``downtrain_at`` / ``downtrain_factor`` -- at tick
      ``downtrain_at`` the link permanently down-trains its lanes,
      dividing effective bandwidth by ``downtrain_factor``.
    """

    link: str = "*"
    corrupt_rate: float = 0.0
    replay_latency: int = ns(250)
    max_replays_per_tlp: int = 4
    retrain_period: int = 0
    retrain_duration: int = 0
    downtrain_at: int = 0
    downtrain_factor: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError(
                f"corrupt_rate must be in [0, 1], got {self.corrupt_rate}"
            )
        if self.replay_latency < 0:
            raise ValueError(
                f"replay latency must be >= 0, got {self.replay_latency}"
            )
        if self.max_replays_per_tlp < 1:
            raise ValueError(
                f"max_replays_per_tlp must be >= 1, got {self.max_replays_per_tlp}"
            )
        if self.retrain_period < 0 or self.retrain_duration < 0:
            raise ValueError("retrain period/duration must be >= 0")
        if self.retrain_period and self.retrain_duration >= self.retrain_period:
            raise ValueError(
                f"retrain_duration ({self.retrain_duration}) must be shorter "
                f"than retrain_period ({self.retrain_period})"
            )
        if self.downtrain_at < 0:
            raise ValueError(f"downtrain_at must be >= 0, got {self.downtrain_at}")
        if self.downtrain_factor < 1:
            raise ValueError(
                f"downtrain_factor must be >= 1, got {self.downtrain_factor}"
            )

    @property
    def active(self) -> bool:
        """Whether this entry injects anything at all."""
        return bool(
            self.corrupt_rate > 0.0
            or (self.retrain_period and self.retrain_duration)
            or (self.downtrain_at and self.downtrain_factor > 1)
        )


@dataclass(frozen=True)
class EndpointFault:
    """Stall or crash schedule for one endpoint (cluster index).

    ``crash_at`` kills the device at that tick: completions it owes are
    lost forever and the driver surfaces :class:`DeviceLostError` on any
    later launch.  ``stall_from`` / ``stall_until`` define a transient
    window during which completions are dropped (lost TLPs); retries
    issued after the window succeed.
    """

    endpoint: int = 0
    crash_at: Optional[int] = None
    stall_from: int = 0
    stall_until: int = 0

    def __post_init__(self) -> None:
        if self.endpoint < 0:
            raise ValueError(f"endpoint index must be >= 0, got {self.endpoint}")
        if self.crash_at is not None and self.crash_at < 0:
            raise ValueError(f"crash_at must be >= 0, got {self.crash_at}")
        if self.stall_from < 0 or self.stall_until < self.stall_from:
            raise ValueError(
                f"stall window [{self.stall_from}, {self.stall_until}) is invalid"
            )


@dataclass(frozen=True)
class FaultSpec:
    """The complete fault model of one simulated run.

    ``links`` entries match link names first-match-wins; ``endpoints``
    entries must name distinct cluster indices.  ``retry`` enables the
    DMA completion-timeout machinery -- required whenever an endpoint
    fault can swallow completions, otherwise the run would hang exactly
    the way an unprotected real system would.
    """

    seed: int = 1
    links: Tuple[LinkFaults, ...] = ()
    endpoints: Tuple[EndpointFault, ...] = ()
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        indices = [fault.endpoint for fault in self.endpoints]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate endpoint fault indices: {indices}")
        if self.endpoints and self.retry is None:
            raise ValueError(
                "endpoint stall/crash faults swallow completions; a "
                "RetryPolicy is required so transfers time out and abort "
                "instead of hanging"
            )

    def with_seed(self, seed: int) -> "FaultSpec":
        return replace(self, seed=seed)

    def link_spec_for(self, name: str) -> Optional[LinkFaults]:
        """First ``links`` entry matching ``name`` (or ``None``)."""
        from fnmatch import fnmatchcase

        for entry in self.links:
            if fnmatchcase(name, entry.link):
                return entry
        return None

    def describe(self) -> str:
        """Multi-line human summary (the ``faults describe`` CLI body)."""
        lines = [f"seed: {self.seed}"]
        if not self.links and not self.endpoints:
            lines.append("links: (none)")
        for entry in self.links:
            parts = []
            if entry.corrupt_rate > 0.0:
                parts.append(
                    f"corrupt_rate={entry.corrupt_rate:g} "
                    f"(replay {entry.replay_latency} ticks, "
                    f"<= {entry.max_replays_per_tlp}/TLP)"
                )
            if entry.retrain_period and entry.retrain_duration:
                parts.append(
                    f"retrain {entry.retrain_duration}/{entry.retrain_period} ticks"
                )
            if entry.downtrain_at and entry.downtrain_factor > 1:
                parts.append(
                    f"downtrain /{entry.downtrain_factor} at tick "
                    f"{entry.downtrain_at}"
                )
            lines.append(f"link {entry.link!r}: {'; '.join(parts) or 'no-op'}")
        for fault in self.endpoints:
            parts = []
            if fault.crash_at is not None:
                parts.append(f"crash at tick {fault.crash_at}")
            if fault.stall_until > fault.stall_from:
                parts.append(
                    f"stall [{fault.stall_from}, {fault.stall_until}) ticks"
                )
            lines.append(f"endpoint {fault.endpoint}: {'; '.join(parts)}")
        if self.retry is not None:
            retry = self.retry
            lines.append(
                f"retry: timeout {retry.completion_timeout} ticks, "
                f"x{retry.backoff} backoff, <= {retry.max_retries} retries, "
                f"budget {retry.retry_budget}/channel"
            )
        else:
            lines.append("retry: (none -- faults degrade, nothing aborts)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Preset registry (CLI: ``sweep --faults <preset>``, ``faults describe``)
# ----------------------------------------------------------------------
FAULT_PRESETS: Dict[str, Callable[[], FaultSpec]] = {}


def register_preset(name: str):
    """Decorator: register a factory building a named :class:`FaultSpec`."""

    def wrap(factory: Callable[[], FaultSpec]) -> Callable[[], FaultSpec]:
        FAULT_PRESETS[name] = factory
        return factory

    return wrap


def fault_preset(name: str, seed: Optional[int] = None) -> FaultSpec:
    """Instantiate a registered preset (optionally reseeded)."""
    try:
        factory = FAULT_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault preset {name!r}; registered: {sorted(FAULT_PRESETS)}"
        ) from None
    spec = factory()
    if seed is not None:
        spec = spec.with_seed(seed)
    return spec


@register_preset("noisy-wire")
def _noisy_wire() -> FaultSpec:
    """1e-3 per-TLP corruption on every link, retries on."""
    return FaultSpec(
        seed=7,
        links=(LinkFaults(link="*", corrupt_rate=1e-3),),
        retry=RetryPolicy(),
    )


@register_preset("retrain-storm")
def _retrain_storm() -> FaultSpec:
    """The shared uplink retrains 10 us out of every 100 us."""
    return FaultSpec(
        seed=7,
        links=(
            LinkFaults(link="*.up", retrain_period=us(100),
                       retrain_duration=us(10)),
        ),
        retry=RetryPolicy(),
    )


@register_preset("slow-lane")
def _slow_lane() -> FaultSpec:
    """Endpoint 0's wires down-train to half bandwidth at 50 us."""
    return FaultSpec(
        seed=7,
        links=(
            LinkFaults(link="*.ep0.*", downtrain_at=us(50),
                       downtrain_factor=2),
        ),
        retry=RetryPolicy(),
    )


@register_preset("flaky-endpoint")
def _flaky_endpoint() -> FaultSpec:
    """Endpoint 0 drops completions for a 300 us window, then recovers."""
    return FaultSpec(
        seed=7,
        endpoints=(EndpointFault(endpoint=0, stall_from=us(20),
                                 stall_until=us(320)),),
        retry=RetryPolicy(),
    )


@register_preset("dead-endpoint")
def _dead_endpoint() -> FaultSpec:
    """Endpoint 0 crashes off the bus at 50 us and never returns."""
    return FaultSpec(
        seed=7,
        endpoints=(EndpointFault(endpoint=0, crash_at=us(50)),),
        retry=RetryPolicy(),
    )
