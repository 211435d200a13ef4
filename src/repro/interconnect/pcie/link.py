"""PCIe link configuration and the directional channel pipeline.

A :class:`PCIeChannel` is one direction of the device<->host path of
Fig. 1: PHY serialization over the lanes, then the switch, then the root
complex (or the reverse).  Each hop is store-and-forward -- it must receive
a full TLP before forwarding it -- and has a fixed traversal latency
(Table II: 150 ns root complex, 50 ns switch) plus a per-TLP processing
occupancy that bounds its packet rate.

Timing per transaction (a train of ``n`` TLPs):

* the wire serializes ``payload + n * header`` bytes at the effective
  bandwidth (lanes x lane rate x encoding efficiency),
* each hop delays the train by its latency plus one TLP serialization
  (store-and-forward fill),
* hop processing occupancies bound the sustainable TLP rate, so a slow
  hop, not the wire, can be the bottleneck for small TLPs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.interconnect.pcie.tlp import TLPParams
from repro.sim.eventq import Simulator
from repro.sim.simobject import SimObject
from repro.sim.transaction import Transaction
from repro.sim.ticks import ns, serialization_ticks


@dataclass(frozen=True)
class PCIeConfig:
    """Full configuration of a PCIe hierarchy.

    Defaults reproduce Table II of the paper: a Gen-2-style link with four
    lanes and 4 Gb/s effective per-lane rate (5 GT/s line rate with 8b/10b
    encoding), a 150 ns root complex and a 50 ns switch.
    """

    lanes: int = 4
    lane_gbps: float = 5.0
    encoding: Tuple[int, int] = (8, 10)
    tlp: TLPParams = field(default_factory=TLPParams)
    rc_latency: int = ns(150)
    switch_latency: int = ns(50)
    #: Per-TLP processing occupancy (packet-rate bound) at each component.
    rc_tlp_occupancy: int = ns(4)
    switch_tlp_occupancy: int = ns(2)
    #: Receive buffer per store-and-forward hop.  A TLP larger than half
    #: the buffer cannot overlap reception with transmission, so oversized
    #: packets stall the pipeline at each component (the paper's Fig. 4
    #: right branch).
    hop_buffer_bytes: int = 5632
    #: Maximum outstanding non-posted (read) requests a device may keep
    #: in flight; enforced by the requester (DMA engine).
    max_tags: int = 32

    def __post_init__(self) -> None:
        if self.lanes not in (1, 2, 4, 8, 16, 32):
            raise ValueError(f"invalid lane count {self.lanes}")
        if self.lane_gbps <= 0:
            raise ValueError(f"lane rate must be positive, got {self.lane_gbps}")
        num, den = self.encoding
        if not 0 < num <= den:
            raise ValueError(f"invalid encoding {self.encoding}")

    @property
    def raw_bytes_per_sec(self) -> int:
        """Line-rate bandwidth across all lanes, before encoding."""
        return round(self.lanes * self.lane_gbps * 10**9 / 8)

    @property
    def effective_bytes_per_sec(self) -> int:
        """Usable bandwidth after encoding overhead."""
        num, den = self.encoding
        return round(self.raw_bytes_per_sec * num / den)

    def describe(self) -> str:
        """One-line summary used by benchmark reports."""
        return (
            f"PCIe x{self.lanes} @ {self.lane_gbps} Gb/s/lane "
            f"({self.effective_bytes_per_sec / 1e9:.1f} GB/s effective, "
            f"MPS {self.tlp.max_payload} B)"
        )


def tlp_params_for(config: PCIeConfig, packet_size: Optional[int]) -> TLPParams:
    """Packetization for a transaction's ``packet_size`` (None: the link's)."""
    if packet_size is not None and packet_size != config.tlp.max_payload:
        return TLPParams(
            max_payload=packet_size,
            header_bytes=config.tlp.header_bytes,
        )
    return config.tlp


def train_timing(
    config: PCIeConfig, tlp: TLPParams, payload_bytes: int, force_tlps: int
) -> Tuple[int, int, int, int]:
    """Shared TLP-train arithmetic for every channel/link model.

    Returns ``(n_tlps, wire_bytes, serialize_ticks, tlp_fill_ticks)``:
    the TLP count (``force_tlps`` overrides header-only trains), the
    on-wire byte total, the serialization time *including* the
    store-and-forward credit stall for TLPs larger than half a hop
    buffer, and one (largest) TLP's wire time -- the per-hop
    store-and-forward fill.  The flat :class:`PCIeChannel` and the
    topology fabric's ``SwitchLink`` both build their timing from this
    single definition, through :class:`TrainMemo`, so the degenerate-case
    bit-identity cannot drift.
    """
    bandwidth = config.effective_bytes_per_sec
    n_tlps = max(tlp.num_tlps(payload_bytes), force_tlps)
    wire_bytes = max(0, payload_bytes) + n_tlps * tlp.header_bytes
    serialize = serialization_ticks(wire_bytes, bandwidth)
    per_tlp_payload = min(max(payload_bytes, 0), tlp.max_payload)
    buffer_bytes = config.hop_buffer_bytes
    if 2 * per_tlp_payload > buffer_bytes:
        serialize = serialize * 2 * per_tlp_payload // buffer_bytes
    tlp_fill = serialization_ticks(
        tlp.tlp_wire_bytes(payload_bytes), bandwidth
    )
    return n_tlps, wire_bytes, serialize, tlp_fill


#: Shapes one link's :class:`TrainMemo` keeps.  DMA traffic repeats a
#: handful of segment shapes; the cap only guards pathological streams of
#: distinct sizes (the DRAM striping memo uses the same bound).
TRAIN_MEMO_ENTRIES = 4096


class TrainMemo(dict):
    """One link's TLP-train timing, computed once per train shape.

    Maps ``(packet_size, payload_bytes, force_tlps)`` -- every per-call
    input of a train -- to the *pre-fault* ``(n_tlps, wire_bytes,
    occupancy, tlp_wire_ticks, pipeline_fill)``: :func:`train_timing`
    plus the link's hop constants.  Occupancy is the serialization time
    or the packet-rate bound of the slowest hop (``hop_occupancy`` per
    TLP), whichever is longer; the pipeline fill is ``hop_latency`` plus
    one TLP store-and-forward fill per hop.  The value is a pure function
    of the key and construction-time configuration, so it survives
    ``reset_state`` and a hit is bit-identical to recomputing it.  Fault
    injection adjusts the returned values on every call.

    A miss builds (and validates) the ``TLPParams``; a shape that fails
    validation raises and is never stored, so it raises on every call.
    """

    __slots__ = ("config", "hop_latency", "hop_occupancy", "hops")

    def __init__(self, config: PCIeConfig, hop_latency: int,
                 hop_occupancy: int, hops: int) -> None:
        super().__init__()
        self.config = config
        self.hop_latency = hop_latency
        self.hop_occupancy = hop_occupancy
        self.hops = hops

    def __missing__(
        self, key: Tuple[Optional[int], int, int]
    ) -> Tuple[int, int, int, int, int]:
        packet_size, payload_bytes, force_tlps = key
        tlp = tlp_params_for(self.config, packet_size)
        n_tlps, wire_bytes, serialize, tlp_fill = train_timing(
            self.config, tlp, payload_bytes, force_tlps
        )
        shape = (
            n_tlps,
            wire_bytes,
            max(serialize, n_tlps * self.hop_occupancy),
            tlp_fill,
            self.hop_latency + self.hops * tlp_fill,
        )
        if len(self) < TRAIN_MEMO_ENTRIES:
            self[key] = shape
        return shape


class PCIeChannel(SimObject):
    """One direction of the PCIe hierarchy (a train of hops).

    ``hops`` is a list of ``(latency, per_tlp_occupancy)`` pairs in
    traversal order; the standard device->host path is switch then root
    complex.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: PCIeConfig,
        hops: List[Tuple[int, int]] | None = None,
    ) -> None:
        super().__init__(sim, name)
        self.config = config
        if hops is None:
            hops = [
                (config.switch_latency, config.switch_tlp_occupancy),
                (config.rc_latency, config.rc_tlp_occupancy),
            ]
        self.hops = hops
        self._trains = TrainMemo(
            config,
            hop_latency=sum(latency for latency, _ in hops),
            hop_occupancy=max((occupancy for _, occupancy in hops), default=0),
            hops=len(hops),
        )
        self._wire_free_at = 0
        self._last_arrival = 0
        #: Fault-injection state (:class:`repro.faults.injector
        #: .LinkFaultState`); attached by the system's fault model, None
        #: on every fault-free run.
        self.faults = None
        #: Telemetry hook (:class:`repro.telemetry.tracer.LinkTrace`);
        #: attached by the telemetry runtime, None when tracing is off.
        self.trace = None

        self._tlps = self.stats.scalar("tlps", "TLPs carried")
        self._payload_bytes = self.stats.scalar("payload_bytes", "payload carried")
        self._wire_byte_stat = self.stats.scalar(
            "wire_bytes", "bytes on the wire incl. headers"
        )
        self._busy_ticks = self.stats.scalar("busy_ticks", "wire occupancy")

    def reset_state(self) -> None:
        super().reset_state()
        self._wire_free_at = 0
        self._last_arrival = 0
        if self.faults is not None:
            self.faults.reset()

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def deliver(
        self,
        txn: Transaction,
        payload_bytes: int,
        on_arrive,
        force_tlps: int = 0,
    ) -> None:
        """Carry ``payload_bytes`` of ``txn`` and fire ``on_arrive(txn)``.

        ``payload_bytes`` may be zero (header-only read request) or differ
        from ``txn.size`` (a fabric sends the request header up but the
        completion payload down).  ``force_tlps`` overrides the TLP count
        for header-only trains: a read of N bytes issues one request TLP
        per packet-size chunk, not a single request.
        """
        # Wire occupancy is serialization (with the oversized-TLP credit
        # stall folded in by train_timing) or the packet-rate bound of the
        # slowest hop; the pipeline fill is the store-and-forward delay:
        # each hop adds its latency plus one TLP serialization before the
        # head of the train moves on.  Both are looked up per train shape.
        n_tlps, wire_bytes, occupancy, tlp_wire_ticks, pipeline_fill = (
            self._trains[txn.packet_size, payload_bytes, force_tlps]
        )

        sim = self.sim
        start = sim.now
        if start < self._wire_free_at:
            start = self._wire_free_at
        if self.faults is not None:
            stall, occupancy = self.faults.adjust(
                start, occupancy, n_tlps, tlp_wire_ticks
            )
            start += stall
        self._wire_free_at = start + occupancy

        # Arrivals are FIFO: PCIe ordering rules forbid overtaking within
        # a virtual channel, so a short train never passes a long one.
        arrival = start + occupancy + pipeline_fill
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival

        # Batched stat update (equivalent to inc() per counter).
        self._tlps.value += n_tlps
        if payload_bytes > 0:
            self._payload_bytes.value += payload_bytes
        self._wire_byte_stat.value += wire_bytes
        self._busy_ticks.value += occupancy
        self.stats.dirty = True
        if self.trace is not None:
            self.trace.tlp_train(start, occupancy, n_tlps, payload_bytes)
        sim.schedule_at(arrival, lambda: on_arrive(txn))

    @property
    def utilization_window(self) -> float:
        """Busy fraction so far (for reports)."""
        return self._busy_ticks.value / self.now if self.now else 0.0
