"""Transaction-layer packet (TLP) arithmetic.

A PCIe transfer is carried as a train of TLPs.  Each TLP pays a fixed
per-packet overhead -- the 3-4 DW transaction-layer header plus data-link
framing (sequence number, LCRC, STP/END symbols) -- and carries at most
``max_payload`` bytes.  Requests without data (memory reads) are
header-only TLPs.  These few numbers produce the left branch of the
paper's Fig. 4 (small packets waste wire on headers) and, combined with
store-and-forward forwarding, the right branch (large packets stall the
pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Transaction-layer header: 4 DW (64-bit addressing) = 16 bytes.
TL_HEADER_BYTES = 16
#: Data-link + physical framing: 2B sequence + 4B LCRC + 2B framing.
DL_FRAMING_BYTES = 8


@dataclass(frozen=True)
class TLPParams:
    """Packetization parameters for a PCIe hierarchy.

    ``max_payload`` is the familiar Max_Payload_Size knob swept by the
    paper's packet-size experiment (64..4096 bytes).
    """

    max_payload: int = 256
    header_bytes: int = TL_HEADER_BYTES + DL_FRAMING_BYTES

    def __post_init__(self) -> None:
        if self.max_payload <= 0:
            raise ValueError(f"max payload must be positive, got {self.max_payload}")
        if self.header_bytes <= 0:
            raise ValueError(f"header bytes must be positive, got {self.header_bytes}")

    def num_tlps(self, payload_bytes: int) -> int:
        """TLPs needed for ``payload_bytes`` (header-only request -> 1)."""
        if payload_bytes <= 0:
            return 1
        return -(-payload_bytes // self.max_payload)

    def wire_bytes(self, payload_bytes: int) -> int:
        """Total bytes on the wire including per-TLP overhead."""
        return max(0, payload_bytes) + self.num_tlps(payload_bytes) * self.header_bytes

    def tlp_wire_bytes(self, payload_bytes: int) -> int:
        """Wire size of a single (largest) TLP of this transfer."""
        per_tlp_payload = min(max(payload_bytes, 0), self.max_payload)
        return per_tlp_payload + self.header_bytes
