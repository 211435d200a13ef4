"""Memory transactions -- the currency every component exchanges.

A :class:`Transaction` describes one contiguous read or write.  It is the
analogue of gem5's ``Packet``: components receive a transaction, charge
timing for it, optionally move functional data, and pass it on (or complete
it back to the originator).

Transactions may span many cache lines or PCIe TLPs; components that care
about finer granularity (the DRAM controller, the PCIe link, the SMMU)
account for the per-line / per-TLP costs arithmetically.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    import numpy as np

    #: A functional payload: any bytes-like object.
    Payload = Union[bytes, bytearray, memoryview, np.ndarray]

_txn_ids = itertools.count()


class MemCmd(enum.Enum):
    """Transaction command."""

    READ = "read"
    WRITE = "write"


class Transaction:
    """One contiguous memory read or write.

    Parameters
    ----------
    cmd:
        :class:`MemCmd.READ` or :class:`MemCmd.WRITE`.
    addr:
        Start address.  Whether this is virtual or physical depends on where
        the transaction currently sits: accelerator-side components issue
        virtual addresses which the SMMU rewrites to physical (recorded in
        :attr:`paddr`).
    size:
        Length in bytes (must be positive).
    data:
        Optional functional payload: any bytes-like of ``size`` bytes
        (numpy in functional mode).  Timing-only simulations leave it as
        None.
    source:
        Free-form tag identifying the originator (used by stats and by the
        MemBus for response routing).
    """

    __slots__ = (
        "id",
        "cmd",
        "is_read",
        "is_write",
        "addr",
        "size",
        "data",
        "source",
        "vaddr",
        "paddr",
        "issue_tick",
        "complete_tick",
        "packet_size",
        "stream",
        "is_translated",
        "for_ownership",
    )

    def __init__(
        self,
        cmd: MemCmd,
        addr: int,
        size: int,
        data: Optional[Payload] = None,
        source: str = "",
    ) -> None:
        if size <= 0:
            raise ValueError(f"transaction size must be positive, got {size}")
        if addr < 0:
            raise ValueError(f"transaction address must be non-negative, got {addr}")
        if data is not None and memoryview(data).nbytes != size:
            raise ValueError(
                f"payload size {memoryview(data).nbytes} does not match "
                f"transaction size {size}"
            )
        self.id = next(_txn_ids)
        self.cmd = cmd
        #: Command flags, fixed at construction (``cmd`` never changes).
        self.is_read = cmd is MemCmd.READ
        self.is_write = cmd is MemCmd.WRITE
        self.addr = addr
        self.size = size
        self.data = data
        self.source = source
        self.vaddr: Optional[int] = None
        self.paddr: Optional[int] = None
        self.issue_tick: Optional[int] = None
        self.complete_tick: Optional[int] = None
        #: Preferred on-wire packet size for interconnects that fragment.
        self.packet_size: Optional[int] = None
        #: Stream label for reuse/locality analysis ("A", "B", "C", ...).
        self.stream: str = ""
        self.is_translated: bool = False
        #: Read-for-ownership: a fetch that will be written on fill.
        #: Snooping buses treat it like a write (invalidate sharers).
        self.for_ownership: bool = False

    # ------------------------------------------------------------------
    # Convenience predicates and constructors
    # ------------------------------------------------------------------
    @property
    def end_addr(self) -> int:
        """One past the last byte touched."""
        return self.addr + self.size

    @classmethod
    def read(cls, addr: int, size: int, source: str = "") -> "Transaction":
        return cls(MemCmd.READ, addr, size, source=source)

    @classmethod
    def write(
        cls, addr: int, size: int, data: Optional[Payload] = None, source: str = ""
    ) -> "Transaction":
        return cls(MemCmd.WRITE, addr, size, data, source=source)

    def clone_for_segment(
        self, addr: int, size: int, issue_tick: int
    ) -> "Transaction":
        """A fresh transaction for one segment of a larger transfer.

        Copies the routing-relevant fields (command, source, stream,
        packet size) from ``self`` -- the *template* the DMA engine
        builds once per descriptor -- and skips ``__init__`` validation:
        segment addresses and sizes are derived from an already-validated
        descriptor, so re-checking them per segment is pure overhead on
        the engine's hottest path.  Everything else starts pristine,
        exactly as a fresh construction would leave it.
        """
        txn = Transaction.__new__(Transaction)
        txn.id = next(_txn_ids)
        txn.cmd = self.cmd
        txn.is_read = self.is_read
        txn.is_write = self.is_write
        txn.addr = addr
        txn.size = size
        txn.data = None
        txn.source = self.source
        txn.vaddr = None
        txn.paddr = None
        txn.issue_tick = issue_tick
        txn.complete_tick = None
        txn.packet_size = self.packet_size
        txn.stream = self.stream
        txn.is_translated = False
        txn.for_ownership = False
        return txn

    # ------------------------------------------------------------------
    # Granularity accounting
    # ------------------------------------------------------------------
    def num_packets(self, packet_size: int) -> int:
        """Number of on-wire packets when fragmented at ``packet_size``."""
        if packet_size <= 0:
            raise ValueError(f"packet size must be positive, got {packet_size}")
        return -(-self.size // packet_size)

    @property
    def latency(self) -> Optional[int]:
        """End-to-end latency in ticks once completed, else None."""
        if self.issue_tick is None or self.complete_tick is None:
            return None
        return self.complete_tick - self.issue_tick

    def __repr__(self) -> str:
        return (
            f"Transaction(#{self.id} {self.cmd.value} "
            f"addr={self.addr:#x} size={self.size})"
        )
