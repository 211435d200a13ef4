"""PCIe fabric: request/completion round trips over the channel pair.

The fabric owns the two directional channels and implements the PCIe
transaction protocol as the device and host see it:

* **device read** (DMA from host memory): a header-only memory-read request
  TLP travels up (device -> switch -> root complex), the host memory system
  services it, and completion TLPs carry the data back down.
* **device write** (DMA to host memory): posted write TLPs carry the
  payload up; the transaction completes when the host memory system accepts
  it (no completion TLP, per the spec).
* **host MMIO**: the CPU reaches device registers / device memory through
  the down channel, with the mirror-image round trip for reads.

The requester-side tag limit (``PCIeConfig.max_tags``) is enforced by the
DMA engine, which is what bounds outstanding round trips and produces the
bandwidth-delay behaviour of the packet-size experiments.
"""

from __future__ import annotations

from typing import List, Optional

from repro.interconnect.pcie.link import PCIeChannel, PCIeConfig
from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.simobject import SimObject
from repro.sim.transaction import Transaction


def require_host_target(name: str, target: Optional[TargetPort]) -> TargetPort:
    """The wired host target of a fabric, or a diagnosable wiring error.

    Shared by every fabric flavour (flat, CXL, switched topology) so the
    wiring hint stays in one place.  Resolving *before* the channel delay
    is scheduled (and binding the result in completion closures) turns
    what used to be an ``AttributeError`` deep in the event loop -- a
    transaction arriving at a fabric whose target was never wired -- into
    an immediate error naming the component and the fix.
    """
    if target is None:
        raise RuntimeError(
            f"{name}: host_target is not wired -- a transaction reached "
            f"the fabric before set_host_target() was called; wire the "
            f"host bridge (AcceSysSystem does this right after fabric "
            f"construction) before submitting traffic"
        )
    return target


class PCIeFabric(SimObject):
    """The device's window onto host memory and the host's onto the device.

    Parameters
    ----------
    config:
        Link/TLP/latency configuration.
    host_target:
        Host-side memory system entry point (IOCache or MemBus) used to
        service device-originated DMA.  May be set after construction via
        :meth:`set_host_target` to break construction cycles.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: PCIeConfig,
        host_target: Optional[TargetPort] = None,
        hops=None,
    ) -> None:
        super().__init__(sim, name)
        self.config = config
        self.up = PCIeChannel(sim, f"{name}.up", config, hops=hops)
        self.down = PCIeChannel(sim, f"{name}.down", config, hops=hops)
        self.host_target = host_target

        self._dev_reads = self.stats.scalar("device_reads", "device-initiated reads")
        self._dev_writes = self.stats.scalar("device_writes", "device-initiated writes")
        self._mmio_ops = self.stats.scalar("mmio_ops", "host-initiated accesses")

    def set_host_target(self, target: TargetPort) -> None:
        self.host_target = target

    def _resolved_host_target(self) -> TargetPort:
        return require_host_target(self.name, self.host_target)

    # ------------------------------------------------------------------
    # Device-initiated DMA
    # ------------------------------------------------------------------
    def device_read(self, txn: Transaction, on_complete: CompletionFn) -> None:
        """DMA read from host memory (request up, data down)."""
        host = self.host_target
        if host is None:
            host = self._resolved_host_target()
        self._dev_reads.value += 1
        self.stats.dirty = True

        def request_arrived(_txn: Transaction) -> None:
            host.send(txn, host_done)

        def host_done(_txn: Transaction) -> None:
            self.down.deliver(txn, txn.size, on_complete)

        # Memory-read request TLPs are header-only; one per packet-size
        # chunk of the requested range.
        packet = txn.packet_size or self.config.tlp.max_payload
        self.up.deliver(txn, 0, request_arrived, -(-txn.size // packet))

    def device_write(self, txn: Transaction, on_complete: CompletionFn) -> None:
        """Posted DMA write to host memory (payload up, no completion TLP)."""
        host = self.host_target
        if host is None:
            host = self._resolved_host_target()
        self._dev_writes.value += 1
        self.stats.dirty = True

        def payload_arrived(_txn: Transaction) -> None:
            host.send(txn, on_complete)

        self.up.deliver(txn, txn.size, payload_arrived)

    def device_access(self, txn: Transaction, on_complete: CompletionFn) -> None:
        """Dispatch a device-initiated transaction by command."""
        if txn.is_read:
            self.device_read(txn, on_complete)
        else:
            self.device_write(txn, on_complete)

    # ------------------------------------------------------------------
    # Host-initiated MMIO / device-memory access
    # ------------------------------------------------------------------
    def host_access(
        self, txn: Transaction, device_target: TargetPort, on_complete: CompletionFn
    ) -> None:
        """CPU access to a device BAR (register file or device memory)."""
        self._mmio_ops.inc()
        if txn.is_read:

            def request_arrived(_txn: Transaction) -> None:
                device_target.send(txn, device_done)

            def device_done(_txn: Transaction) -> None:
                self.up.deliver(txn, txn.size, on_complete)

            self.down.deliver(txn, 0, request_arrived)
        else:

            def payload_arrived(_txn: Transaction) -> None:
                device_target.send(txn, on_complete)

            self.down.deliver(txn, txn.size, payload_arrived)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def links(self) -> List[PCIeChannel]:
        """Both directional links, upstream first."""
        return [self.up, self.down]

    def describe(self) -> str:
        return self.config.describe()
