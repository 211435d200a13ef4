"""Memory access methods: direct-cache, direct-memory, device memory.

Section III-C of the paper defines three ways accelerator traffic reaches
data:

* **DC (direct cache)** -- requests enter the host cache hierarchy
  (IOCache, then the coherent MemBus, then the LLC); hits are fast,
  misses pay the full path.  Coherency with CPU caches is maintained by
  the MemBus snoop path.
* **DM (direct memory)** -- requests bypass the caches and go straight
  to the memory controller; software manages coherency.
* **DEVMEM** -- requests go to device-side memory next to the
  accelerator, bypassing the whole PCIe hierarchy (arrow 6 in Fig. 1).

:class:`HostBridge` implements the host-side policy (translation through
the SMMU, then DC or DM routing); DevMem is wired at the system level by
pointing the accelerator's DMA at the device memory controller.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.transaction import Transaction
from repro.smmu.smmu import SMMU


class AccessMode(enum.Enum):
    """How accelerator traffic reaches its data."""

    DIRECT_CACHE = "dc"
    DIRECT_MEMORY = "dm"
    DEVICE_MEMORY = "devmem"


class HostBridge(TargetPort):
    """Host-side entry for device DMA: SMMU translation plus DC/DM routing.

    Sits logically at the root complex: device transactions arrive here
    after crossing the PCIe up-channel, are translated if an SMMU is
    configured, and continue into the cache hierarchy (DC) or directly to
    the memory controller (DM).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mode: AccessMode,
        cached_path: TargetPort,
        direct_path: TargetPort,
        smmu: Optional[SMMU] = None,
    ) -> None:
        super().__init__(sim, name)
        if mode is AccessMode.DEVICE_MEMORY:
            raise ValueError("HostBridge handles host-side modes only")
        self.mode = mode
        self.cached_path = cached_path
        self.direct_path = direct_path
        self.smmu = smmu
        self._txns = self.stats.scalar("transactions", "device transactions bridged")

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        self._txns.inc()
        target = (
            self.cached_path
            if self.mode is AccessMode.DIRECT_CACHE
            else self.direct_path
        )
        if self.smmu is None or txn.is_translated:
            target.send(txn, on_complete)
            return
        self.smmu.translate(txn, lambda t: target.send(t, on_complete))
