"""Interconnects: the coherent memory bus and the PCIe hierarchy.

:class:`~repro.interconnect.bus.MemBus` is the host-side coherent crossbar
(gem5's ``SystemXBar``): address-ranged routing, bounded bandwidth, and a
snoop/invalidation path that keeps the accelerator-side cache coherent with
the CPU caches in DC mode.

:mod:`repro.interconnect.pcie` models the standard interconnect the paper
adds to gem5: lanes/speeds/encodings, TLP packetization with header
overhead, and the store-and-forward root complex + switch pipeline of
Fig. 1 (150 ns and 50 ns latencies from Table II).
"""

from repro.interconnect.bus import MemBus
from repro.interconnect.pcie import (
    PCIeConfig,
    PCIeChannel,
    PCIeFabric,
)
from repro.interconnect.cxl import CXLFabric, cxl_link_config

__all__ = [
    "MemBus",
    "PCIeConfig",
    "PCIeChannel",
    "PCIeFabric",
    "CXLFabric",
    "cxl_link_config",
]
