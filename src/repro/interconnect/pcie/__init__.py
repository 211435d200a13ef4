"""PCIe interconnect model.

Implements the PCIe components of Fig. 1:

* :mod:`~repro.interconnect.pcie.tlp` -- transaction-layer packet math
  (header overhead, fragmentation at the max payload size),
* :mod:`~repro.interconnect.pcie.link` -- lane/speed/encoding config
  (:class:`PCIeConfig`), generation presets and the directional
  :class:`PCIeChannel` pipeline (PHY serialization -> switch -> root
  complex, each store-and-forward with Table II latencies),
* :mod:`~repro.interconnect.pcie.fabric` -- :class:`PCIeFabric`, the
  device's window onto host memory (DMA reads/writes as request/completion
  round trips) and the host's window onto the device (MMIO),
* :mod:`~repro.interconnect.pcie.config_space` -- configuration-space
  enumeration and BAR assignment used by the kernel-driver model.
"""

from repro.interconnect.pcie.tlp import TLPParams
from repro.interconnect.pcie.link import PCIeChannel, PCIeConfig
from repro.interconnect.pcie.fabric import PCIeFabric
from repro.interconnect.pcie.config_space import (
    BAR,
    ConfigSpace,
    PCIeFunction,
)

__all__ = [
    "TLPParams",
    "PCIeConfig",
    "PCIeChannel",
    "PCIeFabric",
    "PCIeFunction",
    "ConfigSpace",
    "BAR",
]
