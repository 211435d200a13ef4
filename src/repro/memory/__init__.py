"""Memory subsystem: address ranges, backing store, and timing models.

Three memory models are provided, mirroring what Gem5-AcceSys uses:

* :class:`~repro.memory.simple.SimpleMemory` -- fixed latency + bandwidth
  (gem5's ``SimpleMemory``); used for the bandwidth/latency sweeps of
  Fig. 6.
* :class:`~repro.memory.dram.DRAMController` -- a bank-state timing model
  in the style of Ramulator2 / DRAMsim3, with per-technology presets
  (:mod:`repro.memory.dram.devices`) for every row of Table III; used for
  the memory-technology comparison of Fig. 5.
* :class:`~repro.memory.physmem.PhysicalMemory` -- the functional backing
  store (sparse, numpy-backed) shared by all timing models.
"""

from repro.memory.addr_range import AddrRange
from repro.memory.physmem import PhysicalMemory
from repro.memory.simple import SimpleMemory
from repro.memory.dram import DRAMController, DRAMTimings
from repro.memory.dram.devices import (
    DDR3_1600,
    DDR4_2400,
    DDR5_3200,
    GDDR5,
    GDDR6,
    HBM2,
    LPDDR5,
    MEMORY_PRESETS,
)

__all__ = [
    "AddrRange",
    "PhysicalMemory",
    "SimpleMemory",
    "DRAMController",
    "DRAMTimings",
    "DDR3_1600",
    "DDR4_2400",
    "DDR5_3200",
    "GDDR5",
    "GDDR6",
    "HBM2",
    "LPDDR5",
    "MEMORY_PRESETS",
]
