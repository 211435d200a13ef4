"""Discrete-event simulation kernel.

This package is the substrate that stands in for gem5's event engine in the
Gem5-AcceSys reproduction.  It provides:

* :mod:`repro.sim.ticks` -- an integer picosecond time base and conversion
  helpers (frequency, byte serialization times),
* :mod:`repro.sim.eventq` -- the event heap and :class:`Simulator` driver,
* :mod:`repro.sim.simobject` -- :class:`SimObject` / :class:`ClockedObject`
  base classes with hierarchical naming and stats registration,
* :mod:`repro.sim.transaction` -- the memory transaction type exchanged by
  every component (the analogue of gem5's ``Packet``),
* :mod:`repro.sim.ports` -- lightweight TLM-style connection points
  (:class:`TargetPort`),
* :mod:`repro.sim.statistics` -- scalar/derived counters and histograms.

Timing model style
------------------
Components exchange *transactions* (contiguous address ranges, typically one
PCIe packet or one DMA segment) rather than per-cache-line packets.  Each
component charges per-line / per-TLP / per-burst costs arithmetically inside
a transaction, so per-line statistics remain exact while the event count
stays tractable in pure Python.  This is the SystemC TLM-2.0 "approximately
timed" style.
"""

from repro.sim.eventq import Simulator
from repro.sim.simobject import ClockedObject, SimObject
from repro.sim.ticks import (
    TICKS_PER_SEC,
    freq_to_period,
    ns,
    serialization_ticks,
    ticks_to_ns,
    ticks_to_seconds,
    us,
)
from repro.sim.transaction import MemCmd, Transaction
from repro.sim.ports import TargetPort
from repro.sim.statistics import Histogram, Scalar, StatGroup
from repro.sim.trace import Trace, TraceRecord, TraceReplayer, TracingPort

__all__ = [
    "Simulator",
    "SimObject",
    "ClockedObject",
    "TICKS_PER_SEC",
    "ns",
    "us",
    "ticks_to_seconds",
    "ticks_to_ns",
    "freq_to_period",
    "serialization_ticks",
    "MemCmd",
    "Transaction",
    "TargetPort",
    "Scalar",
    "Histogram",
    "StatGroup",
    "Trace",
    "TraceRecord",
    "TracingPort",
    "TraceReplayer",
]
