"""Gem5-AcceSys core: configuration, system assembly and experiments.

This package is the paper's contribution proper -- the framework that
wires PCIe, SMMU, DMA, device memory and the accelerator into a full
system and runs the evaluation:

* :mod:`~repro.core.config` -- :class:`SystemConfig` and the paper's
  named configurations (Table II baseline, PCIe-2GB/8GB/64GB, DevMem),
* :mod:`~repro.core.access_modes` -- the DC / DM / DevMem access methods,
* :mod:`~repro.core.system` -- :class:`AcceSysSystem`, the full-system
  builder (Fig. 1),
* :mod:`~repro.core.runner` -- GEMM and ViT experiment drivers,
* :mod:`~repro.core.roofline` -- the Fig. 2 roofline sweep,
* :mod:`~repro.core.analytical` -- the Section V-D.2 GEMM/non-GEMM
  trade-off model (Fig. 9),
* :mod:`~repro.core.stats` -- stat collection and report formatting.
"""

from repro.core.access_modes import AccessMode
from repro.core.config import SystemConfig
from repro.core.system import AcceSysSystem
from repro.core.runner import (
    GemmResult,
    GemmRunner,
    MultiGemmResult,
    MultiGemmRunner,
    PeerTransferResult,
    PeerTransferRunner,
    ViTResult,
    ViTRunner,
    WorkloadRunner,
    run_gemm,
    run_multi_gemm,
    run_peer_transfer,
    run_vit,
    system_for,
)
from repro.core.roofline import RooflinePoint, roofline_sweep, find_crossover
from repro.core.analytical import (
    TradeoffModel,
    nongemm_time_threshold,
    relative_time_curve,
)
from repro.core.stats import format_table

__all__ = [
    "AccessMode",
    "SystemConfig",
    "AcceSysSystem",
    "run_gemm",
    "run_vit",
    "GemmResult",
    "ViTResult",
    "roofline_sweep",
    "find_crossover",
    "RooflinePoint",
    "TradeoffModel",
    "nongemm_time_threshold",
    "relative_time_curve",
    "format_table",
]
