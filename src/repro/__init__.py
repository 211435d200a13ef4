"""Gem5-AcceSys reproduction: system-level exploration of standard
interconnects and configurable memory hierarchies for accelerators.

Public API (the surface the examples and benchmarks use)::

    from repro import (
        SystemConfig, AccessMode, AcceSysSystem,
        run_gemm, run_vit,
        roofline_sweep, find_crossover,
        TradeoffModel, nongemm_time_threshold,
    )

    result = run_gemm(SystemConfig.pcie_8gb(), 512, 512, 512)
    print(result.seconds, result.delivered_bytes_per_sec / 1e9, "GB/s")

Subpackages expose the individual subsystems (``repro.sim``,
``repro.interconnect``, ``repro.memory``, ``repro.cache``, ``repro.smmu``,
``repro.dma``, ``repro.accel``, ``repro.cpu``, ``repro.workloads``); the
pages under ``docs/`` describe the sweep engine, topologies, faults,
telemetry, the result server, the surrogate ladder and the hot paths.

numpy is needed only for functional runs (``functional=True``,
``gemm --verify``) and the surrogate model (``repro.surrogate``);
timing-mode runs never import it (docs/PERFORMANCE.md, "Start-up
without numpy").
"""

from repro.core import (
    AccessMode,
    AcceSysSystem,
    GemmResult,
    MultiGemmResult,
    PeerTransferResult,
    RooflinePoint,
    SystemConfig,
    TradeoffModel,
    ViTResult,
    find_crossover,
    format_table,
    nongemm_time_threshold,
    relative_time_curve,
    roofline_sweep,
    run_gemm,
    run_multi_gemm,
    run_peer_transfer,
    run_vit,
)
from repro.workloads import VIT_VARIANTS, ViTConfig, build_vit_graph

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "AccessMode",
    "AcceSysSystem",
    "run_gemm",
    "run_vit",
    "run_multi_gemm",
    "run_peer_transfer",
    "GemmResult",
    "ViTResult",
    "MultiGemmResult",
    "PeerTransferResult",
    "roofline_sweep",
    "find_crossover",
    "RooflinePoint",
    "TradeoffModel",
    "nongemm_time_threshold",
    "relative_time_curve",
    "format_table",
    "ViTConfig",
    "VIT_VARIANTS",
    "build_vit_graph",
    "__version__",
]
