"""The named-experiment registry: every paper figure as a SweepSpec.

Each factory here builds the point grid of one figure, table, ablation
or extension study, registered under a stable name so the CLI
(``python -m repro sweep --name <x>``), the benchmark harnesses and the
examples all share one experiment description layer.  Factories take
keyword arguments with *reduced-scale* defaults; harnesses pass
paper-scale values under ``REPRO_FULL=1``.

Registered experiments:

==================== ==================================================
``pcie-bandwidth``   Fig. 3 -- GEMM time vs PCIe lanes x lane speed
``packet-size``      Fig. 4 -- GEMM time vs request packet size
``fig5-memory``      Fig. 5 -- DRAM type and location (device vs host)
``fig6a-mem-bandwidth`` Fig. 6(a) -- device-memory bandwidth sweep
``fig6b-mem-latency``   Fig. 6(b) -- device-memory latency sweep
``fig7-transformer`` Fig. 7 -- ViT inference across the four systems
``fig8-gemm-split``  Fig. 8 -- GEMM vs non-GEMM split per system
``fig9-tradeoff``    Fig. 9 -- trade-off model calibration points
``tab4-translation`` Tab. 4 -- address-translation metrics vs size
``ablation-dataflow`` dataflow/pipelining design choices
``ablation-smmu``    SMMU (uTLB / main TLB) sizing
``access-modes``     Section III-C: DC vs DM vs DevMem
``ext-cxl-gemm``     extension: streaming GEMM, CXL vs PCIe
``ext-cxl-vit``      extension: DevMem NUMA penalty under CXL
``topo-endpoint-scaling`` extension: 1..8 accelerators on one switch
``topo-contention``  extension: active devices behind a shared uplink
``topo-p2p``         extension: P2P vs host-bounce device transfers
``topo-switch-depth`` extension: switch-tier depth 1..3
``roofline``         Fig. 2 -- compute-time sweep on the sweep engine
``surrogate-xval``   stratified sample for surrogate calibration
``resilience-error-rate``   goodput vs per-TLP corruption rate
``resilience-retrain-storm`` latency tail vs uplink retrain duty cycle
``resilience-slow-link``    one down-trained endpoint in a cluster
``resilience-crash``        device-crash blast radius across a cluster
==================== ==================================================
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.accel.systolic import SystolicParams
from repro.core.access_modes import AccessMode
from repro.core.config import SystemConfig
from repro.core.runner import _resolve_model
from repro.memory.dram.devices import DDR4_2400, GDDR5, HBM2, LPDDR5
from repro.smmu.smmu import SMMUConfig
from repro.sweep.spec import (
    SweepPoint,
    SweepSpec,
    build_sweep,
    gemm_points,
    register_sweep,
    square_gemm,
)
from repro.topology import tiered_topology
from repro.workloads.vit import ViTConfig

GB = 10**9


# ----------------------------------------------------------------------
# Fig. 3 / Fig. 4 -- interconnect sweeps
# ----------------------------------------------------------------------
@register_sweep("pcie-bandwidth")
def pcie_bandwidth_sweep(
    base: Optional[SystemConfig] = None,
    size: int = 128,
    lanes: Tuple[int, ...] = (2, 4, 8, 16),
    speeds: Tuple[float, ...] = (2.0, 8.0, 32.0),
) -> SweepSpec:
    """Fig. 3 style grid: lanes x per-lane speed at a fixed GEMM size."""
    base = base or SystemConfig.table2_baseline()
    configs = {
        (lane_count, gbps): base.with_pcie_bandwidth(lane_count, gbps)
        for lane_count in lanes
        for gbps in speeds
    }
    return SweepSpec(name="pcie-bandwidth", points=gemm_points(configs, size))


@register_sweep("packet-size")
def packet_size_sweep(
    base: Optional[SystemConfig] = None,
    size: int = 128,
    packets: Tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096),
) -> SweepSpec:
    """Fig. 4 style sweep: request packet size at a fixed link."""
    base = base or SystemConfig.table2_baseline()
    configs = {packet: base.with_packet_size(packet) for packet in packets}
    return SweepSpec(name="packet-size", points=gemm_points(configs, size))


#: Fig. 4 full grid: (label GB/s) -> (lanes, lane Gb/s).
FIG4_LINKS = {
    4: (8, 4.0),
    8: (8, 8.0),
    16: (8, 16.0),
    32: (8, 32.0),
    64: (8, 64.0),
}
FIG4_PACKETS = (64, 128, 256, 512, 1024, 2048, 4096)


@register_sweep("fig4-packet-grid")
def fig4_packet_grid_sweep(
    size: int = 256,
    links=None,
    packets: Tuple[int, ...] = FIG4_PACKETS,
) -> SweepSpec:
    """Fig. 4 full grid: packet size x link speed, wide-ingest array."""
    links = links or FIG4_LINKS
    wide_sa = SystolicParams(ingest_elems=16)
    configs = {}
    for label, (lanes, gbps) in links.items():
        base = SystemConfig.table2_baseline(
            systolic=wide_sa
        ).with_pcie_bandwidth(lanes, gbps)
        for packet in packets:
            configs[(label, packet)] = base.with_packet_size(packet)
    return SweepSpec(name="fig4-packet-grid",
                     points=gemm_points(configs, size))


# ----------------------------------------------------------------------
# Fig. 5 / Fig. 6 -- memory system sweeps
# ----------------------------------------------------------------------
#: Wide ingest ports so the memory system, not the array, binds
#: (the paper's Fig. 5/6 methodology; see EXPERIMENTS.md).
_FIG5_SA = SystolicParams(ingest_elems=8)
_FIG6_SA = SystolicParams(ingest_elems=6)
FIG5_MEMORIES = (DDR4_2400, HBM2, GDDR5, LPDDR5)
FIG6_BANDWIDTHS = (2, 4, 8, 16, 25, 50, 100, 256)
FIG6_LATENCIES = (1, 3, 6, 12, 24, 36)


@register_sweep("fig5-memory")
def fig5_memory_sweep(size: int = 256, memories=FIG5_MEMORIES) -> SweepSpec:
    """Fig. 5: DRAM type x location (device, host @2GB/s, host @64GB/s).

    Host-side runs use the DM access method so reduced-scale LLC
    retention does not mask the memory system.
    """
    configs = {}
    for mem in memories:
        configs[(mem.name, "device")] = SystemConfig.devmem_system(
            devmem=mem, systolic=_FIG5_SA
        )
        configs[(mem.name, "host-2GB")] = SystemConfig.pcie_2gb(
            host_mem=mem, systolic=_FIG5_SA,
            access_mode=AccessMode.DIRECT_MEMORY,
        )
        configs[(mem.name, "host-64GB")] = SystemConfig.pcie_64gb(
            host_mem=mem, systolic=_FIG5_SA,
            access_mode=AccessMode.DIRECT_MEMORY,
        )
    return SweepSpec(name="fig5-memory", points=gemm_points(configs, size))


def hbm_at_bandwidth(bw_gb: int):
    """HBM2-class device scaled to a total bandwidth of ``bw_gb`` GB/s."""
    rate = bw_gb * GB // (HBM2.channels * HBM2.data_width_bits // 8)
    return dataclasses.replace(HBM2, name=f"HBM2-{bw_gb}GBs",
                               data_rate_mts=max(1, rate // 10**6))


def hbm_at_latency(lat_ns: int):
    """HBM2-class device with core timings scaled to ``lat_ns``."""
    return dataclasses.replace(
        HBM2,
        name=f"HBM2-{lat_ns}ns",
        t_cl=float(lat_ns),
        t_rcd=float(lat_ns),
        t_rp=float(lat_ns),
        t_ras=float(2 * lat_ns + 5),
    )


@register_sweep("fig6a-mem-bandwidth")
def fig6a_bandwidth_sweep(
    size: int = 256, bandwidths=FIG6_BANDWIDTHS
) -> SweepSpec:
    """Fig. 6(a): device-memory bandwidth swept at constant latency."""
    configs = {
        bw: SystemConfig.devmem_system(
            devmem=hbm_at_bandwidth(bw), systolic=_FIG6_SA
        )
        for bw in bandwidths
    }
    return SweepSpec(name="fig6a-mem-bandwidth",
                     points=gemm_points(configs, size))


@register_sweep("fig6b-mem-latency")
def fig6b_latency_sweep(size: int = 256, latencies=FIG6_LATENCIES) -> SweepSpec:
    """Fig. 6(b): device-memory core timings swept at fixed bandwidth."""
    configs = {
        lat: SystemConfig.devmem_system(
            devmem=hbm_at_latency(lat), systolic=_FIG6_SA
        )
        for lat in latencies
    }
    return SweepSpec(name="fig6b-mem-latency",
                     points=gemm_points(configs, size))


# ----------------------------------------------------------------------
# Fig. 7 / 8 / 9 -- transformer inference (the "vit" runner)
# ----------------------------------------------------------------------
def _vit_points(models, dim_scale: float, segment: int):
    # Resolve every model up front so a bad name or scale fails when the
    # spec is built, not midway through a fill.
    for model in models:
        _resolve_model(model, dim_scale)
    systems = SystemConfig.paper_systems()
    return [
        SweepPoint(
            key=(model, name),
            config=config.with_(dma_segment_bytes=segment),
            params={"model": model, "dim_scale": dim_scale},
        )
        for model in models
        for name, config in systems.items()
    ]


@register_sweep("fig7-transformer")
def fig7_transformer_sweep(
    models: Tuple[str, ...] = ("base", "large"),
    dim_scale: float = 0.25,
    segment: int = 16384,
) -> SweepSpec:
    """Fig. 7: ViT models x the four Section V-C systems."""
    return SweepSpec(
        name="fig7-transformer",
        points=_vit_points(models, dim_scale, segment),
        runner="vit",
    )


@register_sweep("fig8-gemm-split")
def fig8_gemm_split_sweep(
    model: str = "large", dim_scale: float = 0.25, segment: int = 16384
) -> SweepSpec:
    """Fig. 8: one ViT model across the four systems, split per op class.

    Point keys are the system names; the GEMM/non-GEMM split is read off
    the :class:`~repro.core.runner.ViTResult` fields.
    """
    points = [
        SweepPoint(key=point.key[1], config=point.config, params=point.params)
        for point in _vit_points((model,), dim_scale, segment)
    ]
    return SweepSpec(name="fig8-gemm-split", points=points, runner="vit")


@register_sweep("fig9-tradeoff")
def fig9_tradeoff_sweep(
    model: str = "large", dim_scale: float = 0.25, segment: int = 16384
) -> SweepSpec:
    """Fig. 9: the calibration runs behind the analytical trade-off model.

    Identical simulation points to ``fig8-gemm-split`` (the analytical
    sweep itself is free post-processing), so the two experiments share
    cache entries -- running either primes the other.
    """
    spec = fig8_gemm_split_sweep(model, dim_scale, segment)
    return SweepSpec(name="fig9-tradeoff", points=spec.points, runner="vit")


# ----------------------------------------------------------------------
# Tab. 4 -- address translation
# ----------------------------------------------------------------------
@register_sweep("tab4-translation")
def tab4_translation_sweep(
    sizes: Tuple[int, ...] = (64, 128, 256, 512)
) -> SweepSpec:
    """Tab. 4: translation metrics vs matrix size on the baseline system."""
    base = SystemConfig.table2_baseline()
    points = [
        SweepPoint(key=size, config=base,
                   params=square_gemm(size))
        for size in sizes
    ]
    return SweepSpec(name="tab4-translation", points=points)


# ----------------------------------------------------------------------
# Ablations and access-method comparison
# ----------------------------------------------------------------------
@register_sweep("ablation-dataflow")
def ablation_dataflow_sweep(size: int = 128) -> SweepSpec:
    """Dataflow/pipelining design choices (an ablation, docs/SWEEPS.md)."""
    base = SystemConfig.pcie_2gb()
    configs = {
        "baseline (stream)": base,
        "reuse A panels": base.with_(reuse_a_panels=True),
        "prefetch depth 1": base.with_(prefetch_depth=1),
        "prefetch depth 4": base.with_(prefetch_depth=4),
        "1 DMA tag": base.with_(dma_tags=1),
        "32 DMA tags": base.with_(dma_tags=32),
    }
    return SweepSpec(name="ablation-dataflow",
                     points=gemm_points(configs, size))


@register_sweep("ablation-smmu")
def ablation_smmu_sweep(
    size: int = 128, utlbs: Tuple[int, ...] = (8, 32, 128)
) -> SweepSpec:
    """SMMU sizing: uTLB capacity, and a main TLB below/above footprint."""
    footprint_pages = 3 * size * size * 4 // 4096
    configs = {}
    for utlb in utlbs:
        configs[f"uTLB {utlb}"] = SystemConfig.pcie_2gb(
            smmu=SMMUConfig(utlb_entries=utlb)
        )
    # Main TLB below/above the footprint (power-of-two sizes).  A 1-entry
    # uTLB exposes every page transition to the main TLB so its capacity,
    # not uTLB locality, is what is measured.
    small_tlb = max(8, 1 << max(0, footprint_pages // 4).bit_length())
    for tlb, label in ((small_tlb, "thrash"), (4096, "fits")):
        configs[f"TLB {tlb} ({label})"] = SystemConfig.pcie_2gb(
            smmu=SMMUConfig(utlb_entries=1, tlb_entries=tlb,
                            tlb_assoc=min(8, tlb))
        )
    return SweepSpec(name="ablation-smmu", points=gemm_points(configs, size))


@register_sweep("access-modes")
def access_modes_sweep(size: int = 128) -> SweepSpec:
    """Section III-C: the same GEMM under DC, DM and DevMem."""
    configs = {
        "DC": SystemConfig.table2_baseline(),
        "DM": SystemConfig.table2_baseline(
            access_mode=AccessMode.DIRECT_MEMORY
        ),
        "DevMem": SystemConfig.devmem_system(),
    }
    return SweepSpec(name="access-modes", points=gemm_points(configs, size))


# ----------------------------------------------------------------------
# Topology extension (repro.topology; docs/TOPOLOGY.md)
# ----------------------------------------------------------------------
@register_sweep("topo-endpoint-scaling")
def topo_endpoint_scaling_sweep(
    size: int = 96, counts: Tuple[int, ...] = (1, 2, 4, 8)
) -> SweepSpec:
    """Endpoint scaling: N accelerators behind one shared switch uplink.

    One point per cluster size; every device runs the same GEMM
    concurrently.  The report's ``uplink util`` column is the busy
    fraction of the shared root-complex link pair -- it climbs toward
    1.0 as the cluster saturates the upstream link and per-device time
    stops improving.  The topology is explicit even for one endpoint so
    the whole curve runs on the switched-fabric timing model (the
    implicit single-device default would compile the classic
    point-to-point fabric and put a model discontinuity at N=1).
    """
    from repro.topology import flat_topology

    points = [
        SweepPoint(
            key=count,
            config=SystemConfig.pcie_2gb().with_topology(
                flat_topology(count)
            ),
            params=square_gemm(size),
        )
        for count in counts
    ]
    return SweepSpec(name="topo-endpoint-scaling", points=points,
                     runner="multigemm")


@register_sweep("topo-contention")
def topo_contention_sweep(size: int = 96, cluster: int = 4) -> SweepSpec:
    """Shared-link contention: 1..N active devices on a fixed cluster.

    The topology (and therefore the simulated hardware) is constant; only
    the number of concurrently launched GEMMs varies, isolating the
    arbitration effect from any topology change.
    """
    base = SystemConfig.pcie_2gb(num_accelerators=cluster)
    points = [
        SweepPoint(
            key=active,
            config=base,
            params={**square_gemm(size), "devices": active},
        )
        for active in range(1, cluster + 1)
    ]
    return SweepSpec(name="topo-contention", points=points,
                     runner="multigemm")


@register_sweep("topo-p2p")
def topo_p2p_sweep(
    sizes: Tuple[int, ...] = (64 * 1024, 256 * 1024, 512 * 1024)
) -> SweepSpec:
    """Peer-to-peer vs host-bounce device-to-device transfers.

    ``p2p`` routes endpoint -> switch -> endpoint below the root
    complex; ``bounce`` is the software alternative (write host memory,
    read it back from the peer).  Transfer sizes are capped by the
    destination scratch window (``local_buffer_bytes``).
    """
    config = SystemConfig.pcie_2gb(num_accelerators=2)
    points = [
        SweepPoint(
            key=(mode, size),
            config=config,
            params={"size_bytes": size, "mode": mode},
        )
        for mode in ("p2p", "bounce")
        for size in sizes
    ]
    return SweepSpec(name="topo-p2p", points=points, runner="peer")


@register_sweep("topo-switch-depth")
def topo_switch_depth_sweep(
    size: int = 96, depths: Tuple[int, ...] = (1, 2, 3)
) -> SweepSpec:
    """Switch-tier depth: every tier adds a store-and-forward hop.

    A two-device cluster runs concurrent GEMMs below 1..3 chained switch
    tiers; execution time grows with depth (added latency and one more
    shared segment per tier).
    """
    points = [
        SweepPoint(
            key=depth,
            config=SystemConfig.pcie_2gb().with_topology(
                tiered_topology(2, depth)
            ),
            params=square_gemm(size),
        )
        for depth in depths
    ]
    return SweepSpec(name="topo-switch-depth", points=points,
                     runner="multigemm")


# ----------------------------------------------------------------------
# CXL extension
# ----------------------------------------------------------------------
#: Tiny ViT used by the CXL NUMA-penalty study (runs in seconds).
CXL_VIT_MODEL = ViTConfig("bench-tiny", hidden=128, layers=2, heads=4,
                          image_size=96, patch_size=16)


@register_sweep("ext-cxl-gemm")
def ext_cxl_gemm_sweep(size: int = 128) -> SweepSpec:
    """Extension: streaming GEMM parity, fat PCIe link vs CXL port."""
    configs = {
        "gemm_pcie": SystemConfig.pcie_64gb(),
        "gemm_cxl": SystemConfig.cxl_host(),
    }
    return SweepSpec(name="ext-cxl-gemm", points=gemm_points(configs, size))


@register_sweep("ext-cxl-vit")
def ext_cxl_vit_sweep(vit_model: Optional[ViTConfig] = None) -> SweepSpec:
    """Extension: the Fig. 8 NUMA penalty with a CXL-attached device.

    The parameter is deliberately *not* named ``model`` so the CLI's
    --model string override cannot silently swap the seconds-scale tiny
    model for a full-dimension ViT variant.
    """
    model = vit_model or CXL_VIT_MODEL
    configs = {
        "vit_host": SystemConfig.pcie_64gb(),
        "vit_devmem_pcie": SystemConfig.devmem_system(),
        "vit_devmem_cxl": SystemConfig.devmem_cxl(),
    }
    points = [
        SweepPoint(key=key, config=config, params={"model": model})
        for key, config in configs.items()
    ]
    return SweepSpec(name="ext-cxl-vit", points=points, runner="vit")


# ----------------------------------------------------------------------
# Roofline (Fig. 2) and surrogate calibration
# ----------------------------------------------------------------------
@register_sweep("roofline")
def roofline_reg_sweep(
    base: Optional[SystemConfig] = None,
    size: int = 64,
    compute_ticks: Optional[Tuple[int, ...]] = None,
) -> SweepSpec:
    """Fig. 2: per-tile compute-time sweep at fixed link bandwidth.

    The same grid :func:`repro.core.roofline.roofline_sweep` wraps --
    registering it here buys caching and ``--shard``.
    """
    from repro.core.roofline import DEFAULT_COMPUTE_TICKS, roofline_points

    config = base or SystemConfig.pcie_8gb()
    values = compute_ticks or DEFAULT_COMPUTE_TICKS
    return SweepSpec(
        name="roofline", points=roofline_points(config, size, values)
    )


# ----------------------------------------------------------------------
# Resilience extension (repro.faults; docs/FAULTS.md)
# ----------------------------------------------------------------------
def _resilience_spec(name, points) -> SweepSpec:
    # The "resilience" runner registers lazily on first resolution
    # (LAZY_RUNNER_MODULES), so building the spec does not pull the
    # fault subsystem into the default sweep import footprint.
    return SweepSpec(name=name, points=points, runner="resilience")


@register_sweep("resilience-error-rate")
def resilience_error_rate_sweep(
    size_bytes: int = 65536,
    transfers: int = 8,
    rates: Tuple[float, ...] = (0.0, 1e-4, 1e-3, 1e-2),
    seed: int = 7,
) -> SweepSpec:
    """Goodput vs per-TLP corruption rate on the point-to-point fabric.

    Rate 0.0 is the fault-free control point (``faults=None``, so it
    shares cache entries with any other fault-free run of the same
    config); each higher rate inflates wire occupancy with ACK/NAK
    replays and the goodput column degrades accordingly.
    """
    from repro.faults.spec import FaultSpec, LinkFaults, RetryPolicy

    base = SystemConfig.pcie_2gb()
    points = []
    for rate in rates:
        config = base
        if rate > 0.0:
            config = base.with_faults(FaultSpec(
                seed=seed,
                links=(LinkFaults(link="*", corrupt_rate=rate),),
                retry=RetryPolicy(),
            ))
        points.append(SweepPoint(
            key=rate, config=config,
            params={"size_bytes": size_bytes, "transfers": transfers},
        ))
    return _resilience_spec("resilience-error-rate", points)


@register_sweep("resilience-retrain-storm")
def resilience_retrain_storm_sweep(
    size_bytes: int = 65536,
    transfers: int = 8,
    storms: Tuple[Tuple[int, int], ...] = ((100, 5), (100, 20), (50, 20)),
    seed: int = 7,
) -> SweepSpec:
    """Latency tail vs uplink retrain duty cycle.

    ``storms`` are ``(period_us, duration_us)`` pairs: the shared ``up``
    link retrains ``duration`` out of every ``period`` microseconds.
    Transfers unlucky enough to hit a window stall until it closes, so
    ``latency max`` stretches with the duty cycle while ``latency p50``
    moves far less -- the tail-latency signature of retrain storms.
    """
    from repro.faults.spec import FaultSpec, LinkFaults, RetryPolicy
    from repro.sim.ticks import us

    base = SystemConfig.pcie_2gb()
    points = [
        SweepPoint(
            key=(period, duration),
            config=base.with_faults(FaultSpec(
                seed=seed,
                links=(LinkFaults(link="*.up", retrain_period=us(period),
                                  retrain_duration=us(duration)),),
                retry=RetryPolicy(),
            )),
            params={"size_bytes": size_bytes, "transfers": transfers},
        )
        for period, duration in storms
    ]
    return _resilience_spec("resilience-retrain-storm", points)


@register_sweep("resilience-slow-link")
def resilience_slow_link_sweep(
    size_bytes: int = 32768,
    transfers: int = 8,
    cluster: int = 4,
    factors: Tuple[int, ...] = (1, 4, 16),
    seed: int = 7,
) -> SweepSpec:
    """One endpoint's lanes down-train mid-run in a switched cluster.

    Factor 1 is the fault-free control; higher factors divide endpoint
    0's link bandwidth from 20 us on while the other ``cluster - 1``
    devices run clean.  Mild down-training hides behind shared-uplink
    contention (the slow endpoint still keeps up with its fair share);
    past that the makespan is dragged out by the one slow wire while the
    p50 latency -- dominated by the clean devices -- barely moves.
    """
    from repro.faults.spec import FaultSpec, LinkFaults, RetryPolicy
    from repro.sim.ticks import us
    from repro.topology import flat_topology

    base = SystemConfig.pcie_2gb().with_topology(flat_topology(cluster))
    points = []
    for factor in factors:
        config = base
        if factor > 1:
            config = base.with_faults(FaultSpec(
                seed=seed,
                links=(LinkFaults(link="*.ep0.*", downtrain_at=us(20),
                                  downtrain_factor=factor),),
                retry=RetryPolicy(),
            ))
        points.append(SweepPoint(
            key=factor, config=config,
            params={"size_bytes": size_bytes, "transfers": transfers},
        ))
    return _resilience_spec("resilience-slow-link", points)


@register_sweep("resilience-crash")
def resilience_crash_sweep(
    size_bytes: int = 32768,
    transfers: int = 8,
    cluster: int = 4,
    crash_ticks_us: Tuple[Optional[int], ...] = (None, 10, 50),
    seed: int = 7,
) -> SweepSpec:
    """Device-crash blast radius: one endpoint dies, the rest carry on.

    ``None`` is the no-crash control.  When endpoint 0 crashes its
    in-flight transfers lose their completions, burn through the retry
    budget and abort with ``device lost`` errors, while the surviving
    ``cluster - 1`` devices finish their share -- the ``aborted`` and
    ``device lost`` columns bound the blast radius.
    """
    from repro.faults.spec import EndpointFault, FaultSpec, RetryPolicy
    from repro.sim.ticks import us
    from repro.topology import flat_topology

    base = SystemConfig.pcie_2gb().with_topology(flat_topology(cluster))
    points = []
    for crash_us in crash_ticks_us:
        config = base
        key = "none" if crash_us is None else crash_us
        if crash_us is not None:
            config = base.with_faults(FaultSpec(
                seed=seed,
                endpoints=(EndpointFault(endpoint=0, crash_at=us(crash_us)),),
                retry=RetryPolicy(),
            ))
        points.append(SweepPoint(
            key=key, config=config,
            params={"size_bytes": size_bytes, "transfers": transfers},
        ))
    return _resilience_spec("resilience-crash", points)


@register_sweep("surrogate-xval")
def surrogate_xval_sweep(
    target: str = "fig6a-mem-bandwidth",
    fraction: float = 0.5,
    size: Optional[int] = None,
) -> SweepSpec:
    """Stratified sample of another sweep's grid, for calibration.

    Simulating this sweep measures the analytical surrogate's error on
    ``target``'s grid (see docs/SURROGATE.md); results share cache keys
    with the full sweep, so the sample pre-warms a later ladder run.
    """
    from repro.surrogate.xval import stratified_sample

    kwargs = {} if size is None else {"size": size}
    sample = stratified_sample(build_sweep(target, **kwargs), fraction)
    return dataclasses.replace(sample, name="surrogate-xval")


# ----------------------------------------------------------------------
# JSON-safe overrides
# ----------------------------------------------------------------------
def apply_overrides(name: str, overrides: dict) -> SweepSpec:
    """Rebuild one named sweep from JSON-safe override values.

    ``base`` maps a system *name* through :meth:`SystemConfig.by_name`;
    lists revert to tuples (JSON has no tuple type, the factories take
    tuples); everything else passes through.

    This is the decoder of the result server's ``{"args": {...}}``
    query field (docs/SERVING.md) and of the benchmark's pinned sweep
    arguments, so both name a system the same way.
    """
    kwargs = {}
    for param, value in (overrides or {}).items():
        if param == "base" and isinstance(value, str):
            value = SystemConfig.by_name(value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[param] = value
    return build_sweep(name, **kwargs)
