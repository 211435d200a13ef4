"""Analytical surrogate cost models: the ladder's low-fidelity rung.

Scores sweep points in microseconds instead of simulating them in
seconds.  The model composes the same structure the simulator resolves
event by event -- a roofline ``max(compute, link, memory)`` per GEMM, the
:class:`~repro.core.analytical.TradeoffModel` composition for ViT, TLP
payload/header efficiency and per-hop latency from the fabric
description -- but as closed-form arithmetic:

* **compute** uses the systolic array's own ``tile_cycles`` pipeline
  formula (fill/drain vs ingest bound, or the explicit override),
* **link** serializes payload + per-TLP headers at the encoded link
  bandwidth, with the store-and-forward stall for TLPs larger than the
  hop buffer and per-hop latency amortized over ``max_tags`` outstanding
  requests,
* **memory** streams the same traffic at the DRAM aggregate bandwidth.

Estimates are *relative* scores: they rank points and expose regime
boundaries but carry a systematic scale error that the cross-validation
pass (:mod:`repro.surrogate.xval`) measures and absorbs into a
per-runner calibration factor.  Absolute tick counts always come from
the simulator.

:func:`estimate_point` scores one point and :func:`estimate_spec` every
point of a sweep, one :class:`SurrogateEstimate` each, in plain Python.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.access_modes import AccessMode
from repro.core.analytical import TradeoffModel
from repro.core.config import SystemConfig
from repro.sim.ticks import TICKS_PER_SEC
from repro.sweep.spec import SweepSpec
from repro.workloads import build_vit_graph
from repro.workloads.ops import GemmOp, NonGemmOp

#: Systolic tile edge and element width (mirrors ``repro.accel``).
TILE = 16
ELEMENT_BYTES = 4

#: Host<->device control round-trips charged per offloaded job
#: (doorbell, descriptor fetch, completion) at one hop latency each.
LAUNCH_HOP_ROUNDTRIPS = 4

#: CPU cycles charged per non-GEMM element (rough mean across the
#: layernorm/softmax/gelu/add kernel mix; calibration absorbs the rest).
NONGEMM_CYCLES_PER_ELEMENT = 4

#: Direct-cache access stashes accelerator traffic in the LLC, which the
#: surrogate prices as a flat effective-bandwidth boost over plain host
#: DRAM access.
DC_CACHE_FACTOR = 1.25

#: Objectives every estimate carries, in canonical order.
OBJECTIVES = ("ticks", "bytes_on_wire", "uplink_busy")


@dataclass(frozen=True)
class SurrogateEstimate:
    """Analytical score of one sweep point."""

    key: Any
    runner: str
    ticks: float
    bytes_on_wire: float
    uplink_busy: float

    def objective(self, name: str) -> float:
        if name not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {name!r}; known: {OBJECTIVES}"
            )
        return getattr(self, name)

    def scaled(self, factor: float) -> "SurrogateEstimate":
        """Apply a calibration scale factor to the time estimate."""
        return dataclasses.replace(self, ticks=self.ticks * factor)

    def to_record(self) -> Dict[str, Any]:
        return {
            "key": repr(self.key),
            "runner": self.runner,
            "ticks": self.ticks,
            "bytes_on_wire": self.bytes_on_wire,
            "uplink_busy": self.uplink_busy,
        }


# ----------------------------------------------------------------------
# Fabric features: everything the formulas need, derived once per config
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkFeatures:
    """Scalar features extracted from one ``SystemConfig``."""

    bytes_per_sec: int
    header_bytes: int
    max_payload: int
    hop_buffer: int
    max_tags: int
    segment_bytes: int
    rc_latency: int
    switch_latency: int
    hop_latency: int              # rc + deepest-path switch latencies
    max_depth: int                # switch hops on the deepest endpoint path
    mem_bytes_per_sec: float      # bandwidth serving accelerator traffic
    host_bytes_per_sec: float     # host DRAM aggregate (bounce buffers, CPU)
    tile_period: int              # ticks per systolic clock cycle
    fill_drain: int
    rc_max: int                   # max(rows, cols)
    ingest_elems: int
    compute_override: Optional[int]  # per-tile ticks override or None
    reuse_a: bool
    on_link: bool                 # False when weights live in device memory


def memory_bandwidth(config: SystemConfig) -> float:
    """Bytes/s of the memory serving the accelerator's data path."""
    if config.uses_device_memory:
        if config.devmem is not None:
            return float(config.devmem.total_bandwidth)
        return float(config.devmem_simple[1])
    host = float(config.host_mem.total_bandwidth)
    if config.access_mode is AccessMode.DIRECT_CACHE:
        return host * DC_CACHE_FACTOR
    return host


def features_for(
    config: SystemConfig, packet_size: Optional[int] = None
) -> LinkFeatures:
    """Derive the surrogate's features from a system configuration."""
    pcie = config.pcie
    topo = config.effective_topology()
    if topo is None:
        depth = 1  # classic point-to-point path: RC + one switch
    else:
        depth = max(topo.endpoint_depths())
    payload = packet_size or config.packet_size or pcie.tlp.max_payload
    period = round(TICKS_PER_SEC / config.systolic.freq_hz)
    systolic = config.systolic
    return LinkFeatures(
        bytes_per_sec=pcie.effective_bytes_per_sec,
        header_bytes=pcie.tlp.header_bytes,
        max_payload=int(payload),
        hop_buffer=pcie.hop_buffer_bytes,
        max_tags=pcie.max_tags,
        segment_bytes=config.dma_segment_bytes,
        rc_latency=pcie.rc_latency,
        switch_latency=pcie.switch_latency,
        hop_latency=pcie.rc_latency + depth * pcie.switch_latency,
        max_depth=depth,
        mem_bytes_per_sec=memory_bandwidth(config),
        host_bytes_per_sec=float(config.host_mem.total_bandwidth),
        tile_period=period,
        fill_drain=systolic.fill_drain_cycles,
        rc_max=max(systolic.rows, systolic.cols),
        ingest_elems=systolic.ingest_elems,
        compute_override=config.compute_ticks_override,
        reuse_a=config.reuse_a_panels,
        on_link=not config.uses_device_memory,
    )


# ----------------------------------------------------------------------
# Shared formulas
# ----------------------------------------------------------------------
def _gemm_parts(m: int, k: int, n: int, f: LinkFeatures):
    """Per-GEMM cost components.

    Returns ``(compute, mem, serialize, latency, wire_bytes)`` in ticks
    and bytes.  Traffic mirrors the controller's tiled dataflow: A
    panels (refetched per output tile unless ``reuse_a``), B panels per
    tile, and the C write-back.
    """
    tiles_m = -(-m // TILE)
    tiles_n = -(-n // TILE)
    tiles = tiles_m * tiles_n
    a_fetches = tiles_m if f.reuse_a else tiles
    read = (a_fetches + tiles) * (TILE * ELEMENT_BYTES) * k
    write = tiles * (TILE * TILE * ELEMENT_BYTES)
    traffic = read + write

    if f.compute_override is None:
        tile_ticks = max(
            k + f.fill_drain, f.rc_max * k // f.ingest_elems
        ) * f.tile_period
    else:
        tile_ticks = f.compute_override
    compute = tiles * tile_ticks

    mem = traffic * (TICKS_PER_SEC / f.mem_bytes_per_sec)

    if not f.on_link:
        return compute, mem, 0.0, 0.0, 0

    n_tlps = -(-traffic // f.max_payload)
    wire_bytes = traffic + n_tlps * f.header_bytes
    serialize = wire_bytes * (TICKS_PER_SEC / f.bytes_per_sec)
    # Store-and-forward stall for TLPs too large to overlap receive and
    # transmit in the hop buffer (Fig. 4's right branch).
    if 2 * f.max_payload > f.hop_buffer:
        serialize = serialize * (1 + (2 * f.max_payload) // f.hop_buffer)
    # Request latency pipelines across max_tags outstanding segments.
    segments = -(-read // f.segment_bytes)
    latency = f.hop_latency * (1.0 + max(segments - 1, 0) / f.max_tags)
    return compute, mem, serialize, latency, wire_bytes


def _compose(compute, mem, link, f: LinkFeatures):
    """Roofline composition plus the fixed job-launch overhead."""
    return LAUNCH_HOP_ROUNDTRIPS * f.hop_latency + max(compute, mem, link)


# ----------------------------------------------------------------------
# Per-runner estimators
# ----------------------------------------------------------------------
def _estimate_gemm(
    config: SystemConfig,
    f: LinkFeatures,
    key: Any,
    m: int,
    k: int,
    n: int,
    **_ignored,
) -> SurrogateEstimate:
    compute, mem, serialize, latency, wire = _gemm_parts(m, k, n, f)
    ticks = _compose(compute, mem, serialize + latency, f)
    busy = min(1.0, serialize / ticks) if ticks > 0 else 0.0
    return SurrogateEstimate(key, "gemm", float(ticks), float(wire), busy)


def _estimate_multigemm(
    config: SystemConfig,
    f: LinkFeatures,
    key: Any,
    m: int,
    k: int,
    n: int,
    devices: Optional[int] = None,
    **_ignored,
) -> SurrogateEstimate:
    topo = config.effective_topology()
    total = topo.num_endpoints if topo is not None else config.num_accelerators
    active = total if devices is None else max(1, min(devices, total))
    compute, mem, serialize, latency, wire = _gemm_parts(m, k, n, f)
    # All active devices share the uplink and the host memory; compute
    # proceeds in parallel per device.
    link = active * serialize + latency
    ticks = _compose(compute, active * mem, link, f)
    busy = min(1.0, active * serialize / ticks) if ticks > 0 else 0.0
    return SurrogateEstimate(
        key, "multigemm", float(ticks), float(active * wire), busy
    )


def _estimate_peer(
    config: SystemConfig,
    f: LinkFeatures,
    key: Any,
    size_bytes: int,
    mode: str = "p2p",
    **_ignored,
) -> SurrogateEstimate:
    n_tlps = -(-size_bytes // f.max_payload)
    wire = size_bytes + n_tlps * f.header_bytes
    serialize = wire * (TICKS_PER_SEC / f.bytes_per_sec)
    if mode == "p2p":
        # Route below the root complex: up to the common switch and back
        # down; the RC and host DRAM never see the traffic.
        switch_hops = max(1, 2 * f.max_depth - 1)
        ticks = serialize + switch_hops * f.switch_latency
        busy = 0.0
    else:
        # Host bounce: two full uplink crossings plus a DRAM staging
        # buffer written and read once each.
        host = 2 * size_bytes * (TICKS_PER_SEC / f.host_bytes_per_sec)
        ticks = 2 * (serialize + f.hop_latency) + host
        wire = 2 * wire
        busy = min(1.0, 2 * serialize / ticks) if ticks > 0 else 0.0
    return SurrogateEstimate(key, "peer", float(ticks), float(wire), busy)


@lru_cache(maxsize=128)
def _vit_shape_summary(model, dim_scale):
    """Aggregate a ViT op graph into hashable cost inputs.

    Returns ``(gemm_shapes, distinct_shapes, nongemm_elements,
    nongemm_io_bytes)`` where ``gemm_shapes`` maps (m, k, n) -> total
    batched invocation count.
    """
    from repro.core.runner import _resolve_model

    graph = build_vit_graph(_resolve_model(model, dim_scale))
    shapes: Dict[Tuple[int, int, int], int] = {}
    for op in graph.ops:
        if isinstance(op, GemmOp):
            shape = (op.m, op.k, op.n)
            shapes[shape] = shapes.get(shape, 0) + op.batch
    ng_elements = 0
    ng_io_bytes = 0
    for op in graph.ops:
        if isinstance(op, NonGemmOp):
            ng_elements += op.elements
            ng_io_bytes += sum(
                graph.tensors[ref] for ref in op.inputs + op.outputs
            )
    return tuple(shapes.items()), len(shapes), ng_elements, ng_io_bytes


def _estimate_vit(
    config: SystemConfig,
    f: LinkFeatures,
    key: Any,
    model: Union[str, Any] = "base",
    memoize: bool = True,
    dim_scale: float = 1.0,
    **_ignored,
) -> SurrogateEstimate:
    shapes, _distinct, ng_elements, ng_io_bytes = _vit_shape_summary(
        model, dim_scale
    )
    gemm_ticks = 0.0
    wire_total = 0.0
    serialize_total = 0.0
    for (m, k, n), count in shapes:
        compute, mem, serialize, latency, wire = _gemm_parts(m, k, n, f)
        ticks = _compose(compute, mem, serialize + latency, f)
        # The runner memoizes repeated identical GEMMs (attention heads,
        # stacked layers), so each distinct shape is priced once.
        repeat = 1 if memoize else count
        gemm_ticks += ticks * repeat
        wire_total += wire * repeat
        serialize_total += serialize * repeat

    cpu_period = TICKS_PER_SEC / config.cpu_freq_hz
    ng_bw = f.bytes_per_sec if not f.on_link else f.host_bytes_per_sec
    ng_compute = ng_elements * NONGEMM_CYCLES_PER_ELEMENT * cpu_period
    ng_mem = ng_io_bytes * (TICKS_PER_SEC / ng_bw)
    nongemm_ticks = ng_compute + ng_mem
    if not f.on_link:
        # Non-GEMM tensors live in device memory: the CPU reaches them
        # over the link, so their traffic is wire traffic.
        wire_total += ng_io_bytes
        serialize_total += ng_io_bytes * (TICKS_PER_SEC / f.bytes_per_sec)

    tradeoff = TradeoffModel.from_measured(
        config.name or "vit", gemm_ticks, nongemm_ticks
    )
    ticks = (
        tradeoff.t_other + tradeoff.gemm_unit_time + tradeoff.nongemm_unit_time
    )
    busy = min(1.0, serialize_total / ticks) if ticks > 0 else 0.0
    return SurrogateEstimate(key, "vit", float(ticks), float(wire_total), busy)


_ESTIMATORS = {
    "gemm": _estimate_gemm,
    "multigemm": _estimate_multigemm,
    "peer": _estimate_peer,
    "vit": _estimate_vit,
}


def estimate_point(
    config: SystemConfig,
    runner: str = "gemm",
    key: Any = None,
    features: Optional[LinkFeatures] = None,
    **params,
) -> SurrogateEstimate:
    """Score one point analytically; mirrors the runner signatures.

    ``params`` take the same names the corresponding sweep runner
    accepts (``m``/``k``/``n``, ``size_bytes``/``mode``, ``model``...);
    unknown runner extras like ``seed`` are ignored.  Pass a
    pre-computed ``features`` to amortize config introspection across a
    grid (what :func:`estimate_spec` does).
    """
    try:
        estimator = _ESTIMATORS[runner]
    except KeyError:
        raise ValueError(
            f"no surrogate estimator for runner {runner!r}; "
            f"known: {sorted(_ESTIMATORS)}"
        ) from None
    if features is None:
        features = features_for(config, params.get("packet_size"))
    return estimator(config, features, key, **params)


def estimate_spec(
    spec: SweepSpec, calibration=None
) -> List[SurrogateEstimate]:
    """Score every point of a sweep spec, in point order.

    ``calibration`` (a :class:`repro.surrogate.xval.Calibration`) scales
    the time estimates by the measured per-runner factor.
    """
    runner = spec.runner
    if not isinstance(runner, str):
        runner = getattr(runner, "name", str(runner))
    scale = 1.0
    if calibration is not None:
        scale = calibration.scale_for(runner)
    feature_cache: Dict[Tuple[int, Any], LinkFeatures] = {}
    estimates = []
    for point in spec.points:
        params = point.params
        fkey = (id(point.config), params.get("packet_size"))
        features = feature_cache.get(fkey)
        if features is None:
            features = features_for(point.config, params.get("packet_size"))
            feature_cache[fkey] = features
        est = estimate_point(
            point.config, runner, key=point.key, features=features, **params
        )
        estimates.append(est if scale == 1.0 else est.scaled(scale))
    return estimates

