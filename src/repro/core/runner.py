"""Experiment drivers: the WorkloadRunner protocol, GEMM and ViT runs.

Every workload follows the same three-step shape, captured by
:class:`WorkloadRunner`: *acquire* a system for a configuration, *drive*
the workload through it (real MMIO launches, DMA traffic, CPU kernels),
and *snapshot* the statistics the harnesses report.  The sweep registry
runs the module-level wrappers (``run_gemm``, ``run_vit``,
``run_multi_gemm``, ``run_peer_transfer``) and caches their results.

System acquisition goes through :func:`system_for`, a per-process
memoized factory keyed on ``SystemConfig.stable_hash()``: re-running a
configuration reuses the already-wired :class:`AcceSysSystem` after an
explicit :meth:`~repro.core.system.AcceSysSystem.reset`, which restores
bit-identical pristine state.  Tag stores are flat per-slot arrays, so
a system builds in about a millisecond and resets in a fraction of
that; the memo saves roughly the build cost on every repeated point.

``run_vit`` walks a ViT op graph op by op: GEMMs dispatch to the
accelerator, non-GEMM operators to the CPU, with tensors placed in host
or device memory according to the configuration -- reproducing the
Section V-C/V-D experiments.  Repeated shapes are *memoized*: the first
instance of each (shape, packet, DMA-segment) tuple is simulated in full
and later instances replay its measured latency.  Transformer layers are
identical, so this cuts simulation cost by the layer count without
changing totals (micro-architectural state differences across layers are
second-order, which this approximation accepts).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.system import AcceSysSystem
from repro.cpu.nongemm import kernel_for_op
from repro.sim.ticks import ticks_to_seconds
from repro.telemetry.state import on_system_acquired
from repro.workloads.gemm import GemmWorkload, pack_a_panels, pack_b_panels
from repro.workloads.ops import GemmOp, NonGemmOp, OpGraph
from repro.workloads.vit import VIT_VARIANTS, ViTConfig, build_vit_graph

if TYPE_CHECKING:
    import numpy as np


@dataclass
class GemmResult:
    """Outcome of one GEMM launch."""

    config_name: str
    m: int
    k: int
    n: int
    ticks: int
    job_ticks: int
    traffic_bytes: int
    #: Functional output of ``--verify`` runs; never cached.
    c_matrix: Optional[np.ndarray] = field(
        default=None, metadata={"record": False}
    )
    table4: Optional[Dict[str, float]] = None
    component_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return ticks_to_seconds(self.ticks)

    @property
    def delivered_bytes_per_sec(self) -> float:
        """Sustained operand bandwidth over the job."""
        if self.job_ticks == 0:
            return 0.0
        return self.traffic_bytes / ticks_to_seconds(self.job_ticks)


@dataclass
class MultiGemmResult:
    """Outcome of concurrent GEMMs across an accelerator cluster."""

    config_name: str
    m: int
    k: int
    n: int
    num_devices: int
    #: Number of devices that actually launched work (contention knob).
    active_devices: int
    #: Completion tick per active device (launch order).
    device_ticks: list = field(default_factory=list)
    ticks: int = 0
    total_traffic_bytes: int = 0
    #: Busy fraction of the shared root-complex link pair (the max of the
    #: two directions) -- the endpoint-scaling saturation indicator.
    uplink_busy_frac: float = 0.0
    component_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return ticks_to_seconds(self.ticks)

    @property
    def aggregate_bytes_per_sec(self) -> float:
        """Cluster-wide sustained operand bandwidth over the run."""
        if self.ticks == 0:
            return 0.0
        return self.total_traffic_bytes / ticks_to_seconds(self.ticks)


@dataclass
class PeerTransferResult:
    """Outcome of one device-to-device transfer (P2P or host bounce)."""

    config_name: str
    mode: str
    size_bytes: int
    ticks: int
    #: Payload bytes that crossed the root-complex links (0 for pure P2P).
    root_complex_bytes: int = 0

    @property
    def seconds(self) -> float:
        return ticks_to_seconds(self.ticks)

    @property
    def bytes_per_sec(self) -> float:
        if self.ticks == 0:
            return 0.0
        return self.size_bytes / ticks_to_seconds(self.ticks)


@dataclass
class ViTResult:
    """Outcome of one ViT inference run."""

    config_name: str
    model_name: str
    total_ticks: int
    gemm_ticks: int
    nongemm_ticks: int
    op_ticks: Dict[str, int] = field(default_factory=dict)
    memo_hits: int = 0

    @property
    def seconds(self) -> float:
        return ticks_to_seconds(self.total_ticks)

    @property
    def nongemm_fraction(self) -> float:
        if self.total_ticks == 0:
            return 0.0
        return self.nongemm_ticks / self.total_ticks


# ----------------------------------------------------------------------
# Memoized system factory
# ----------------------------------------------------------------------
#: Retained systems per process (LRU).  Grids usually cycle through a
#: handful of configurations; unbounded retention would pin every tag
#: store of a many-config sweep in memory.
SYSTEM_MEMO_CAPACITY = 8

_system_memo: "OrderedDict[str, AcceSysSystem]" = OrderedDict()


def clear_system_memo() -> None:
    """Drop every retained system (tests; frees their event state)."""
    _system_memo.clear()


def system_for(config: SystemConfig) -> AcceSysSystem:
    """A pristine system for ``config``: memoized per process.

    A cache hit returns the previously built system after an explicit
    :meth:`~repro.core.system.AcceSysSystem.reset`, which restores
    construction-time state exactly -- results are bit-identical to a
    fresh build (asserted by ``tests/test_system_reset.py``).  Keyed on
    the canonical config hash, so any field change builds a new system.

    Every acquisition passes through the telemetry hook: inside a point
    that collects telemetry (:func:`repro.telemetry.runtime.collect_point`)
    the system gets its observation hooks attached here -- the single
    chokepoint that covers fresh builds and memoized reuse alike -- and
    loses them again when that point ends, so the memo only ever holds
    hookless systems.
    """
    key = config.stable_hash()
    system = _system_memo.get(key)
    if system is not None:
        _system_memo.move_to_end(key)
        system.reset()
        on_system_acquired(system)
        return system
    system = AcceSysSystem(config)
    _system_memo[key] = system
    while len(_system_memo) > SYSTEM_MEMO_CAPACITY:
        _system_memo.popitem(last=False)
    on_system_acquired(system)
    return system


# ----------------------------------------------------------------------
# The runner protocol
# ----------------------------------------------------------------------
class WorkloadRunner:
    """The common shape of every experiment driver.

    ``run`` acquires a (memoized) system for the configuration and hands
    it to ``drive``, which launches the workload, drains the event queue
    and builds the result -- typically ending with a ``snapshot`` of the
    per-component statistics.  Sweep runners registered with
    :func:`repro.sweep.spec.register_runner` wrap concrete subclasses.
    """

    def acquire_system(self, config: SystemConfig) -> AcceSysSystem:
        return system_for(config)

    def drive(self, system: AcceSysSystem, **params):
        """Execute one workload on ``system`` and return its result."""
        raise NotImplementedError

    def snapshot(self, system: AcceSysSystem) -> Dict[str, float]:
        return _snapshot(system)

    def run(self, config: SystemConfig, **params):
        return self.drive(self.acquire_system(config), **params)


class GemmRunner(WorkloadRunner):
    """One C = A x B launch through the kernel driver."""

    def drive(
        self,
        system: AcceSysSystem,
        m: int,
        k: int,
        n: int,
        packet_size: Optional[int] = None,
        functional: bool = False,
        seed: int = 1234,
    ) -> GemmResult:
        config = system.config
        workload = GemmWorkload(m, k, n, seed=seed)

        a_addr = system.alloc_buffer("A", workload.a_bytes)
        b_addr = system.alloc_buffer("B", workload.b_bytes)
        c_addr = system.alloc_buffer("C", workload.c_bytes)

        a_data = b_data = None
        if functional:
            a_data, b_data = workload.generate()
            _write_operands(system, a_addr, b_addr, a_data, b_data)

        done: Dict[str, object] = {}

        def complete(job, stats) -> None:
            done["job"] = job
            done["stats"] = stats
            done["at"] = system.now

        system.driver.launch_gemm(
            m, k, n, a_addr, b_addr, c_addr, complete,
            packet_size=packet_size or config.packet_size,
            a_data=a_data, b_data=b_data,
        )
        system.run()
        if "stats" not in done:
            raise RuntimeError("GEMM job never completed (deadlock in wiring?)")

        job_stats = done["stats"]
        table4 = None
        if system.smmu is not None and not config.uses_device_memory:
            table4 = system.smmu.table4_metrics(done["at"])
        return GemmResult(
            config_name=config.name,
            m=m, k=k, n=n,
            ticks=done["at"],
            job_ticks=int(job_stats["ticks"]),
            traffic_bytes=int(
                job_stats["bytes_read"] + job_stats["bytes_written"]
            ),
            c_matrix=done["job"].c_result,
            table4=table4,
            component_stats=self.snapshot(system),
        )


def run_gemm(
    config: SystemConfig,
    m: int,
    k: int,
    n: int,
    packet_size: Optional[int] = None,
    functional: bool = False,
    seed: int = 1234,
) -> GemmResult:
    """Build (or reuse) a system, run one C = A x B job, and report."""
    if functional and not config.functional:
        config = config.with_(functional=True)
    return GemmRunner().run(
        config, m=m, k=k, n=n, packet_size=packet_size,
        functional=functional, seed=seed,
    )


def _write_operands(
    system: AcceSysSystem, a_addr: int, b_addr: int,
    a_data: np.ndarray, b_data: np.ndarray,
) -> None:
    """Place packed operands into the functional backing store."""
    packed_a = pack_a_panels(a_data)
    packed_b = pack_b_panels(b_data)
    if system.config.uses_device_memory:
        # DevMem addresses are physical already.
        system.devmem_backing.write(a_addr, packed_a)
        system.devmem_backing.write(b_addr, packed_b)
    else:
        backing = system.host_backing
        backing.write(system.driver.buffer_paddr("A"), packed_a)
        backing.write(system.driver.buffer_paddr("B"), packed_b)


def _snapshot(system: AcceSysSystem) -> Dict[str, float]:
    """A compact stat snapshot for reports.

    Cost is O(components touched since the last reset), not O(all
    stats): each ``StatGroup.flatten`` is memoized behind a dirty flag,
    and a freshly reset (memoized) system serves pristine rows computed
    once per process -- see :mod:`repro.sim.statistics`.  The returned
    dict is a fresh copy either way; values are bit-identical to a full
    walk.
    """
    out: Dict[str, float] = {}
    for component in (
        system.wrapper.systolic,
        system.wrapper.dma,
        system.fabric.up,
        system.fabric.down,
        system.llc,
        system.iocache,
        system.mem_ctrl,
        system.membus,
    ):
        for key, value in component.stats.flatten():
            out[key] = value
    if system.smmu is not None:
        for key, value in system.smmu.stats.flatten():
            out[key] = value
    return out


# ----------------------------------------------------------------------
# Multi-device runners (topology experiments)
# ----------------------------------------------------------------------
class MultiGemmRunner(WorkloadRunner):
    """Concurrent C = A x B launches, one per cluster device.

    Each active device pins its own operand buffers and receives its own
    doorbell; the jobs then contend for whatever the topology shares --
    the switch's upstream link, the root complex, the host memory
    system.  ``devices`` limits how many of the cluster's accelerators
    launch (the contention knob of the ``topo-contention`` sweep).
    """

    def drive(
        self,
        system: AcceSysSystem,
        m: int,
        k: int,
        n: int,
        devices: Optional[int] = None,
        packet_size: Optional[int] = None,
    ) -> MultiGemmResult:
        config = system.config
        total = len(system.drivers)
        active = total if devices is None else devices
        if not 1 <= active <= total:
            raise ValueError(
                f"devices={active} out of range 1..{total} "
                f"(cluster has {total} accelerator(s))"
            )
        workload = GemmWorkload(m, k, n)
        done: Dict[int, Dict[str, object]] = {}

        for index in range(active):
            driver = system.drivers[index]
            a = system.alloc_buffer(f"{driver.name}.A", workload.a_bytes,
                                    driver=driver)
            b = system.alloc_buffer(f"{driver.name}.B", workload.b_bytes,
                                    driver=driver)
            c = system.alloc_buffer(f"{driver.name}.C", workload.c_bytes,
                                    driver=driver)

            def complete(job, stats, i=index) -> None:
                done[i] = {"stats": stats, "at": system.now}

            driver.launch_gemm(
                m, k, n, a, b, c, complete,
                packet_size=packet_size or config.packet_size,
            )
        system.run()
        if len(done) != active:
            raise RuntimeError(
                f"only {len(done)}/{active} cluster jobs completed "
                f"(deadlock in topology wiring?)"
            )

        device_ticks = [done[i]["at"] for i in range(active)]
        ticks = max(device_ticks)
        traffic = sum(
            int(done[i]["stats"]["bytes_read"]
                + done[i]["stats"]["bytes_written"])
            for i in range(active)
        )
        return MultiGemmResult(
            config_name=config.name,
            m=m, k=k, n=n,
            num_devices=total,
            active_devices=active,
            device_ticks=device_ticks,
            ticks=ticks,
            total_traffic_bytes=traffic,
            # Busier direction of the shared root-complex pair; both the
            # switched fabric's SwitchLink and the classic PCIeChannel
            # expose the same saturation property.
            uplink_busy_frac=max(
                system.fabric.up.utilization_window,
                system.fabric.down.utilization_window,
            ),
            component_stats=self.snapshot(system),
        )

    def snapshot(self, system: AcceSysSystem) -> Dict[str, float]:
        out = _snapshot(system)
        for wrapper in system.wrappers[1:]:
            for component in (wrapper.systolic, wrapper.dma):
                for key, value in component.stats.flatten():
                    out[key] = value
        return out


def run_multi_gemm(
    config: SystemConfig,
    m: int,
    k: int,
    n: int,
    devices: Optional[int] = None,
    packet_size: Optional[int] = None,
) -> MultiGemmResult:
    """Run concurrent GEMMs across the configured accelerator cluster."""
    return MultiGemmRunner().run(
        config, m=m, k=k, n=n, devices=devices, packet_size=packet_size
    )


class PeerTransferRunner(WorkloadRunner):
    """One device-to-device transfer, peer-to-peer or host-bounced.

    ``mode="p2p"`` DMAs straight into the destination endpoint's scratch
    aperture (BAR1): the switch routes it below the root complex.
    ``mode="bounce"`` is the software path P2P replaces: the source
    device writes a pinned host buffer, then the destination device
    reads it back -- two full root-complex crossings plus host memory.
    """

    MODES = ("p2p", "bounce")

    def drive(
        self,
        system: AcceSysSystem,
        size_bytes: int,
        mode: str = "p2p",
    ) -> PeerTransferResult:
        from repro.dma import DMADescriptor, DMADirection

        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if len(system.wrappers) < 2:
            raise ValueError(
                "peer transfer needs a cluster of at least two accelerators "
                "(num_accelerators >= 2)"
            )
        done: Dict[str, int] = {}
        if mode == "p2p":
            if not system.endpoint_scratch:
                raise ValueError(
                    "p2p mode needs a switched PCIe topology (the classic "
                    "point-to-point fabric has no peer windows)"
                )
            window = system.endpoint_scratch[1].range
            if size_bytes > window.size:
                raise ValueError(
                    f"transfer of {size_bytes} bytes exceeds the destination "
                    f"scratch window ({window.size} bytes; sized by "
                    f"local_buffer_bytes)"
                )
            descriptor = DMADescriptor(
                addr=window.start, size=size_bytes,
                direction=DMADirection.DEVICE_TO_HOST, stream="P",
            )
            system.wrappers[0].dma.submit(
                descriptor, lambda _d: done.setdefault("at", system.now)
            )
        else:
            buffer_addr = system.drivers[0].pin_buffer(
                "peer.bounce", size_bytes
            )

            def read_back(_descriptor) -> None:
                fetch = DMADescriptor(
                    addr=buffer_addr, size=size_bytes,
                    direction=DMADirection.HOST_TO_DEVICE, stream="P",
                )
                system.wrappers[1].dma.submit(
                    fetch, lambda _d: done.setdefault("at", system.now)
                )

            push = DMADescriptor(
                addr=buffer_addr, size=size_bytes,
                direction=DMADirection.DEVICE_TO_HOST, stream="P",
            )
            system.wrappers[0].dma.submit(push, read_back)
        system.run()
        if "at" not in done:
            raise RuntimeError(f"{mode} transfer never completed")
        rc_bytes = int(
            system.fabric.up.stats["payload_bytes"].value
            + system.fabric.down.stats["payload_bytes"].value
        )
        return PeerTransferResult(
            config_name=system.config.name,
            mode=mode,
            size_bytes=size_bytes,
            ticks=done["at"],
            root_complex_bytes=rc_bytes,
        )


def run_peer_transfer(
    config: SystemConfig, size_bytes: int, mode: str = "p2p"
) -> PeerTransferResult:
    """Time one device-to-device transfer under ``config``."""
    return PeerTransferRunner().run(config, size_bytes=size_bytes, mode=mode)


# ----------------------------------------------------------------------
# ViT
# ----------------------------------------------------------------------
class ViTRunner(WorkloadRunner):
    """Full ViT inference: GEMMs on the accelerator, the rest on the CPU."""

    def drive(
        self,
        system: AcceSysSystem,
        model: str | ViTConfig = "base",
        memoize: bool = True,
        dim_scale: float = 1.0,
    ) -> ViTResult:
        config = system.config
        vit_config = _resolve_model(model, dim_scale)
        graph = build_vit_graph(vit_config)
        placement = _place_tensors(system, graph)

        result = ViTResult(
            config_name=config.name,
            model_name=vit_config.name,
            total_ticks=0, gemm_ticks=0, nongemm_ticks=0,
        )
        playback = _ViTPlayback(system, graph, placement, result, memoize)
        playback.next_op()
        system.run()
        if playback.index < len(graph.ops):
            raise RuntimeError(
                f"ViT run stalled at op {playback.index}/{len(graph.ops)}"
            )
        result.total_ticks = system.now
        assert sum(result.op_ticks.values()) == (
            result.gemm_ticks + result.nongemm_ticks
        ), "per-op tick accounting drifted from the GEMM/non-GEMM totals"
        return result


class _ViTPlayback:
    """Plays a ViT op graph through one system, one op at a time.

    The driver, the CPU and the event queue call this object's methods
    back and it holds no reference to them, so a finished run is freed
    by reference counting (docs/PERFORMANCE.md, "Garbage collection").
    """

    __slots__ = ("system", "config", "graph", "placement", "result",
                 "memoize", "gemm_memo", "nongemm_memo", "index", "op_start")

    def __init__(self, system: AcceSysSystem, graph, placement,
                 result: ViTResult, memoize: bool) -> None:
        self.system = system
        self.config = system.config
        self.graph = graph
        self.placement = placement
        self.result = result
        self.memoize = memoize
        self.gemm_memo: Dict[Tuple, int] = {}
        self.nongemm_memo: Dict[Tuple, int] = {}
        self.index = 0
        self.op_start = 0

    def next_op(self) -> None:
        ops = self.graph.ops
        if self.index >= len(ops):
            return
        op = ops[self.index]
        self.index += 1
        self.op_start = self.system.now
        if isinstance(op, GemmOp):
            self.run_gemm_op(op)
        else:
            self.run_nongemm_op(op)

    def account(self, op, elapsed: int) -> None:
        # Ops may share a name (e.g. graphs built outside
        # build_vit_graph); accumulate rather than overwrite so totals
        # stay consistent.
        result = self.result
        result.op_ticks[op.name] = result.op_ticks.get(op.name, 0) + elapsed
        if isinstance(op, GemmOp):
            result.gemm_ticks += elapsed
        else:
            result.nongemm_ticks += elapsed

    def run_gemm_op(self, op: GemmOp) -> None:
        # The replayed latency depends on every knob that shapes a
        # launch: the shape, the on-wire packet size, and the DMA
        # read-request granularity (Fig. 7 overrides the segment size
        # per point, so it must key the memo).
        config = self.config
        key = (
            "gemm", op.m, op.k, op.n,
            config.packet_size, config.dma_segment_bytes,
        )
        if self.memoize and key in self.gemm_memo:
            self.result.memo_hits += 1
            elapsed = self.gemm_memo[key] * op.batch
            self.account(op, elapsed)
            self.system.sim.schedule(elapsed, self.next_op)
            return

        a_ref = op.inputs[0]
        b_ref = op.inputs[1] if len(op.inputs) > 1 else op.inputs[0]
        c_ref = op.outputs[0]
        placement = self.placement
        self.system.driver.launch_gemm(
            op.m, op.k, op.n,
            placement[a_ref]["dev"],
            placement[b_ref]["dev"],
            placement[c_ref]["dev"],
            partial(self.gemm_done, op, key),
            packet_size=config.packet_size,
        )

    def gemm_done(self, op: GemmOp, key: Tuple, _job, _stats) -> None:
        elapsed = self.system.now - self.op_start
        self.gemm_memo[key] = elapsed
        remaining = (op.batch - 1) * elapsed
        self.account(op, elapsed * op.batch)
        self.system.sim.schedule(remaining, self.next_op)

    def run_nongemm_op(self, op: NonGemmOp) -> None:
        # Shape key only: same operator over same element count
        # behaves identically regardless of which layer's tensors it
        # touches.
        key = (
            "nongemm", op.op_type, op.elements,
            len(op.inputs), len(op.outputs),
        )
        if self.memoize and key in self.nongemm_memo:
            self.result.memo_hits += 1
            elapsed = self.nongemm_memo[key]
            self.account(op, elapsed)
            self.system.sim.schedule(elapsed, self.next_op)
            return
        placement = self.placement
        tensors = self.graph.tensors
        kernel = kernel_for_op(
            op.op_type,
            op.elements,
            [(placement[ref]["cpu"], tensors[ref]) for ref in op.inputs],
            [(placement[ref]["cpu"], tensors[ref]) for ref in op.outputs],
        )
        self.system.cpu.run_kernel(
            kernel.streams, kernel.compute_cycles,
            partial(self.nongemm_done, op, key),
        )

    def nongemm_done(self, op: NonGemmOp, key: Tuple, elapsed: int) -> None:
        self.nongemm_memo[key] = elapsed
        self.account(op, elapsed)
        self.system.sim.schedule(0, self.next_op)


def run_vit(
    config: SystemConfig,
    model: str | ViTConfig = "base",
    memoize: bool = True,
    dim_scale: float = 1.0,
) -> ViTResult:
    """Run one ViT inference through the full system.

    ``dim_scale`` scales hidden dimensions (every registered ViT sweep
    defaults to 0.25 to keep run times reasonable; the benchmark
    harnesses pass 1.0 under REPRO_FULL=1).
    """
    return ViTRunner().run(
        config, model=model, memoize=memoize, dim_scale=dim_scale
    )


def _resolve_model(model: str | ViTConfig, dim_scale: float) -> ViTConfig:
    # NaN fails both comparisons; a scale this rejects would otherwise be
    # clamped below into a heads-wide model under the requested name.
    if not 0 < dim_scale < math.inf:
        raise ValueError(
            f"dim_scale must be a finite number > 0, got {dim_scale!r}"
        )
    if isinstance(model, ViTConfig):
        config = model
    else:
        try:
            config = VIT_VARIANTS[model]
        except KeyError:
            raise ValueError(
                f"unknown ViT variant {model!r}; known: {sorted(VIT_VARIANTS)}"
            ) from None
    if dim_scale != 1.0:
        scaled_hidden = max(config.heads, int(config.hidden * dim_scale))
        scaled_hidden -= scaled_hidden % config.heads
        config = ViTConfig(
            name=f"{config.name}(x{dim_scale:g})",
            hidden=scaled_hidden,
            layers=config.layers,
            heads=config.heads,
            mlp_ratio=config.mlp_ratio,
            image_size=config.image_size,
            patch_size=config.patch_size,
        )
    return config


def _place_tensors(system: AcceSysSystem, graph: OpGraph) -> Dict[str, dict]:
    """Allocate every tensor; record CPU- and device-visible addresses.

    Tensors consumed by GEMMs are sized for the MatrixFlow *padded*
    layouts (panels are full 16-row/column blocks), so the accelerator's
    streaming reads never run past the pinned region.
    """
    required = dict(graph.tensors)
    for op in graph.ops:
        if not isinstance(op, GemmOp):
            continue
        eb = 4
        tiles_m = -(-op.m // 16)
        tiles_n = -(-op.n // 16)
        a_ref = op.inputs[0]
        b_ref = op.inputs[1] if len(op.inputs) > 1 else op.inputs[0]
        c_ref = op.outputs[0]
        needs = {
            a_ref: tiles_m * 16 * op.k * eb,
            b_ref: tiles_n * op.k * 16 * eb,
            c_ref: tiles_m * tiles_n * 256 * eb,
        }
        for ref, need in needs.items():
            required[ref] = max(required[ref], need)

    placement: Dict[str, dict] = {}
    uses_devmem = system.config.uses_device_memory
    for name, size in required.items():
        padded = max(size, 4096)
        if uses_devmem:
            addr = system.devmem_alloc.alloc(padded)
            placement[name] = {"cpu": addr, "dev": addr}
        else:
            dev_addr = system.driver.pin_buffer(name, padded)
            placement[name] = {
                "cpu": system.driver.buffer_paddr(name),
                "dev": dev_addr,
            }
    return placement
