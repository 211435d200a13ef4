"""Accelerator controller: tiling, prefetch, compute/transfer overlap.

Implements the MatrixFlow dataflow the paper's Table IV implies: each
16x16 output tile streams its full A row-panel and B column-panel from
memory (no cross-tile panel reuse -- the uTLB lookup counts in the paper
equal the streamed line count), computes on the systolic array, and writes
the tile back.  Operands use the MatrixFlow packed layout: panels are
stored contiguously, so each panel is a single DMA descriptor.

The controller double-buffers: while tile *t* computes, panels for tiles
*t+1..t+depth* prefetch, bounded by the local-buffer capacity.  An
optional ``reuse_a_panels`` flag keeps the current A panel resident across
a row of output tiles -- an ablation knob for the design-choice study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.accel.local_buffer import BufferFullError, LocalBuffer
from repro.accel.systolic import SystolicArray
from repro.dma import DMADescriptor, DMADirection, DMAEngine
from repro.sim.eventq import Simulator
from repro.sim.simobject import SimObject

if TYPE_CHECKING:
    import numpy as np

#: Called with (job, result_stats_dict) when a job retires.
JobDoneFn = Callable[["GemmJob", Dict[str, float]], None]


@dataclass
class GemmJob:
    """One C = A x B launch.

    Addresses are accelerator-visible (virtual when an SMMU is in the
    path).  Operands are stored in the MatrixFlow packed layout:

    * A: row-panel-major -- panel ``i`` (rows ``16i..16i+15``) contiguous
      at ``a_addr + i * 16 * k * element_bytes``,
    * B: column-panel-major -- panel ``j`` contiguous at
      ``b_addr + j * k * 16 * element_bytes``,
    * C: tile-major -- tile (i, j) contiguous at
      ``c_addr + (i * tiles_n + j) * 256 * element_bytes``.
    """

    m: int
    k: int
    n: int
    a_addr: int
    b_addr: int
    c_addr: int
    element_bytes: int = 4
    packet_size: Optional[int] = None
    #: Optional functional operands; results land in :attr:`c_result`.
    a_data: Optional[np.ndarray] = None
    b_data: Optional[np.ndarray] = None
    c_result: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) <= 0:
            raise ValueError(f"GEMM dims must be positive: {self.m}x{self.k}x{self.n}")
        if self.a_data is not None and self.a_data.shape != (self.m, self.k):
            raise ValueError(
                f"A shape {self.a_data.shape} != ({self.m}, {self.k})"
            )
        if self.b_data is not None and self.b_data.shape != (self.k, self.n):
            raise ValueError(
                f"B shape {self.b_data.shape} != ({self.k}, {self.n})"
            )

    @property
    def functional(self) -> bool:
        return self.a_data is not None and self.b_data is not None

    def traffic_bytes(self, tile: int = 16, reuse_a: bool = False) -> int:
        """Expected DMA read volume for the streaming dataflow."""
        tiles_m = -(-self.m // tile)
        tiles_n = -(-self.n // tile)
        a_panel = tile * self.k * self.element_bytes
        b_panel = self.k * tile * self.element_bytes
        a_fetches = tiles_m if reuse_a else tiles_m * tiles_n
        return a_fetches * a_panel + tiles_m * tiles_n * b_panel


class AcceleratorController(SimObject):
    """Sequences DMA and systolic-array work for GEMM jobs."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        systolic: SystolicArray,
        local_buffer: LocalBuffer,
        dma: DMAEngine,
        prefetch_depth: int = 2,
        reuse_a_panels: bool = False,
    ) -> None:
        super().__init__(sim, name)
        if prefetch_depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {prefetch_depth}")
        self.systolic = systolic
        self.local_buffer = local_buffer
        self.dma = dma
        self.prefetch_depth = prefetch_depth
        self.reuse_a_panels = reuse_a_panels
        self._busy = False

        self._jobs = self.stats.scalar("jobs", "GEMM jobs completed")
        self._tiles = self.stats.scalar("tiles", "output tiles produced")
        self._stall_ticks = self.stats.scalar(
            "stall_ticks", "array idle time waiting for operands"
        )

    def reset_state(self) -> None:
        super().reset_state()
        self._busy = False

    # ------------------------------------------------------------------
    # Job launch
    # ------------------------------------------------------------------
    def launch(self, job: GemmJob, on_done: JobDoneFn) -> None:
        """Run ``job``; fire ``on_done(job, stats)`` when it fully retires."""
        if self._busy:
            raise RuntimeError(f"{self.name}: a job is already running")
        self._busy = True

        if job.functional:
            import numpy as np

            job.c_result = np.zeros((job.m, job.n), dtype=np.int32)
        _Launch(self, job, on_done).issue_prefetches()

    # ------------------------------------------------------------------
    # Functional model
    # ------------------------------------------------------------------
    @staticmethod
    def _compute_tile_result(job: GemmJob, i: int, j: int, tile: int) -> None:
        r0, r1 = i * tile, min((i + 1) * tile, job.m)
        c0, c1 = j * tile, min((j + 1) * tile, job.n)
        a_panel = job.a_data[r0:r1, :]
        b_panel = job.b_data[:, c0:c1]
        job.c_result[r0:r1, c0:c1] = SystolicArray.multiply(a_panel, b_panel)

    @property
    def busy(self) -> bool:
        return self._busy


class _Launch:
    """One running :meth:`AcceleratorController.launch`.

    The DMA engine and the systolic array call this object's methods
    back and it holds no reference to their queues or events, so it is
    freed by reference counting once the job retires (docs/PERFORMANCE.md,
    "Garbage collection").
    """

    __slots__ = (
        "ctrl", "job", "on_done", "tile", "tiles_n", "ntiles",
        "a_panel_bytes", "b_panel_bytes", "c_tile_bytes", "next_fetch",
        "next_compute", "ready", "writebacks", "fetched_a_row", "start",
        "compute_done",
    )

    def __init__(self, ctrl: AcceleratorController, job: GemmJob,
                 on_done: JobDoneFn) -> None:
        self.ctrl = ctrl
        self.job = job
        self.on_done = on_done
        tile = self.tile = ctrl.systolic.params.rows
        tiles_m = -(-job.m // tile)
        self.tiles_n = -(-job.n // tile)
        self.ntiles = tiles_m * self.tiles_n
        eb = job.element_bytes
        self.a_panel_bytes = tile * job.k * eb
        self.b_panel_bytes = job.k * tile * eb
        self.c_tile_bytes = tile * tile * eb
        self.next_fetch = 0
        self.next_compute = 0
        self.ready = set()
        self.writebacks = 0
        self.fetched_a_row = -1
        self.start = ctrl.now
        self.compute_done = 0

    def issue_prefetches(self) -> None:
        ctrl = self.ctrl
        job = self.job
        while (
            self.next_fetch < self.ntiles
            and self.next_fetch - self.next_compute < ctrl.prefetch_depth
        ):
            index = self.next_fetch
            i, j = divmod(index, self.tiles_n)
            fetch_a = not (ctrl.reuse_a_panels and i == self.fetched_a_row)
            need = self.b_panel_bytes + (self.a_panel_bytes if fetch_a else 0)
            try:
                ctrl.local_buffer.alloc(f"tile{index}", need)
            except BufferFullError:
                return  # retry after a tile frees its panels
            self.next_fetch = index + 1
            if fetch_a:
                self.fetched_a_row = i
            descriptors: List[DMADescriptor] = []
            if fetch_a:
                descriptors.append(
                    DMADescriptor(
                        job.a_addr + i * self.a_panel_bytes,
                        self.a_panel_bytes,
                        DMADirection.HOST_TO_DEVICE,
                        stream="A",
                        packet_size=job.packet_size,
                    )
                )
            descriptors.append(
                DMADescriptor(
                    job.b_addr + j * self.b_panel_bytes,
                    self.b_panel_bytes,
                    DMADirection.HOST_TO_DEVICE,
                    stream="B",
                    packet_size=job.packet_size,
                )
            )
            ctrl.dma.submit_list(descriptors, partial(self.data_arrived, index))

    def data_arrived(self, index: int) -> None:
        self.ready.add(index)
        self.start_computes()

    def start_computes(self) -> None:
        while self.next_compute < self.ntiles and self.next_compute in self.ready:
            index = self.next_compute
            self.next_compute = index + 1
            self.ctrl.systolic.compute_tile(
                self.job.k, partial(self.tile_computed, index)
            )

    def tile_computed(self, index: int) -> None:
        ctrl = self.ctrl
        job = self.job
        i, j = divmod(index, self.tiles_n)
        ctrl.local_buffer.free(f"tile{index}")
        ctrl._tiles.inc()
        if job.functional:
            ctrl._compute_tile_result(job, i, j, self.tile)
        self.writebacks += 1
        writeback = DMADescriptor(
            job.c_addr + index * self.c_tile_bytes,
            self.c_tile_bytes,
            DMADirection.DEVICE_TO_HOST,
            stream="C",
            packet_size=job.packet_size,
        )
        ctrl.dma.submit(writeback, self.writeback_done)
        self.compute_done += 1
        self.issue_prefetches()

    def writeback_done(self, _descriptor: DMADescriptor) -> None:
        self.writebacks -= 1
        if self.compute_done == self.ntiles and self.writebacks == 0:
            self.finish()

    def finish(self) -> None:
        ctrl = self.ctrl
        systolic_stats = ctrl.systolic.stats
        ctrl._busy = False
        ctrl._jobs.inc()
        ctrl._stall_ticks.set(systolic_stats["idle_ticks"].value)
        stats = {
            "ticks": ctrl.now - self.start,
            "tiles": self.ntiles,
            "bytes_read": self.job.traffic_bytes(
                self.tile, ctrl.reuse_a_panels
            ),
            "bytes_written": self.ntiles * self.c_tile_bytes,
            "compute_busy_ticks": systolic_stats["busy_ticks"].value,
            "stall_ticks": systolic_stats["idle_ticks"].value,
        }
        self.on_done(self.job, stats)
