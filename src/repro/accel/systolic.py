"""16x16 systolic array: timing and functional models.

The timing model is parametric rather than RTL-derived: a tile of
``rows x cols`` outputs over a reduction depth ``k`` costs the larger of
the MAC-array pipeline time (``k`` + fill/drain) and the operand ingest
time (two panels of ``k * rows`` elements through an ``ingest_elems``-wide
port from the local buffer).  The paper's own roofline experiment (Fig. 2)
treats the array's compute time as a free variable, which this model
exposes directly via ``compute_ticks_override``.

The functional model is exact: int32 matrix multiply with 64-bit
accumulation, matching the integer datapath the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.eventq import Simulator
from repro.sim.simobject import ClockedObject

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SystolicParams:
    """Geometry and timing of the array.

    ``ingest_elems`` is the number of matrix elements the array can accept
    per cycle from the local buffer (per panel stream).  The default of 1
    models a loosely-coupled design fed over a single 32-bit port, which is
    what reproduces the paper's compute-bound ceiling; wide configurations
    (e.g. 16) model a fully-banked buffer feeding every row in parallel.
    """

    rows: int = 16
    cols: int = 16
    freq_hz: float = 1e9
    element_bytes: int = 4
    ingest_elems: int = 1
    #: Pipeline fill + drain cycles.
    fill_drain_cycles: int = 32

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("array dimensions must be positive")
        if self.ingest_elems <= 0:
            raise ValueError("ingest width must be positive")
        if self.element_bytes not in (1, 2, 4, 8):
            raise ValueError(f"unsupported element size {self.element_bytes}")

    @property
    def macs(self) -> int:
        """Multiply-accumulate units in the array."""
        return self.rows * self.cols

    @property
    def ingest_bytes_per_sec(self) -> float:
        """Sustained operand bandwidth the array can absorb."""
        return self.ingest_elems * self.element_bytes * self.freq_hz * 2

    def tile_cycles(self, k: int) -> int:
        """Cycles to produce one rows x cols output tile of depth ``k``."""
        if k <= 0:
            raise ValueError(f"reduction depth must be positive, got {k}")
        pipeline = k + self.fill_drain_cycles
        # Two operand panels (A: rows*k, B: k*cols) stream concurrently,
        # each through its own ingest port.
        ingest = max(self.rows, self.cols) * k // self.ingest_elems
        return max(pipeline, ingest)


class SystolicArray(ClockedObject):
    """The compute unit: schedules tile computations, computes results."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        params: SystolicParams,
        compute_ticks_override: Optional[int] = None,
    ) -> None:
        super().__init__(sim, name, params.freq_hz)
        self.params = params
        #: When set, every tile costs exactly this many ticks (Fig. 2 knob).
        self.compute_ticks_override = compute_ticks_override
        self._free_at = 0

        self._tiles = self.stats.scalar("tiles", "output tiles computed")
        self._busy_ticks = self.stats.scalar("busy_ticks", "array busy time")
        self._idle_ticks = self.stats.scalar(
            "idle_ticks", "array idle time between queued tiles"
        )
        self._macs_done = self.stats.scalar("macs", "multiply-accumulates")

    def reset_state(self) -> None:
        super().reset_state()
        self._free_at = 0

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def tile_ticks(self, k: int) -> int:
        """Duration of one tile computation in ticks."""
        if self.compute_ticks_override is not None:
            return self.compute_ticks_override
        return self.params.tile_cycles(k) * self.clock_period

    def compute_tile(self, k: int, on_done) -> int:
        """Occupy the array for one tile; fire ``on_done()`` when finished.

        Returns the tick at which the computation will finish.  Requests
        queue back-to-back if the array is busy.
        """
        duration = self.tile_ticks(k)
        start = max(self.now, self._free_at)
        done = start + duration
        if self._tiles.value > 0 and self.now > self._free_at:
            self._idle_ticks.inc(self.now - self._free_at)
        self._free_at = done
        self._tiles.inc()
        self._busy_ticks.inc(duration)
        self._macs_done.inc(self.params.rows * self.params.cols * k)
        self.schedule_at(done, on_done)
        return done

    @property
    def free_at(self) -> int:
        """Tick at which the array next becomes idle."""
        return max(self._free_at, self.now)

    # ------------------------------------------------------------------
    # Functional model
    # ------------------------------------------------------------------
    @staticmethod
    def multiply(a_panel: np.ndarray, b_panel: np.ndarray) -> np.ndarray:
        """Exact int32 tile product with 64-bit accumulation."""
        import numpy as np

        if a_panel.shape[1] != b_panel.shape[0]:
            raise ValueError(
                f"inner dimensions differ: {a_panel.shape} x {b_panel.shape}"
            )
        acc = a_panel.astype(np.int64) @ b_panel.astype(np.int64)
        return acc.astype(np.int32)

    def describe(self) -> str:
        p = self.params
        return (
            f"{p.rows}x{p.cols} systolic array @ {p.freq_hz / 1e9:g} GHz, "
            f"ingest {p.ingest_elems} elem/cycle "
            f"({p.ingest_bytes_per_sec / 1e9:.1f} GB/s)"
        )
