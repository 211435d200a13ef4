"""GEMM workload generation and MatrixFlow operand packing.

MatrixFlow stores operands pre-tiled so every panel the accelerator
streams is one contiguous region (the "optimized data structure" of the
paper):

* A is *row-panel-major*: panel ``i`` holds rows ``16i..16i+15``
  contiguously, row-major inside the panel,
* B is *column-panel-major*: panel ``j`` holds columns ``16j..16j+15``
  contiguously, column-of-panel-major inside,
* C is *tile-major*: tile (i, j) is a contiguous 16x16 block.

Ragged edges are zero-padded to full panels, matching how the hardware
streams fixed-geometry tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import numpy as np


def _pad_to(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


@dataclass(frozen=True)
class GemmWorkload:
    """A reproducible random GEMM problem."""

    m: int
    k: int
    n: int
    element_bytes: int = 4
    seed: int = 1234

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) <= 0:
            raise ValueError(f"GEMM dims must be positive: {self.m}x{self.k}x{self.n}")

    def generate(self) -> Tuple[np.ndarray, np.ndarray]:
        """Random int32 operands in a small range (no accumulator overflow)."""
        import numpy as np

        rng = np.random.default_rng(self.seed)
        a = rng.integers(-64, 64, size=(self.m, self.k), dtype=np.int32)
        b = rng.integers(-64, 64, size=(self.k, self.n), dtype=np.int32)
        return a, b

    def reference(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        import numpy as np

        return (a.astype(np.int64) @ b.astype(np.int64)).astype(np.int32)

    @property
    def a_bytes(self) -> int:
        return _pad_to(self.m, 16) * self.k * self.element_bytes

    @property
    def b_bytes(self) -> int:
        return self.k * _pad_to(self.n, 16) * self.element_bytes

    @property
    def c_bytes(self) -> int:
        return _pad_to(self.m, 16) * _pad_to(self.n, 16) * self.element_bytes


def pack_a_panels(a: np.ndarray, tile: int = 16) -> np.ndarray:
    """Pack A into row-panel-major layout (flat uint8)."""
    import numpy as np

    m, k = a.shape
    padded_m = _pad_to(m, tile)
    padded = np.zeros((padded_m, k), dtype=a.dtype)
    padded[:m] = a
    # Panels are already contiguous row blocks in row-major storage.
    return np.ascontiguousarray(padded).view(np.uint8).reshape(-1)


def pack_b_panels(b: np.ndarray, tile: int = 16) -> np.ndarray:
    """Pack B into column-panel-major layout (flat uint8)."""
    import numpy as np

    k, n = b.shape
    padded_n = _pad_to(n, tile)
    padded = np.zeros((k, padded_n), dtype=b.dtype)
    padded[:, :n] = b
    panels = [
        np.ascontiguousarray(padded[:, j : j + tile])
        for j in range(0, padded_n, tile)
    ]
    return np.concatenate([p.view(np.uint8).reshape(-1) for p in panels])

