"""Non-GEMM operator cost models.

Per-element compute costs for the transformer's non-GEMM operators,
following the operator classes profiled by NonGEMM-Bench (the paper's
reference [20]): normalization, softmax, activation, and element-wise
arithmetic.  Costs are in CPU cycles per element and deliberately simple:
the experiments depend on the *ratio* between memory time and compute
time per operator, not on vendor-exact instruction counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cpu.cpu import StreamRef

#: Cycles per element by operator type (scalar in-order ARM-class core).
NONGEMM_COSTS: Dict[str, float] = {
    # mean/variance pass + normalize pass
    "layernorm": 8.0,
    # exp + sum + divide, numerically stabilized (max pass)
    "softmax": 12.0,
    # tanh-approximation GELU
    "gelu": 10.0,
    # residual add
    "add": 1.0,
    # patch extraction / reshape
    "patchify": 2.0,
    # pooling / classifier glue
    "pool": 2.0,
}


@dataclass(frozen=True)
class NonGemmKernel:
    """A non-GEMM operator instance ready to run on the CPU.

    ``streams`` name the tensors touched (input reads, output writes);
    ``compute_cycles`` is the total cycle budget for the element loop.
    """

    op_type: str
    elements: int
    streams: List[StreamRef]
    compute_cycles: int


def kernel_for_op(
    op_type: str,
    elements: int,
    input_addrs: List[tuple],
    output_addrs: List[tuple],
) -> NonGemmKernel:
    """Build a kernel from operator type and tensor placements.

    ``input_addrs`` / ``output_addrs`` are ``(addr, bytes)`` pairs; the
    per-element cost comes from :data:`NONGEMM_COSTS`.
    """
    if op_type not in NONGEMM_COSTS:
        raise ValueError(
            f"unknown non-GEMM op {op_type!r}; known: {sorted(NONGEMM_COSTS)}"
        )
    if elements <= 0:
        raise ValueError(f"element count must be positive, got {elements}")
    streams = [StreamRef(addr, size, is_read=True) for addr, size in input_addrs]
    streams += [StreamRef(addr, size, is_read=False) for addr, size in output_addrs]
    cycles = int(elements * NONGEMM_COSTS[op_type])
    return NonGemmKernel(op_type, elements, streams, cycles)
