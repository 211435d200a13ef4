"""Operator taxonomy: GEMM vs non-GEMM.

The paper's transformer analysis (Section V-D) splits every workload into
GEMM operations (offloaded to the systolic accelerator) and non-GEMM
operations (run on the host CPU).  These dataclasses are the nodes of the
workload graphs; the runner walks a graph and dispatches each node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List


class OpKind(enum.Enum):
    GEMM = "gemm"
    NONGEMM = "nongemm"


@dataclass(frozen=True)
class Op:
    """Base operator: a name and the tensors it consumes/produces.

    Tensor references are symbolic names resolved to addresses by the
    runner according to the memory placement of the configuration
    (host-side vs device-side).
    """

    name: str
    inputs: tuple
    outputs: tuple

    @property
    def kind(self) -> OpKind:
        raise NotImplementedError


@dataclass(frozen=True)
class GemmOp(Op):
    """C[m,n] = A[m,k] x B[k,n], offloaded to the accelerator.

    ``batch`` repeats the same shape (multi-head attention issues one
    GEMM per head).
    """

    m: int = 0
    k: int = 0
    n: int = 0
    batch: int = 1

    @property
    def kind(self) -> OpKind:
        return OpKind.GEMM

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) <= 0:
            raise ValueError(f"{self.name}: GEMM dims must be positive")
        if self.batch <= 0:
            raise ValueError(f"{self.name}: batch must be positive")


@dataclass(frozen=True)
class NonGemmOp(Op):
    """A CPU-side operator over ``elements`` values."""

    op_type: str = "add"
    elements: int = 0

    @property
    def kind(self) -> OpKind:
        return OpKind.NONGEMM

    def __post_init__(self) -> None:
        if self.elements <= 0:
            raise ValueError(f"{self.name}: element count must be positive")


@dataclass
class OpGraph:
    """A sequential operator list with named tensors.

    ``tensors`` maps tensor name -> byte size; ops execute in order (the
    transformer graph is a chain; parallelism inside an op is the
    accelerator's/CPU's business).
    """

    name: str
    tensors: dict = field(default_factory=dict)
    ops: List[Op] = field(default_factory=list)

    def add_tensor(self, name: str, nbytes: int) -> str:
        if nbytes <= 0:
            raise ValueError(f"tensor {name!r} must have positive size")
        existing = self.tensors.get(name)
        if existing is not None and existing != nbytes:
            raise ValueError(
                f"tensor {name!r} re-declared with different size "
                f"({existing} vs {nbytes})"
            )
        self.tensors[name] = nbytes
        return name

    def add(self, op: Op) -> None:
        for ref in op.inputs + op.outputs:
            if ref not in self.tensors:
                raise ValueError(f"op {op.name!r} references unknown tensor {ref!r}")
        self.ops.append(op)
