"""Workloads: GEMM kernels and Vision Transformer operator graphs.

:mod:`~repro.workloads.ops` defines the operator taxonomy (GEMM vs
non-GEMM, the split Section V-D of the paper profiles).
:mod:`~repro.workloads.gemm` packs operands into the MatrixFlow layout
and generates reference inputs.  :mod:`~repro.workloads.vit` builds the
exact op graphs of ViT-Base/Large/Huge (hidden 768/1024/1280) used by the
transformer experiments (Figs. 7-9).
"""

from repro.workloads.ops import GemmOp, NonGemmOp, Op, OpGraph, OpKind
from repro.workloads.gemm import (
    GemmWorkload,
    pack_a_panels,
    pack_b_panels,
)
from repro.workloads.vit import VIT_VARIANTS, ViTConfig, build_vit_graph

__all__ = [
    "Op",
    "OpKind",
    "OpGraph",
    "GemmOp",
    "NonGemmOp",
    "GemmWorkload",
    "pack_a_panels",
    "pack_b_panels",
    "ViTConfig",
    "VIT_VARIANTS",
    "build_vit_graph",
]
