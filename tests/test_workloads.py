"""Unit tests for workload definitions (ops, GEMM packing, ViT graphs)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    VIT_VARIANTS,
    GemmWorkload,
    OpGraph,
    ViTConfig,
    build_vit_graph,
    pack_a_panels,
    pack_b_panels,
)
from repro.workloads.ops import GemmOp, NonGemmOp


class TestOps:
    def test_validation(self):
        with pytest.raises(ValueError):
            GemmOp("bad", (), (), m=0, k=1, n=1)
        with pytest.raises(ValueError):
            NonGemmOp("bad", (), (), op_type="add", elements=0)

    def test_graph_tensor_tracking(self):
        graph = OpGraph("g")
        graph.add_tensor("x", 1024)
        with pytest.raises(ValueError):
            graph.add_tensor("x", 2048)  # size conflict
        with pytest.raises(ValueError):
            graph.add(GemmOp("op", ("missing",), ("x",), m=1, k=1, n=1))


class TestPacking:
    def test_pack_a_round_trip_via_layout(self):
        a = np.arange(32 * 8, dtype=np.int32).reshape(32, 8)
        packed = pack_a_panels(a, tile=16)
        # Panel 0 = rows 0..15 in row-major order.
        panel0 = packed.view(np.int32)[: 16 * 8].reshape(16, 8)
        np.testing.assert_array_equal(panel0, a[:16])

    def test_pack_a_pads_ragged(self):
        a = np.ones((20, 4), dtype=np.int32)
        packed = pack_a_panels(a, tile=16)
        assert packed.view(np.int32).size == 32 * 4
        tail = packed.view(np.int32)[20 * 4:]
        assert not tail.any()

    def test_pack_b_panel_layout(self):
        b = np.arange(8 * 32, dtype=np.int32).reshape(8, 32)
        packed = pack_b_panels(b, tile=16)
        # Panel 1 = columns 16..31, row-major inside the panel.
        panel1 = packed.view(np.int32)[8 * 16:].reshape(8, 16)
        np.testing.assert_array_equal(panel1, b[:, 16:])

    @settings(max_examples=20)
    @given(
        m=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=20),
    )
    def test_pack_a_size_property(self, m, k):
        a = np.ones((m, k), dtype=np.int32)
        packed = pack_a_panels(a, tile=16)
        padded_m = -(-m // 16) * 16
        assert packed.size == padded_m * k * 4


class TestGemmWorkload:
    def test_reproducible(self):
        w = GemmWorkload(32, 32, 32, seed=5)
        a1, b1 = w.generate()
        a2, b2 = w.generate()
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_reference_result(self):
        w = GemmWorkload(16, 16, 16)
        a, b = w.generate()
        np.testing.assert_array_equal(w.reference(a, b), a @ b)

    def test_buffer_sizes_padded(self):
        w = GemmWorkload(20, 32, 40)
        assert w.a_bytes == 32 * 32 * 4
        assert w.b_bytes == 32 * 48 * 4
        assert w.c_bytes == 32 * 48 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            GemmWorkload(0, 1, 1)


class TestViT:
    def test_paper_variants(self):
        assert VIT_VARIANTS["base"].hidden == 768
        assert VIT_VARIANTS["large"].hidden == 1024
        assert VIT_VARIANTS["huge"].hidden == 1280
        assert VIT_VARIANTS["base"].heads == 12
        assert VIT_VARIANTS["large"].heads == 16

    def test_seq_len(self):
        # 224/16 = 14 -> 196 patches + CLS.
        assert VIT_VARIANTS["base"].seq_len == 197

    def test_graph_op_counts(self):
        config = VIT_VARIANTS["base"]
        graph = build_vit_graph(config)
        # Per layer: 6 GEMM (qkv, qk, av, proj, fc1, fc2) + 6 non-GEMM;
        # plus embed/head GEMMs and patchify/ln_f/pool non-GEMMs.
        kinds = [type(op) for op in graph.ops]
        assert kinds.count(GemmOp) == config.layers * 6 + 2
        assert kinds.count(NonGemmOp) == config.layers * 6 + 3

    def test_attention_shapes(self):
        graph = build_vit_graph(VIT_VARIANTS["base"])
        qk = next(op for op in graph.ops if op.name == "l0.qk")
        assert (qk.m, qk.k, qk.n) == (197, 64, 197)
        assert qk.batch == 12

    def test_hidden_must_divide_heads(self):
        with pytest.raises(ValueError):
            ViTConfig("bad", hidden=100, layers=1, heads=12)

    def test_image_patch_divisibility(self):
        with pytest.raises(ValueError):
            ViTConfig("bad", hidden=96, layers=1, heads=12, image_size=225)

    def test_custom_tiny_model(self):
        tiny = ViTConfig("tiny", hidden=64, layers=2, heads=4,
                         image_size=64, patch_size=16)
        graph = build_vit_graph(tiny)
        assert tiny.seq_len == 17
        assert any(isinstance(op, GemmOp) for op in graph.ops)
