"""Integration tests for the ViT runner."""

import pytest

from repro import SystemConfig, run_vit
from repro.core.runner import _resolve_model
from repro.sweep import apply_overrides
from repro.workloads import ViTConfig

#: A miniature model that keeps test runtimes small but exercises every
#: operator class.
TINY = ViTConfig("tiny", hidden=64, layers=2, heads=4,
                 image_size=64, patch_size=16)


class TestViTRunner:
    def test_runs_to_completion(self):
        result = run_vit(SystemConfig.pcie_2gb(), TINY)
        assert result.total_ticks > 0
        assert result.gemm_ticks > 0
        assert result.nongemm_ticks > 0

    def test_memoization_hits(self):
        result = run_vit(SystemConfig.pcie_2gb(), TINY, memoize=True)
        # Layer 1 repeats every layer-0 shape.
        assert result.memo_hits > 0

    def test_memoization_preserves_totals(self):
        memo = run_vit(SystemConfig.pcie_2gb(), TINY, memoize=True)
        full = run_vit(SystemConfig.pcie_2gb(), TINY, memoize=False)
        # Memoized replay should match the fully simulated run closely
        # (state differences across layers are second-order).
        assert memo.total_ticks == pytest.approx(full.total_ticks, rel=0.1)

    def test_devmem_hurts_nongemm(self):
        """Fig. 8: non-GEMM ops are much slower with device-side data."""
        host = run_vit(SystemConfig.pcie_64gb(), TINY)
        dev = run_vit(SystemConfig.devmem_system(), TINY)
        assert dev.nongemm_ticks > 2 * host.nongemm_ticks

    def test_devmem_helps_gemm_vs_slow_pcie(self):
        host = run_vit(SystemConfig.pcie_2gb(), TINY)
        dev = run_vit(SystemConfig.devmem_system(), TINY)
        assert dev.gemm_ticks < host.gemm_ticks

    def test_pcie_bandwidth_ordering_on_vit(self):
        t2 = run_vit(SystemConfig.pcie_2gb(), TINY).total_ticks
        t64 = run_vit(SystemConfig.pcie_64gb(), TINY).total_ticks
        assert t64 < t2

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_vit(SystemConfig.pcie_2gb(), "gigantic")

    def test_dim_scale(self):
        scaled = run_vit(SystemConfig.pcie_2gb(), "base", dim_scale=0.125)
        assert "x0.125" in scaled.model_name
        assert scaled.total_ticks > 0

    @pytest.mark.parametrize("dim_scale", [0, -1, float("nan"),
                                           float("inf")])
    def test_nonpositive_or_nonfinite_dim_scale_rejected(self, dim_scale):
        # Without the check these scales clamp to a heads-wide model that
        # still carries the requested name.
        with pytest.raises(ValueError, match="dim_scale"):
            _resolve_model("base", dim_scale)

    def test_bad_dim_scale_fails_at_spec_build(self):
        with pytest.raises(ValueError, match="dim_scale"):
            apply_overrides("fig7-transformer", {"dim_scale": 0})

    def test_op_ticks_recorded(self):
        result = run_vit(SystemConfig.pcie_2gb(), TINY)
        assert "l0.qkv" in result.op_ticks
        assert "l0.softmax" in result.op_ticks
        assert result.op_ticks["l0.qkv"] > 0

    def test_nongemm_fraction_property(self):
        result = run_vit(SystemConfig.pcie_2gb(), TINY)
        assert 0 < result.nongemm_fraction < 1
