"""Tests for the roofline sweep and the GEMM/non-GEMM trade-off model."""

import pytest

from repro import SystemConfig, find_crossover, roofline_sweep
from repro.core.analytical import TradeoffModel
from repro.core.roofline import RooflinePoint
from repro.sim.ticks import ns, us


class TestRoofline:
    def test_sweep_produces_both_regimes(self):
        config = SystemConfig.pcie_8gb()
        points = roofline_sweep(
            config, 64, [ns(100), us(1), us(4), us(16), us(64), us(256)]
        )
        assert len(points) == 6
        # Fast compute -> memory bound (flat); slow compute -> compute
        # bound (execution tracks compute).
        fastest = min(points, key=lambda p: p.compute_ticks)
        slowest = max(points, key=lambda p: p.compute_ticks)
        assert slowest.exec_ticks > 2 * fastest.exec_ticks
        assert slowest.normalized == 1.0

    def test_crossover_found(self):
        config = SystemConfig.pcie_8gb()
        sweep = [ns(100), ns(500), us(2), us(8), us(32), us(128), us(512)]
        points = roofline_sweep(config, 64, sweep)
        crossover = find_crossover(points)
        assert crossover is not None
        assert ns(100) <= crossover < us(512)

    def test_crossover_none_when_flat(self):
        points = [
            RooflinePoint(ns(t), 1000, 1.0) for t in (1, 2, 3)
        ]
        assert find_crossover(points) is None

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            roofline_sweep(SystemConfig.pcie_8gb(), 64, [])


class TestTradeoffModel:
    def test_endpoints(self):
        model = TradeoffModel("x", gemm_unit_time=10.0, nongemm_unit_time=30.0,
                              t_other=5.0)
        assert model.overall_time(0.0) == 15.0   # all GEMM
        assert model.overall_time(1.0) == 35.0   # all non-GEMM
        assert model.overall_time(0.5) == 25.0

    def test_fraction_bounds(self):
        model = TradeoffModel("x", 1.0, 1.0)
        with pytest.raises(ValueError):
            model.overall_time(-0.1)
        with pytest.raises(ValueError):
            model.overall_time(1.1)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            TradeoffModel("x", -1.0, 1.0)
        with pytest.raises(ValueError):
            TradeoffModel("x", 1.0, 1.0, t_other=-0.5)

    def test_non_finite_times_rejected(self):
        with pytest.raises(ValueError):
            TradeoffModel("x", float("nan"), 1.0)
        with pytest.raises(ValueError):
            TradeoffModel("x", 1.0, float("inf"))
        with pytest.raises(ValueError):
            TradeoffModel("x", 1.0, 1.0, t_other=float("nan"))

    def test_from_measured_validates_and_coerces(self):
        model = TradeoffModel.from_measured("x", 10, 20, other_ticks=5)
        assert isinstance(model.gemm_unit_time, float)
        assert model.overall_time(0.0) == 15.0
        with pytest.raises(ValueError):
            TradeoffModel.from_measured("x", float("nan"), 20)
        with pytest.raises(ValueError):
            TradeoffModel.from_measured("x", 10, -20)
        with pytest.raises(ValueError):
            TradeoffModel.from_measured("x", 10, 20, other_ticks=-1)

    def test_degenerate_all_gemm_workload(self):
        """A workload with no non-GEMM share only sees gemm_unit_time."""
        fast_gemm = TradeoffModel("a", 1.0, 100.0, t_other=2.0)
        slow_gemm = TradeoffModel("b", 5.0, 0.0, t_other=2.0)
        assert fast_gemm.overall_time(0.0) == 3.0
        assert slow_gemm.overall_time(0.0) == 7.0
        # At the all-GEMM endpoint the non-GEMM columns are irrelevant.
        zero_ng = TradeoffModel("c", 1.0, 0.0, t_other=2.0)
        assert fast_gemm.overall_time(0.0) == zero_ng.overall_time(0.0)

    def test_degenerate_all_nongemm_workload(self):
        model = TradeoffModel("x", gemm_unit_time=0.0, nongemm_unit_time=4.0)
        assert model.overall_time(1.0) == 4.0
        assert model.overall_time(0.0) == 0.0

    def test_sweep_is_linear(self):
        model = TradeoffModel("x", 10.0, 20.0)
        samples = model.sweep(steps=11)
        assert len(samples) == 11
        deltas = [
            b[1] - a[1] for a, b in zip(samples, samples[1:])
        ]
        assert all(d == pytest.approx(deltas[0]) for d in deltas)

