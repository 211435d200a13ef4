"""Unit tests for the DRAM energy model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.addr_range import AddrRange
from repro.memory.dram import DRAMController
from repro.memory.dram.devices import DDR3_1600, DDR4_2400, HBM2
from repro.memory.dram.energy import (
    ENERGY_PRESETS,
    DRAMEnergyParams,
    EnergyReport,
    energy_params_for,
    integrate_energy,
)
from repro.sim.eventq import Simulator
from repro.sim.ticks import ns, us
from repro.sim.transaction import Transaction


class TestParams:
    def test_lookup_by_prefix(self):
        assert energy_params_for("DDR4-2400") is ENERGY_PRESETS["DDR4"]
        assert energy_params_for("HBM2") is ENERGY_PRESETS["HBM2"]
        assert energy_params_for("GDDR5") is ENERGY_PRESETS["GDDR"]

    def test_unknown_gets_defaults(self):
        params = energy_params_for("FeRAM-9000")
        assert isinstance(params, DRAMEnergyParams)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DRAMEnergyParams(e_act_pj=-1)

    def test_hbm_cheaper_per_byte_than_ddr3(self):
        assert (
            ENERGY_PRESETS["HBM2"].e_rd_pj_per_byte
            < ENERGY_PRESETS["DDR3"].e_rd_pj_per_byte
        )


class TestIntegration:
    def test_component_arithmetic(self):
        params = DRAMEnergyParams(
            e_act_pj=1000.0, e_rd_pj_per_byte=10.0,
            e_wr_pj_per_byte=20.0, e_ref_pj=5000.0, p_background_mw=100.0,
        )
        report = integrate_energy(
            params, activates=10, bytes_read=100, bytes_written=50,
            refreshes=2, channels=1, elapsed_ticks=us(1),
        )
        assert report.activate_nj == pytest.approx(10.0)
        assert report.read_nj == pytest.approx(1.0)
        assert report.write_nj == pytest.approx(1.0)
        assert report.refresh_nj == pytest.approx(10.0)
        # 100 mW for 1 us = 100 nJ.
        assert report.background_nj == pytest.approx(100.0)
        assert report.total_nj == pytest.approx(122.0)

    def test_energy_per_bit(self):
        report = EnergyReport(0, 800.0, 0, 0, 0)
        # 800 nJ over 100 bytes = 1000 pJ/bit.
        assert report.energy_per_bit_pj(100) == pytest.approx(1000.0)

    def test_degenerate_inputs(self):
        report = EnergyReport(0, 0, 0, 0, 0)
        assert report.energy_per_bit_pj(0) == 0.0


class TestControllerEnergy:
    def stream(self, timings, nbytes):
        sim = Simulator()
        ctrl = DRAMController(sim, "dram", timings, AddrRange(0, 1 << 24))
        addr = 0
        while addr < nbytes:
            ctrl.send(Transaction.read(addr, 4096), lambda t: None)
            addr += 4096
        sim.run()
        return ctrl, sim.now

    def test_energy_grows_with_traffic(self):
        ctrl_small, t_small = self.stream(DDR4_2400, 64 * 1024)
        ctrl_large, t_large = self.stream(DDR4_2400, 1 << 20)
        small = ctrl_small.energy_report(t_small)
        large = ctrl_large.energy_report(t_large)
        assert large.dynamic_nj > small.dynamic_nj

    def test_hbm_more_efficient_per_bit(self):
        nbytes = 1 << 20
        ctrl_ddr3, t_a = self.stream(DDR3_1600, nbytes)
        ctrl_hbm, t_b = self.stream(HBM2, nbytes)
        ddr3 = ctrl_ddr3.energy_report(t_a).energy_per_bit_pj(nbytes)
        hbm = ctrl_hbm.energy_report(t_b).energy_per_bit_pj(nbytes)
        assert hbm < ddr3

    def test_refresh_energy_counted(self):
        ctrl, now = self.stream(DDR4_2400, 1 << 20)
        # Push the clock past several refresh intervals.
        later = now + 100 * ns(DDR4_2400.t_refi)
        report = ctrl.energy_report(later)
        assert report.refresh_nj > 0

    @settings(max_examples=15, deadline=None)
    @given(kb=st.integers(min_value=16, max_value=512))
    def test_total_is_sum_of_parts(self, kb):
        ctrl, now = self.stream(DDR4_2400, kb * 1024)
        report = ctrl.energy_report(now)
        assert report.total_nj == pytest.approx(
            report.activate_nj + report.read_nj + report.write_nj
            + report.refresh_nj + report.background_nj
        )
