"""DRAM energy accounting.

The paper's memory backends (DRAMsim3, Ramulator) report power as well as
timing; this module provides the equivalent: an event-energy model in the
style of Micron's DDR power calculator.  Energy is integrated from the
controller's event counters:

* one activate/precharge pair per row miss (``e_act_pj``),
* read/write burst energy per byte moved (``e_rd_pj_per_byte`` /
  ``e_wr_pj_per_byte``),
* refresh energy per REF command (``e_ref_pj``),
* background power per channel for the whole elapsed window
  (``p_background_mw``).

Per-technology coefficients are representative datasheet-derived values;
as with the timing presets, the experiments depend on relative ordering
(HBM spends less energy per bit than DDR at the same traffic), not on
vendor-exact picojoules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.ticks import TICKS_PER_SEC


@dataclass(frozen=True)
class DRAMEnergyParams:
    """Event-energy coefficients for one technology."""

    e_act_pj: float = 900.0
    e_rd_pj_per_byte: float = 15.0
    e_wr_pj_per_byte: float = 16.0
    e_ref_pj: float = 25000.0
    p_background_mw: float = 100.0

    def __post_init__(self) -> None:
        if min(self.e_act_pj, self.e_rd_pj_per_byte,
               self.e_wr_pj_per_byte, self.e_ref_pj,
               self.p_background_mw) < 0:
            raise ValueError("energy coefficients must be non-negative")


#: Representative coefficients by technology family name prefix.
ENERGY_PRESETS: Dict[str, DRAMEnergyParams] = {
    "DDR3": DRAMEnergyParams(e_act_pj=1200.0, e_rd_pj_per_byte=22.0,
                             e_wr_pj_per_byte=24.0, p_background_mw=120.0),
    "DDR4": DRAMEnergyParams(e_act_pj=1000.0, e_rd_pj_per_byte=16.0,
                             e_wr_pj_per_byte=18.0, p_background_mw=100.0),
    "DDR5": DRAMEnergyParams(e_act_pj=900.0, e_rd_pj_per_byte=12.0,
                             e_wr_pj_per_byte=14.0, p_background_mw=110.0),
    "HBM2": DRAMEnergyParams(e_act_pj=700.0, e_rd_pj_per_byte=6.0,
                             e_wr_pj_per_byte=7.0, p_background_mw=180.0),
    "GDDR": DRAMEnergyParams(e_act_pj=850.0, e_rd_pj_per_byte=11.0,
                             e_wr_pj_per_byte=12.0, p_background_mw=150.0),
    "LPDDR": DRAMEnergyParams(e_act_pj=800.0, e_rd_pj_per_byte=8.0,
                              e_wr_pj_per_byte=9.0, p_background_mw=40.0),
}


def energy_params_for(device_name: str) -> DRAMEnergyParams:
    """Coefficients for a device by Table III name (prefix match)."""
    for prefix, params in ENERGY_PRESETS.items():
        if device_name.upper().startswith(prefix):
            return params
    return DRAMEnergyParams()


@dataclass
class EnergyReport:
    """Integrated energy for one run window."""

    activate_nj: float
    read_nj: float
    write_nj: float
    refresh_nj: float
    background_nj: float

    @property
    def dynamic_nj(self) -> float:
        return self.activate_nj + self.read_nj + self.write_nj + self.refresh_nj

    @property
    def total_nj(self) -> float:
        return self.dynamic_nj + self.background_nj

    def energy_per_bit_pj(self, bytes_moved: int) -> float:
        """Total energy per transferred bit in picojoules."""
        if bytes_moved <= 0:
            return 0.0
        return self.total_nj * 1000.0 / (bytes_moved * 8)


def integrate_energy(
    params: DRAMEnergyParams,
    activates: float,
    bytes_read: float,
    bytes_written: float,
    refreshes: float,
    channels: int,
    elapsed_ticks: int,
) -> EnergyReport:
    """Fold event counters into an :class:`EnergyReport` (nanojoules)."""
    seconds = elapsed_ticks / TICKS_PER_SEC
    background_nj = params.p_background_mw * 1e-3 * channels * seconds * 1e9
    return EnergyReport(
        activate_nj=activates * params.e_act_pj * 1e-3,
        read_nj=bytes_read * params.e_rd_pj_per_byte * 1e-3,
        write_nj=bytes_written * params.e_wr_pj_per_byte * 1e-3,
        refresh_nj=refreshes * params.e_ref_pj * 1e-3,
        background_nj=background_nj,
    )
