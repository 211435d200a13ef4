"""DRAM technology presets.

The five rows of Table III in the paper, plus the GDDR5 and LPDDR5 devices
used by the Fig. 5 memory-location study.  Bandwidths reproduce the table
exactly:

=========  ========  ===========  ===========  ==========
Device     Channels  Data width   Bandwidth    Data rate
=========  ========  ===========  ===========  ==========
DDR3       1         64           12.8 GB/s    1600 MT/s
DDR4       1         64           19.2 GB/s    2400 MT/s
DDR5       2         32           25.6 GB/s    3200 MT/s
HBM2       2         128          64 GB/s      2000 MT/s
GDDR6      2         64           32 GB/s      2000 MT/s
=========  ========  ===========  ===========  ==========

Core timings are representative datasheet values; the experiments depend on
the bandwidth ordering and the latency class, not on vendor-exact nanosecond
figures.
"""

from __future__ import annotations

from typing import Dict

from repro.memory.dram.timings import DRAMTimings

DDR3_1600 = DRAMTimings(
    name="DDR3-1600",
    data_rate_mts=1600,
    channels=1,
    data_width_bits=64,
    burst_length=8,
    banks=8,
    row_buffer_bytes=8192,
    t_cl=13.75,
    t_rcd=13.75,
    t_rp=13.75,
    t_ras=35.0,
    t_rfc=260.0,
    t_refi=7800.0,
)

DDR4_2400 = DRAMTimings(
    name="DDR4-2400",
    data_rate_mts=2400,
    channels=1,
    data_width_bits=64,
    burst_length=8,
    banks=16,
    row_buffer_bytes=8192,
    t_cl=14.16,
    t_rcd=14.16,
    t_rp=14.16,
    t_ras=32.0,
    t_rfc=350.0,
    t_refi=7800.0,
)

DDR5_3200 = DRAMTimings(
    name="DDR5-3200",
    data_rate_mts=3200,
    channels=2,
    data_width_bits=32,
    burst_length=16,
    banks=32,
    row_buffer_bytes=8192,
    t_cl=15.0,
    t_rcd=15.0,
    t_rp=15.0,
    t_ras=32.0,
    t_rfc=295.0,
    t_refi=3900.0,
)

HBM2 = DRAMTimings(
    name="HBM2",
    data_rate_mts=2000,
    channels=2,
    data_width_bits=128,
    burst_length=4,
    banks=16,
    row_buffer_bytes=2048,
    t_cl=14.0,
    t_rcd=14.0,
    t_rp=14.0,
    t_ras=33.0,
    t_rfc=260.0,
    t_refi=3900.0,
)

GDDR6 = DRAMTimings(
    name="GDDR6",
    data_rate_mts=2000,
    channels=2,
    data_width_bits=64,
    burst_length=16,
    banks=16,
    row_buffer_bytes=2048,
    t_cl=15.0,
    t_rcd=15.0,
    t_rp=15.0,
    t_ras=32.0,
    t_rfc=260.0,
    t_refi=3900.0,
)

GDDR5 = DRAMTimings(
    name="GDDR5",
    data_rate_mts=1750,
    channels=2,
    data_width_bits=64,
    burst_length=8,
    banks=16,
    row_buffer_bytes=2048,
    t_cl=15.0,
    t_rcd=15.0,
    t_rp=15.0,
    t_ras=32.0,
    t_rfc=260.0,
    t_refi=3900.0,
)

LPDDR5 = DRAMTimings(
    name="LPDDR5",
    data_rate_mts=3200,
    channels=2,
    data_width_bits=32,
    burst_length=16,
    banks=16,
    row_buffer_bytes=4096,
    t_cl=18.0,
    t_rcd=18.0,
    t_rp=21.0,
    t_ras=42.0,
    t_rfc=280.0,
    t_refi=3900.0,
)

#: Name -> preset registry used by configs and the CLI examples.
MEMORY_PRESETS: Dict[str, DRAMTimings] = {
    preset.name: preset
    for preset in (DDR3_1600, DDR4_2400, DDR5_3200, HBM2, GDDR6, GDDR5, LPDDR5)
}
