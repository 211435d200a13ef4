"""Byte and busy-time accounting of every PCIe link after a simulated point.

For each fault-free point of the GEMM sweeps whose time the declared
benchmark spends on PCIe (``fig5-memory``, ``packet-size``) and of the
switched-fabric contention sweep (``topo-contention``), at the smallest
size the suite builds them with, every flat channel and switch link must
satisfy:

* ``wire_bytes == payload_bytes + tlps * header_bytes`` -- each TLP pays
  one header, and nothing else reaches the wire;
* ``busy_ticks <= ticks`` -- a wire is never more than fully utilized;
* on host-memory points, the root complex's upstream link carries at
  least the bytes the DMA engines wrote to the host, and its downstream
  link at least the bytes they read.
"""

import pytest

from repro.core.runner import GemmRunner, MultiGemmRunner
from repro.core.system import AcceSysSystem
from repro.sweep.spec import build_sweep

#: (sweep, factory kwargs, the runner's ``drive``).
SWEEPS = {
    "fig5-memory": ({"size": 16}, GemmRunner),
    "packet-size": ({"size": 16}, GemmRunner),
    "topo-contention": ({"size": 32}, MultiGemmRunner),
}

CASES = [
    (sweep, point)
    for sweep, (kwargs, _runner) in SWEEPS.items()
    for point in build_sweep(sweep, **kwargs).points
]


@pytest.mark.parametrize(
    "sweep, point", CASES,
    ids=[f"{sweep}-{point.key}" for sweep, point in CASES],
)
def test_link_accounting(sweep, point):
    assert point.config.faults is None
    system = AcceSysSystem(point.config)
    SWEEPS[sweep][1]().drive(system, **point.params)
    ticks = system.now
    assert ticks > 0

    links = system.fabric.links()
    assert sum(link.stats["tlps"].value for link in links) > 0
    for link in links:
        value = {name: link.stats[name].value for name in
                 ("tlps", "payload_bytes", "wire_bytes", "busy_ticks")}
        header = link.config.tlp.header_bytes
        assert value["wire_bytes"] == (
            value["payload_bytes"] + value["tlps"] * header
        ), link.name
        assert 0 <= value["busy_ticks"] <= ticks, link.name

    if not point.config.uses_device_memory:
        written = sum(w.dma.stats["bytes_written"].value
                      for w in system.wrappers)
        read = sum(w.dma.stats["bytes_read"].value for w in system.wrappers)
        assert written > 0 and read > 0
        assert system.fabric.up.stats["payload_bytes"].value >= written
        assert system.fabric.down.stats["payload_bytes"].value >= read
