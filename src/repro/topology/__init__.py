"""Multi-accelerator interconnect topologies.

Declarative descriptions (:mod:`repro.topology.description`) compile
into a simulated switch fabric (:mod:`repro.topology.fabric`): shared
upstream links with round-robin arbitration, store-and-forward TLP
occupancy per tier, address-based routing, and peer-to-peer transfers
that never touch the root complex.  See docs/TOPOLOGY.md.
"""

from repro.topology.description import (
    EndpointDesc,
    NodeDesc,
    SwitchDesc,
    TopologyDesc,
    flat_topology,
    tiered_topology,
)
from repro.topology.fabric import SwitchedPCIeFabric, SwitchLink

__all__ = [
    "EndpointDesc",
    "NodeDesc",
    "SwitchDesc",
    "TopologyDesc",
    "flat_topology",
    "tiered_topology",
    "SwitchedPCIeFabric",
    "SwitchLink",
]
