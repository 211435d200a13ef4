"""Declarative PCIe topology descriptions.

A topology names the shape of the interconnect tree of Fig. 1 when more
than one endpoint shares it: the root complex at the top, one or more
tiers of N-port switches below it, and accelerator endpoints at the
leaves.  Descriptions are frozen dataclasses of tuples and scalars, so
they canonicalize through :func:`repro.core.config.canonical_value` and
participate in ``SystemConfig.stable_hash()`` -- the sweep result cache
distinguishes otherwise-identical systems by topology for free.

The description layer is pure data: no simulator objects, no timing.
:func:`repro.topology.fabric.SwitchedPCIeFabric` *compiles* a
description into arbitrated link segments and routing tables.

Builders cover the common shapes::

    flat_topology(4)          # one switch, four endpoints
    tiered_topology(4, 2)     # a chain of two switch tiers above them

Nesting by hand is just data::

    TopologyDesc(root=SwitchDesc(children=(
        EndpointDesc(name="cam0"),
        SwitchDesc(children=(EndpointDesc(), EndpointDesc())),
    )))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple, Union


@dataclass(frozen=True)
class EndpointDesc:
    """One accelerator endpoint slot (a leaf of the topology tree)."""

    name: str = ""


@dataclass(frozen=True)
class SwitchDesc:
    """An N-port switch; children are endpoints or further switches.

    ``latency``/``tlp_occupancy`` override the hierarchy-wide values of
    :class:`~repro.interconnect.pcie.link.PCIeConfig` (``switch_latency``
    / ``switch_tlp_occupancy``) for this switch only, in ticks; ``None``
    inherits.
    """

    children: Tuple[Union["SwitchDesc", EndpointDesc], ...] = field(
        default_factory=tuple
    )
    latency: int | None = None
    tlp_occupancy: int | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("a switch needs at least one downstream port")
        for child in self.children:
            if not isinstance(child, (SwitchDesc, EndpointDesc)):
                raise TypeError(
                    f"switch children must be SwitchDesc or EndpointDesc, "
                    f"got {type(child).__name__}"
                )


#: A topology tree node.
NodeDesc = Union[SwitchDesc, EndpointDesc]


@dataclass(frozen=True)
class TopologyDesc:
    """A full interconnect tree: ``root`` attaches to the root complex."""

    root: NodeDesc = field(default_factory=EndpointDesc)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def endpoints(self) -> List[EndpointDesc]:
        """Every endpoint in deterministic depth-first order.

        The position in this list is the endpoint's *index*: the system
        binds accelerator ``i`` to ``endpoints()[i]``.
        """
        return list(_walk_endpoints(self.root))

    @property
    def num_endpoints(self) -> int:
        return sum(1 for _ in _walk_endpoints(self.root))

    @property
    def num_switches(self) -> int:
        return sum(1 for node in _walk_nodes(self.root)
                   if isinstance(node, SwitchDesc))

    @property
    def depth(self) -> int:
        """Number of switch tiers on the deepest endpoint's path."""
        return _depth(self.root)

    def endpoint_depths(self) -> Tuple[int, ...]:
        """Switch hops between each endpoint and the root complex.

        Entry ``i`` corresponds to ``endpoints()[i]``.  An endpoint
        attached directly to the root complex has depth 0.  This is the
        fabric-description introspection the analytical surrogate tier
        uses to price per-hop latency without compiling the fabric.
        """
        return tuple(_endpoint_depths(self.root, 0))

    def describe(self) -> str:
        return (
            f"topology: {self.num_endpoints} endpoint(s), "
            f"{self.num_switches} switch(es), depth {self.depth}"
        )


def _walk_nodes(node: NodeDesc) -> Iterator[NodeDesc]:
    yield node
    if isinstance(node, SwitchDesc):
        for child in node.children:
            yield from _walk_nodes(child)


def _walk_endpoints(node: NodeDesc) -> Iterator[EndpointDesc]:
    for item in _walk_nodes(node):
        if isinstance(item, EndpointDesc):
            yield item


def _depth(node: NodeDesc) -> int:
    if isinstance(node, EndpointDesc):
        return 0
    return 1 + max(_depth(child) for child in node.children)


def _endpoint_depths(node: NodeDesc, depth: int) -> Iterator[int]:
    if isinstance(node, EndpointDesc):
        yield depth
    else:
        for child in node.children:
            yield from _endpoint_depths(child, depth + 1)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def flat_topology(num_endpoints: int) -> TopologyDesc:
    """One switch with ``num_endpoints`` endpoints behind it.

    This is the default multi-accelerator shape: every device contends
    for the switch's single upstream link to the root complex.
    """
    if num_endpoints < 1:
        raise ValueError(f"need at least one endpoint, got {num_endpoints}")
    return TopologyDesc(
        root=SwitchDesc(
            children=tuple(EndpointDesc() for _ in range(num_endpoints))
        )
    )


def tiered_topology(num_endpoints: int, depth: int) -> TopologyDesc:
    """``depth`` chained switch tiers with all endpoints below the last.

    Each extra tier adds one store-and-forward switch hop to every
    path -- the knob behind the ``topo-switch-depth`` experiment.
    """
    if num_endpoints < 1:
        raise ValueError(f"need at least one endpoint, got {num_endpoints}")
    if depth < 1:
        raise ValueError(f"need at least one switch tier, got {depth}")
    node: NodeDesc = SwitchDesc(
        children=tuple(EndpointDesc() for _ in range(num_endpoints))
    )
    for _tier in range(depth - 1):
        node = SwitchDesc(children=(node,))
    return TopologyDesc(root=node)
