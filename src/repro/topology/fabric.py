"""The compiled switch fabric: arbitrated links, routing, peer-to-peer.

:class:`SwitchedPCIeFabric` compiles a
:class:`~repro.topology.description.TopologyDesc` into simulated
hardware.  Every *wire* of the topology tree becomes a pair of
directional :class:`SwitchLink` segments:

* the **up** link of a node carries everything its subtree sends toward
  the root; its arbitration ports are the node's downstream ports, served
  **round-robin** -- this is the shared upstream link where endpoint
  scaling saturates,
* the **down** link of a node is the private wire its parent uses to
  reach it (FIFO).

Each segment is **store-and-forward**: a TLP train occupies the wire for
its serialization time (or the hop's per-TLP processing bound, whichever
is slower, with the oversized-packet buffer stall of the flat model) and
the head of the train is delayed by the receiving component's traversal
latency.  Hop costs are charged exactly once per store-and-forward
component: the root complex on the top wire, each switch tier on the
wire entering it.

Routing is address-based: endpoint BAR windows registered via
:meth:`SwitchedPCIeFabric.register_endpoint_window` form the routing
table.  A device-initiated transaction whose address lands in a *peer's*
window travels endpoint -> switch -> endpoint through the lowest common
ancestor switch without touching the root complex (peer-to-peer DMA);
everything else climbs to the root complex and the host memory system.

The single-endpoint, zero-tier degenerate case is handled by the classic
:class:`~repro.interconnect.pcie.fabric.PCIeFabric` (bit-identical to
the flat model, pinned by the golden tests); the system only compiles a
switched fabric when the topology actually has structure.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.interconnect.pcie.fabric import require_host_target
from repro.interconnect.pcie.link import PCIeConfig, TrainMemo
from repro.memory.addr_range import AddrRange
from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.simobject import SimObject
from repro.sim.transaction import Transaction
from repro.topology.description import (
    EndpointDesc,
    NodeDesc,
    SwitchDesc,
    TopologyDesc,
)

#: A compiled route: ``(link, arbitration port, skip_hop)`` segments in
#: traversal order.  ``skip_hop`` marks a wire whose receiving component's
#: traversal was already charged on the previous segment (the turn-around
#: switch of a peer route): the wire still serializes, but the hop
#: latency/occupancy is not paid twice.
Route = Tuple[Tuple["SwitchLink", int, bool], ...]


class SwitchLink(SimObject):
    """One direction of a topology wire with round-robin arbitration.

    ``num_ports`` input queues feed a single wire.  A queued TLP train is
    *granted* the wire round-robin across non-empty ports; it then holds
    the wire for its occupancy (serialization, or the hop's per-TLP
    processing bound) and arrives ``hop_latency`` plus one TLP
    store-and-forward fill later.  Arrivals are FIFO (PCIe ordering: no
    overtaking within a virtual channel).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: PCIeConfig,
        num_ports: int = 1,
        hop_latency: int = 0,
        tlp_occupancy: int = 0,
    ) -> None:
        super().__init__(sim, name)
        if num_ports < 1:
            raise ValueError(f"{name}: need at least one port, got {num_ports}")
        self.config = config
        self.num_ports = num_ports
        self._queues: List[deque] = [deque() for _ in range(num_ports)]
        self._pending = 0
        self._rr_next = 0
        self._busy = False
        self._last_arrival = 0
        #: Train timing per shape through this hop, and wire-only (a
        #: ``skip_hop`` train pays serialization and one TLP fill only).
        self._trains = TrainMemo(config, hop_latency, tlp_occupancy, hops=1)
        self._wire_trains = TrainMemo(config, 0, 0, hops=1)
        #: Fault-injection state (:class:`repro.faults.injector
        #: .LinkFaultState`); attached by the system's fault model, None
        #: on every fault-free run.
        self.faults = None
        #: Telemetry hook (:class:`repro.telemetry.tracer.LinkTrace`);
        #: attached by the telemetry runtime, None when tracing is off.
        self.trace = None

        self._tlps = self.stats.scalar("tlps", "TLPs carried")
        self._payload_bytes = self.stats.scalar("payload_bytes", "payload carried")
        self._wire_byte_stat = self.stats.scalar(
            "wire_bytes", "bytes on the wire incl. headers"
        )
        self._busy_ticks = self.stats.scalar("busy_ticks", "wire occupancy")
        self._grants = self.stats.scalar("grants", "TLP trains granted the wire")
        self._wait_ticks = self.stats.scalar(
            "arb_wait_ticks", "time trains waited for a grant"
        )

    def reset_state(self) -> None:
        super().reset_state()
        for queue in self._queues:
            queue.clear()
        self._pending = 0
        self._rr_next = 0
        self._busy = False
        self._last_arrival = 0
        if self.faults is not None:
            self.faults.reset()

    # ------------------------------------------------------------------
    # Submission and arbitration
    # ------------------------------------------------------------------
    def submit(
        self,
        port: int,
        txn: Transaction,
        payload_bytes: int,
        on_arrive: Callable[[Transaction], None],
        force_tlps: int = 0,
        skip_hop: bool = False,
    ) -> None:
        """Queue a TLP train on ``port``; ``on_arrive(txn)`` at the far end.

        ``skip_hop`` submits the train wire-only: the receiving
        component's latency/occupancy was already charged upstream (a
        peer route's turn-around switch traverses once, not twice).
        """
        if not 0 <= port < self.num_ports:
            raise ValueError(
                f"{self.name}: port {port} out of range 0..{self.num_ports - 1}"
            )
        self._queues[port].append(
            (txn, payload_bytes, on_arrive, force_tlps, skip_hop, self.now)
        )
        self._pending += 1
        if not self._busy:
            self._grant()

    def _grant(self) -> None:
        """Put the next train (round-robin across ports) on the wire."""
        queues = self._queues
        index = self._rr_next
        for _step in range(self.num_ports):
            if queues[index]:
                break
            index = index + 1 if index + 1 < self.num_ports else 0
        else:  # pragma: no cover - guarded by _pending bookkeeping
            return
        self._rr_next = index + 1 if index + 1 < self.num_ports else 0
        (txn, payload_bytes, on_arrive, force_tlps, skip_hop,
         queued_at) = queues[index].popleft()
        self._pending -= 1

        trains = self._wire_trains if skip_hop else self._trains
        n_tlps, wire_bytes, occupancy, tlp_fill, fill = (
            trains[txn.packet_size, payload_bytes, force_tlps]
        )

        now = self.now
        if self.faults is not None:
            # The granted train holds the wire through any retrain stall:
            # folding the stall into the occupancy blocks queued trains
            # behind it exactly as a retraining link would.
            stall, occupancy = self.faults.adjust(
                now, occupancy, n_tlps, tlp_fill
            )
            occupancy += stall
        arrival = now + occupancy + fill
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival

        # Batched stat update (equivalent to inc() per counter).
        self._tlps.value += n_tlps
        self._payload_bytes.value += max(0, payload_bytes)
        self._wire_byte_stat.value += wire_bytes
        self._busy_ticks.value += occupancy
        self._grants.value += 1
        self._wait_ticks.value += now - queued_at
        self.stats.dirty = True

        if self.trace is not None:
            self.trace.tlp_train(now, occupancy, n_tlps, payload_bytes)

        self._busy = True
        sim = self.sim
        sim.schedule(occupancy, self._release)
        sim.schedule_at(arrival, lambda: on_arrive(txn))

    def _release(self) -> None:
        self._busy = False
        if self._pending:
            self._grant()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def utilization_window(self) -> float:
        """Busy fraction so far (saturation indicator for reports)."""
        return self._busy_ticks.value / self.now if self.now else 0.0


class _RouteTraversal:
    """One transaction's walk along a compiled route, one wire per hop.

    Each wire calls :meth:`hop` back on arrival and the traversal holds
    no reference to the wires' queues or events, so it is freed by
    reference counting once its last wire delivers (docs/PERFORMANCE.md,
    "Garbage collection").
    """

    __slots__ = ("route", "index", "txn", "payload_bytes", "on_done",
                 "force_tlps")

    def __init__(self, route: Route, txn: Transaction, payload_bytes: int,
                 on_done: Callable[[Transaction], None],
                 force_tlps: int) -> None:
        self.route = route
        self.index = 0
        self.txn = txn
        self.payload_bytes = payload_bytes
        self.on_done = on_done
        self.force_tlps = force_tlps

    def hop(self, _txn: Optional[Transaction] = None) -> None:
        """Submit the train to the next wire of the route."""
        route = self.route
        index = self.index
        link, port, skip_hop = route[index]
        self.index = index + 1
        on_arrive = self.on_done if index + 1 == len(route) else self.hop
        link.submit(port, self.txn, self.payload_bytes, on_arrive,
                    self.force_tlps, skip_hop)


class _Node:
    """Compiled tree node: links plus parent/child bookkeeping."""

    __slots__ = (
        "desc", "parent", "port_in_parent", "children",
        "up_link", "down_link", "endpoint_index",
    )

    def __init__(self, desc: NodeDesc, parent: Optional["_Node"],
                 port_in_parent: int) -> None:
        self.desc = desc
        self.parent = parent
        self.port_in_parent = port_in_parent
        self.children: List[_Node] = []
        self.up_link: Optional[SwitchLink] = None
        self.down_link: Optional[SwitchLink] = None
        self.endpoint_index: Optional[int] = None


class _SwitchedEndpointPort(TargetPort):
    """Adapter: one endpoint's device-initiated traffic onto the fabric."""

    def __init__(self, sim: Simulator, name: str,
                 fabric: "SwitchedPCIeFabric", index: int) -> None:
        super().__init__(sim, name)
        self.fabric = fabric
        self.index = index

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        self.fabric.device_access(txn, on_complete, endpoint=self.index)


class SwitchedPCIeFabric(SimObject):
    """A multi-endpoint PCIe hierarchy compiled from a topology.

    Drop-in for :class:`~repro.interconnect.pcie.fabric.PCIeFabric` --
    same ``device_access`` / ``host_access`` / ``set_host_target``
    protocol, and ``.up`` / ``.down`` expose the root-complex link pair
    so stat collectors work unchanged -- plus per-endpoint entry ports
    and address-routed peer-to-peer transfers.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: PCIeConfig,
        topology: TopologyDesc,
        host_target: Optional[TargetPort] = None,
    ) -> None:
        super().__init__(sim, name)
        self.config = config
        self.topology = topology
        self.host_target = host_target

        self._endpoints: List[_Node] = []
        self._windows: List[Tuple[AddrRange, int, Optional[TargetPort]]] = []
        #: Lowest registered window start: host-bound traffic (IOVAs,
        #: host physical addresses) sits far below the MMIO/devmem
        #: apertures, so the per-segment routing check exits O(1) on the
        #: overwhelmingly common miss.
        self._window_floor = 0
        self._switch_count = 0
        self._top = self._compile(topology.root, parent=None, port=0)
        if not self._endpoints:
            raise ValueError(f"{name}: topology has no endpoints")
        #: Device-side entry ports, one per endpoint (topology DFS order).
        self.endpoint_ports: List[_SwitchedEndpointPort] = [
            _SwitchedEndpointPort(
                sim, f"{name}.ep{i}.port", self, i
            )
            for i in range(len(self._endpoints))
        ]
        self._up_routes = [self._compile_up_route(node)
                           for node in self._endpoints]
        self._down_routes = [self._compile_down_route(node)
                             for node in self._endpoints]
        #: Peer routes are static after compile; built on first use per
        #: (src, dst) pair so the DMA hot path never re-walks the tree.
        self._peer_routes: dict = {}

        self._dev_reads = self.stats.scalar("device_reads", "device-initiated reads")
        self._dev_writes = self.stats.scalar("device_writes", "device-initiated writes")
        self._mmio_ops = self.stats.scalar("mmio_ops", "host-initiated accesses")
        self._p2p_ops = self.stats.scalar("p2p_ops", "peer-to-peer transfers")
        self._p2p_bytes = self.stats.scalar("p2p_bytes", "peer-to-peer payload bytes")

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _hop_cost(self, node: Optional[_Node]) -> Tuple[int, int]:
        """(latency, per-TLP occupancy) of the component above a wire.

        ``None`` means the root complex; a switch node uses its
        description's overrides, falling back to the hierarchy config.
        """
        if node is None:
            return self.config.rc_latency, self.config.rc_tlp_occupancy
        desc = node.desc
        assert isinstance(desc, SwitchDesc)
        latency = (desc.latency if desc.latency is not None
                   else self.config.switch_latency)
        occupancy = (desc.tlp_occupancy if desc.tlp_occupancy is not None
                     else self.config.switch_tlp_occupancy)
        return latency, occupancy

    def _compile(self, desc: NodeDesc, parent: Optional[_Node],
                 port: int) -> _Node:
        node = _Node(desc, parent, port)
        if isinstance(desc, EndpointDesc):
            node.endpoint_index = len(self._endpoints)
            self._endpoints.append(node)
            label = desc.name or f"ep{node.endpoint_index}"
            fan_in = 1
        else:
            label = desc.name or f"sw{self._switch_count}"
            self._switch_count += 1
            fan_in = len(desc.children)
        # The top wire is the root-complex pair the stat collectors see
        # as ``<fabric>.up`` / ``<fabric>.down``.
        prefix = self.name if parent is None else f"{self.name}.{label}"
        upper_latency, upper_occupancy = self._hop_cost(parent)
        node.up_link = SwitchLink(
            self.sim, f"{prefix}.up", self.config,
            num_ports=fan_in,
            hop_latency=upper_latency, tlp_occupancy=upper_occupancy,
        )
        node.down_link = SwitchLink(
            self.sim, f"{prefix}.down", self.config,
            num_ports=1,
            hop_latency=upper_latency, tlp_occupancy=upper_occupancy,
        )
        if isinstance(desc, SwitchDesc):
            for child_port, child in enumerate(desc.children):
                node.children.append(self._compile(child, node, child_port))
        return node

    def _compile_up_route(self, endpoint: _Node) -> Route:
        """Endpoint -> root complex, entering each up link at the port of
        the child the train came from."""
        segments: List[Tuple[SwitchLink, int, bool]] = [
            (endpoint.up_link, 0, False)
        ]
        node = endpoint
        while node.parent is not None:
            segments.append(
                (node.parent.up_link, node.port_in_parent, False)
            )
            node = node.parent
        return tuple(segments)

    def _compile_down_route(self, endpoint: _Node) -> Route:
        """Root complex -> endpoint (private FIFO wires all the way)."""
        chain: List[_Node] = []
        node: Optional[_Node] = endpoint
        while node is not None:
            chain.append(node)
            node = node.parent
        return tuple((hop.down_link, 0, False) for hop in reversed(chain))

    def _peer_route(self, src: int, dst: int) -> Route:
        """src endpoint -> dst endpoint through their lowest common
        ancestor switch, never touching the root complex.

        Routes are static after compile, so they are memoized per
        (src, dst) pair -- the DMA hot path submits one per segment.
        """
        route = self._peer_routes.get((src, dst))
        if route is not None:
            return route
        up = self._up_routes[src]
        down = self._down_routes[dst]
        # Down routes start at the top; find the deepest shared node by
        # trimming the common prefix of the two root paths.
        src_chain = self._root_chain(self._endpoints[src])
        dst_chain = self._root_chain(self._endpoints[dst])
        common = 0
        while (common < len(src_chain) and common < len(dst_chain)
               and src_chain[common] is dst_chain[common]):
            common += 1
        # Climb from src into the common ancestor (its up_link segment is
        # the one whose receiving component *is* the ancestor), then
        # descend the dst-side wires below it.  The first down wire's hop
        # cost *is* the ancestor's traversal, already paid on ingress --
        # the turn-around switch forwards once, so that segment goes out
        # wire-only (skip_hop).
        up_hops = len(src_chain) - common
        down_hops = len(dst_chain) - common
        descent = down[len(down) - down_hops:]
        first_link, first_port, _charge = descent[0]
        route = (up[:up_hops] + ((first_link, first_port, True),)
                 + descent[1:])
        self._peer_routes[(src, dst)] = route
        return route

    @staticmethod
    def _root_chain(endpoint: _Node) -> List[_Node]:
        chain: List[_Node] = []
        node: Optional[_Node] = endpoint
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_host_target(self, target: TargetPort) -> None:
        self.host_target = target

    def _resolved_host_target(self) -> TargetPort:
        return require_host_target(self.name, self.host_target)

    def register_endpoint_window(
        self,
        index: int,
        window: AddrRange,
        target: Optional[TargetPort] = None,
    ) -> None:
        """Add an address window owned by endpoint ``index``.

        ``target`` is where transactions routed *to* the window are
        delivered (peer-to-peer DMA and host MMIO); routing-only windows
        (e.g. a device-memory aperture used for path selection) may omit
        it.
        """
        if not 0 <= index < len(self._endpoints):
            raise ValueError(
                f"{self.name}: endpoint {index} out of range "
                f"0..{len(self._endpoints) - 1}"
            )
        for existing, _owner, _t in self._windows:
            if existing.overlaps(window):
                raise ValueError(
                    f"{self.name}: window {window} overlaps {existing}"
                )
        self._windows.append((window, index, target))
        if len(self._windows) == 1 or window.start < self._window_floor:
            self._window_floor = window.start

    def endpoint_port(self, index: int) -> TargetPort:
        """The device-side entry port of endpoint ``index``."""
        return self.endpoint_ports[index]

    def _window_for(self, addr: int):
        if addr < self._window_floor or not self._windows:
            return None
        for window, owner, target in self._windows:
            if window.contains(addr):
                return window, owner, target
        return None

    # ------------------------------------------------------------------
    # Route traversal
    # ------------------------------------------------------------------
    def _send_route(
        self,
        route: Route,
        txn: Transaction,
        payload_bytes: int,
        on_done: Callable[[Transaction], None],
        force_tlps: int = 0,
    ) -> None:
        if not route:
            on_done(txn)
            return
        _RouteTraversal(route, txn, payload_bytes, on_done, force_tlps).hop()

    def _request_tlps(self, txn: Transaction) -> int:
        packet = txn.packet_size or self.config.tlp.max_payload
        return txn.num_packets(packet)

    # ------------------------------------------------------------------
    # Device-initiated traffic
    # ------------------------------------------------------------------
    def device_access(
        self, txn: Transaction, on_complete: CompletionFn, endpoint: int = 0
    ) -> None:
        """Dispatch a device-initiated transaction from ``endpoint``.

        Peer windows route endpoint -> switch -> endpoint; everything
        else crosses the root complex into the host memory system.
        """
        hit = self._window_for(txn.addr)
        if hit is not None:
            if hit[1] != endpoint:
                self._peer_access(txn, on_complete, endpoint, hit)
                return
            # A loopback would otherwise continue into the host path and
            # surface as an SMMU fault on a BAR address -- far from the
            # actual mistake.
            raise RuntimeError(
                f"{self.name}: endpoint {endpoint} addressed its own "
                f"window {hit[0]} ({txn.addr:#x}); device-local loopback "
                f"is not modeled -- target a peer window or host memory"
            )
        host = self._resolved_host_target()
        if txn.is_read:
            self._dev_reads.inc()

            def request_arrived(_txn: Transaction) -> None:
                host.send(txn, host_done)

            def host_done(_txn: Transaction) -> None:
                self._send_route(
                    self._down_routes[endpoint], txn, txn.size, on_complete
                )

            self._send_route(
                self._up_routes[endpoint], txn, 0, request_arrived,
                force_tlps=self._request_tlps(txn),
            )
        else:
            self._dev_writes.inc()

            def payload_arrived(_txn: Transaction) -> None:
                host.send(txn, on_complete)

            self._send_route(
                self._up_routes[endpoint], txn, txn.size, payload_arrived
            )

    def _peer_access(
        self, txn: Transaction, on_complete: CompletionFn,
        endpoint: int, hit,
    ) -> None:
        window, owner, target = hit
        if target is None:
            raise RuntimeError(
                f"{self.name}: window {window} of endpoint {owner} has no "
                f"delivery target; register_endpoint_window(..., target=...) "
                f"is required for peer-to-peer destinations"
            )
        self._p2p_ops.inc()
        self._p2p_bytes.inc(txn.size)
        route = self._peer_route(endpoint, owner)
        if txn.is_read:
            def request_arrived(_txn: Transaction) -> None:
                target.send(txn, peer_done)

            def peer_done(_txn: Transaction) -> None:
                self._send_route(
                    self._peer_route(owner, endpoint), txn, txn.size,
                    on_complete,
                )

            self._send_route(
                route, txn, 0, request_arrived,
                force_tlps=self._request_tlps(txn),
            )
        else:
            def payload_arrived(_txn: Transaction) -> None:
                target.send(txn, on_complete)

            self._send_route(route, txn, txn.size, payload_arrived)

    # ------------------------------------------------------------------
    # Host-initiated MMIO / device-memory access
    # ------------------------------------------------------------------
    def host_access(
        self, txn: Transaction, device_target: TargetPort,
        on_complete: CompletionFn,
    ) -> None:
        """CPU access to a device window; routed by address, endpoint 0
        when the address is not in any registered window."""
        self._mmio_ops.inc()
        hit = self._window_for(txn.addr)
        endpoint = hit[1] if hit is not None else 0
        if txn.is_read:

            def request_arrived(_txn: Transaction) -> None:
                device_target.send(txn, device_done)

            def device_done(_txn: Transaction) -> None:
                self._send_route(
                    self._up_routes[endpoint], txn, txn.size, on_complete
                )

            self._send_route(
                self._down_routes[endpoint], txn, 0, request_arrived
            )
        else:

            def payload_arrived(_txn: Transaction) -> None:
                device_target.send(txn, on_complete)

            self._send_route(
                self._down_routes[endpoint], txn, txn.size, payload_arrived
            )

    # ------------------------------------------------------------------
    # Stat-collector compatibility and reporting
    # ------------------------------------------------------------------
    @property
    def up(self) -> SwitchLink:
        """The shared link into the root complex (all host-bound traffic)."""
        return self._top.up_link

    @property
    def down(self) -> SwitchLink:
        """The root complex's link down into the topology."""
        return self._top.down_link

    @property
    def num_endpoints(self) -> int:
        return len(self._endpoints)

    def links(self) -> List[SwitchLink]:
        """Every compiled link segment (stable DFS order)."""
        out: List[SwitchLink] = []

        def walk(node: _Node) -> None:
            out.append(node.up_link)
            out.append(node.down_link)
            for child in node.children:
                walk(child)

        walk(self._top)
        return out

    def describe(self) -> str:
        return f"{self.config.describe()}, {self.topology.describe()}"
