"""Topology descriptions and the compiled switch fabric.

Unit-level coverage: the declarative tree (builders, validation,
canonicalization into cache keys), the arbitrated SwitchLink (round
robin, FIFO ordering, reset identity), and SwitchedPCIeFabric routing
(host path, MMIO, peer-to-peer, wiring errors)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig, canonical_value
from repro.faults import FAULT_PRESETS, LinkFaults, LinkFaultState, fault_preset
from repro.interconnect.pcie.fabric import PCIeFabric
from repro.interconnect.pcie.link import (
    PCIeConfig,
    tlp_params_for,
    train_timing,
)
from repro.memory.addr_range import AddrRange
from repro.sim.eventq import Simulator
from repro.sim.ports import FixedLatencyTarget
from repro.sim.statistics import StatGroup
from repro.sim.ticks import ns, us
from repro.sim.transaction import Transaction
from repro.topology import (
    EndpointDesc,
    SwitchDesc,
    SwitchedPCIeFabric,
    SwitchLink,
    TopologyDesc,
    flat_topology,
    tiered_topology,
)


class TestDescription:
    def test_flat_topology_shape(self):
        topo = flat_topology(4)
        assert topo.num_endpoints == 4
        assert topo.num_switches == 1
        assert topo.depth == 1

    def test_tiered_topology_depth(self):
        topo = tiered_topology(2, 3)
        assert topo.num_endpoints == 2
        assert topo.num_switches == 3
        assert topo.depth == 3

    def test_endpoint_order_is_depth_first(self):
        named = TopologyDesc(root=SwitchDesc(children=(
            EndpointDesc(name="a"),
            SwitchDesc(children=(EndpointDesc(name="b"),
                                 EndpointDesc(name="c"))),
            EndpointDesc(name="d"),
        )))
        assert [e.name for e in named.endpoints()] == ["a", "b", "c", "d"]

    def test_empty_switch_rejected(self):
        with pytest.raises(ValueError):
            SwitchDesc(children=())

    def test_bad_child_type_rejected(self):
        with pytest.raises(TypeError):
            SwitchDesc(children=("not-a-node",))

    def test_builders_reject_bad_counts(self):
        with pytest.raises(ValueError):
            flat_topology(0)
        with pytest.raises(ValueError):
            tiered_topology(2, 0)


class TestConfigIntegration:
    def test_topology_canonicalizes(self):
        value = canonical_value(tiered_topology(2, 2))
        assert value["__type__"] == "TopologyDesc"
        # Nested children survive as plain JSON-safe structures.
        import json
        json.dumps(value)

    def test_topology_changes_stable_hash(self):
        base = SystemConfig.pcie_2gb(num_accelerators=2)
        explicit = base.with_topology(tiered_topology(2, 2))
        assert base.stable_hash() != explicit.stable_hash()

    def test_with_topology_syncs_device_count(self):
        config = SystemConfig.pcie_2gb().with_topology(flat_topology(3))
        assert config.num_accelerators == 3

    def test_effective_topology_default(self):
        assert SystemConfig.pcie_2gb().effective_topology() is None
        multi = SystemConfig.pcie_2gb(num_accelerators=2)
        assert multi.effective_topology().num_endpoints == 2
        # CXL keeps the directly-attached port even for clusters.
        cxl = SystemConfig.cxl_host(num_accelerators=2)
        assert cxl.effective_topology() is None

    def test_mismatched_topology_rejected(self):
        from repro.core.system import AcceSysSystem

        config = SystemConfig.pcie_2gb(
            num_accelerators=3, topology=flat_topology(2)
        )
        with pytest.raises(ValueError, match="2 endpoint"):
            AcceSysSystem(config)

    def test_cxl_topology_rejected(self):
        from repro.core.system import AcceSysSystem

        config = SystemConfig.cxl_host(
            num_accelerators=2, topology=flat_topology(2)
        )
        with pytest.raises(ValueError, match="CXL"):
            AcceSysSystem(config)


class TestSwitchLink:
    def make_link(self, ports=2, **kw):
        sim = Simulator()
        link = SwitchLink(sim, "link", PCIeConfig(), num_ports=ports,
                          hop_latency=ns(50), tlp_occupancy=ns(2), **kw)
        return sim, link

    def test_round_robin_is_fair(self):
        sim, link = self.make_link(ports=2)
        arrivals = {0: [], 1: []}
        for _ in range(8):
            for port in (0, 1):
                txn = Transaction.read(0, 1024)
                link.submit(port, txn, 1024,
                            lambda t, p=port: arrivals[p].append(sim.now))
        sim.run()
        assert len(arrivals[0]) == len(arrivals[1]) == 8
        # Grants alternate, so neither port's last arrival lags the
        # other's by more than one train.
        gap = abs(arrivals[0][-1] - arrivals[1][-1])
        span = max(arrivals[0][-1], arrivals[1][-1]) - min(
            arrivals[0][0], arrivals[1][0]
        )
        assert gap < span / 4

    def test_arrivals_are_fifo(self):
        sim, link = self.make_link(ports=1)
        order = []
        for i in range(4):
            link.submit(0, Transaction.read(0, 64 * (i + 1)), 64 * (i + 1),
                        lambda t, i=i: order.append((i, sim.now)))
        sim.run()
        assert [i for i, _ in order] == [0, 1, 2, 3]
        ticks = [at for _, at in order]
        assert ticks == sorted(ticks)

    def test_busy_wire_delays_second_train(self):
        sim, link = self.make_link(ports=1)
        arrivals = []
        for _ in range(2):
            link.submit(0, Transaction.read(0, 4096), 4096,
                        lambda t: arrivals.append(sim.now))
        sim.run()
        assert arrivals[1] > arrivals[0]

    def test_port_out_of_range(self):
        _sim, link = self.make_link(ports=2)
        with pytest.raises(ValueError, match="port 2"):
            link.submit(2, Transaction.read(0, 64), 64, lambda t: None)

    def test_reset_rerun_identity(self):
        sim, link = self.make_link(ports=2)

        def drive():
            arrivals = []
            for i in range(6):
                link.submit(i % 2, Transaction.read(0, 512), 512,
                            lambda t: arrivals.append(sim.now))
            sim.run()
            return arrivals, dict(link.stats.flatten())

        first = drive()
        sim.reset()
        for obj in sim.objects:
            obj.reset_state()
        second = drive()
        assert first == second


LINK_STATS = ("tlps", "payload_bytes", "wire_bytes", "busy_ticks")

#: ``(seed, LinkFaults)`` cases: fault-free, every registered preset's
#: link faults, and a dense mix that fires all three classes often.
LINK_FAULT_CASES = [None] + [
    (fault_preset(name).seed, entry)
    for name in sorted(FAULT_PRESETS)
    for entry in fault_preset(name).links
] + [
    (3, LinkFaults(corrupt_rate=0.4, retrain_period=us(7),
                   retrain_duration=us(2), downtrain_at=us(20),
                   downtrain_factor=3)),
]


def _fault_state(case, name):
    if case is None:
        return None
    seed, entry = case
    return LinkFaultState(entry, seed, name, StatGroup(name))


#: One train: (gap before its submit in ticks, packet_size, payload,
#: force_tlps, skip_hop).  Small pools make shapes repeat (memo hits).
SWITCH_TRAINS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=us(2)),
        st.one_of(st.sampled_from([None, 64, 256, 4096]),
                  st.integers(min_value=1, max_value=8192)),
        st.one_of(st.sampled_from([0, 64, 512, 4096]),
                  st.integers(min_value=0, max_value=20000)),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=64)),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


class _SwitchLinkOracle:
    """A one-port ``SwitchLink`` recomputed from ``train_timing`` per grant.

    With one port, trains are granted in submit order, each at its
    submit tick or when the previous train releases the wire.
    """

    def __init__(self, config, hop_latency, tlp_occupancy, faults):
        self.config = config
        self.hop_latency = hop_latency
        self.tlp_occupancy = tlp_occupancy
        self.faults = faults
        self.reset()

    def reset(self):
        self.free_at = 0
        self.last_arrival = 0
        self.stats = dict.fromkeys(LINK_STATS, 0)
        if self.faults is not None:
            self.faults.reset()

    def submit(self, at, packet_size, payload, force_tlps, skip_hop):
        tlp = tlp_params_for(self.config, packet_size)
        n_tlps, wire_bytes, serialize, tlp_fill = train_timing(
            self.config, tlp, payload, force_tlps
        )
        per_tlp = 0 if skip_hop else self.tlp_occupancy
        occupancy = max(serialize, n_tlps * per_tlp)
        now = max(at, self.free_at)
        if self.faults is not None:
            stall, occupancy = self.faults.adjust(
                now, occupancy, n_tlps, tlp_fill
            )
            occupancy += stall
        self.free_at = now + occupancy
        fill = (0 if skip_hop else self.hop_latency) + tlp_fill
        arrival = max(now + occupancy + fill, self.last_arrival)
        self.last_arrival = arrival
        for name, amount in zip(LINK_STATS, (n_tlps, max(0, payload),
                                             wire_bytes, occupancy)):
            self.stats[name] += amount
        return arrival


class TestSwitchLinkTrainMemo:
    """Every grant equals the arithmetic the shared train memo replaced."""

    @pytest.mark.parametrize("case", LINK_FAULT_CASES)
    @settings(max_examples=30, deadline=None)
    @given(first=SWITCH_TRAINS, second=SWITCH_TRAINS)
    def test_link_matches_unmemoized_arithmetic(self, case, first, second):
        sim = Simulator()
        cfg = PCIeConfig(lanes=2)
        link = SwitchLink(sim, "link", cfg, num_ports=1,
                          hop_latency=ns(50), tlp_occupancy=ns(30))
        link.faults = _fault_state(case, "link")
        oracle = _SwitchLinkOracle(cfg, ns(50), ns(30),
                                   _fault_state(case, "link"))
        for trains in (first, second):
            arrivals = {}
            at = 0
            want = []
            for index, (gap, packet_size, payload, force_tlps,
                        skip_hop) in enumerate(trains):
                at += gap
                txn = Transaction.read(0, max(payload, 1))
                txn.packet_size = packet_size

                def submit(txn=txn, index=index, payload=payload,
                           force=force_tlps, skip=skip_hop):
                    link.submit(
                        0, txn, payload,
                        lambda _t, i=index: arrivals.__setitem__(i, sim.now),
                        force_tlps=force, skip_hop=skip,
                    )

                sim.schedule_at(at, submit)
                want.append(oracle.submit(at, packet_size, payload,
                                          force_tlps, skip_hop))
            sim.run()
            assert [arrivals[i] for i in range(len(trains))] == want
            assert {name: link.stats[name].value
                    for name in LINK_STATS} == oracle.stats
            # The memo survives the reset; the oracle starts over.
            sim.reset()
            for obj in sim.objects:
                obj.reset_state()
            oracle.reset()

    @pytest.mark.parametrize("skip_hop", [False, True])
    def test_invalid_shape_raises_on_every_call(self, skip_hop):
        sim = Simulator()
        link = SwitchLink(sim, "link", PCIeConfig(), num_ports=1)
        for _ in range(3):
            txn = Transaction.read(0, 256)
            txn.packet_size = 0
            with pytest.raises(ValueError, match="max payload"):
                link.submit(0, txn, 256, lambda t: None, skip_hop=skip_hop)
        assert all(link.stats[name].value == 0 for name in LINK_STATS)


def make_switched(n=2, topology=None, host_latency=ns(100)):
    sim = Simulator()
    topo = topology or flat_topology(n)
    host = FixedLatencyTarget(sim, "host", latency=host_latency)
    fabric = SwitchedPCIeFabric(sim, "pcie", PCIeConfig(), topo, host)
    return sim, fabric, host


class TestSwitchedFabric:
    def test_compiles_links_for_every_wire(self):
        _sim, fabric, _host = make_switched(4)
        # Root switch + 4 endpoints = 5 nodes, an up/down pair each.
        assert len(fabric.links()) == 10
        assert fabric.up.num_ports == 4  # shared upstream, one per device

    def test_device_read_reaches_host_and_returns(self):
        sim, fabric, host = make_switched(2)
        done = {}
        fabric.device_access(Transaction.read(0, 256),
                             lambda t: done.setdefault("at", sim.now),
                             endpoint=1)
        sim.run()
        assert host.stats["transactions"].value == 1
        assert done["at"] > 2 * ns(200)  # both directions, rc + switch

    def test_deeper_tiers_cost_more(self):
        def read_time(topology):
            sim, fabric, _host = make_switched(topology=topology)
            done = {}
            fabric.device_access(Transaction.read(0, 256),
                                 lambda t: done.setdefault("at", sim.now))
            sim.run()
            return done["at"]

        shallow = read_time(tiered_topology(1, 1))
        deep = read_time(tiered_topology(1, 3))
        assert deep > shallow

    def test_unwired_host_target_raises_with_hint(self):
        sim = Simulator()
        fabric = SwitchedPCIeFabric(sim, "pcie", PCIeConfig(),
                                    flat_topology(2))
        with pytest.raises(RuntimeError) as err:
            fabric.device_access(Transaction.read(0, 64), lambda t: None)
        assert "pcie" in str(err.value)
        assert "set_host_target" in str(err.value)

    def test_classic_fabric_unwired_error_names_component(self):
        sim = Simulator()
        fabric = PCIeFabric(sim, "system.pcie", PCIeConfig())
        for txn in (Transaction.read(0, 64), Transaction.write(0, 64)):
            with pytest.raises(RuntimeError) as err:
                fabric.device_access(txn, lambda t: None)
            assert "system.pcie" in str(err.value)
            assert "set_host_target" in str(err.value)

    def test_window_registration_validates(self):
        _sim, fabric, _host = make_switched(2)
        fabric.register_endpoint_window(0, AddrRange(0x1000, 0x2000))
        with pytest.raises(ValueError, match="overlaps"):
            fabric.register_endpoint_window(1, AddrRange(0x1800, 0x2800))
        with pytest.raises(ValueError, match="out of range"):
            fabric.register_endpoint_window(5, AddrRange(0x4000, 0x5000))

    def test_p2p_write_skips_root_complex(self):
        sim, fabric, host = make_switched(2)
        peer = FixedLatencyTarget(sim, "peer", latency=ns(5))
        fabric.register_endpoint_window(1, AddrRange(0x1000, 0x100000), peer)
        done = {}
        fabric.device_access(Transaction.write(0x1000, 4096),
                             lambda t: done.setdefault("at", sim.now),
                             endpoint=0)
        sim.run()
        assert peer.stats["transactions"].value == 1
        assert host.stats["transactions"].value == 0
        assert fabric.up.stats["tlps"].value == 0
        assert fabric.down.stats["tlps"].value == 0
        assert fabric.stats["p2p_ops"].value == 1
        assert fabric.stats["p2p_bytes"].value == 4096

    def test_p2p_read_round_trip(self):
        sim, fabric, _host = make_switched(2)
        peer = FixedLatencyTarget(sim, "peer", latency=ns(5))
        fabric.register_endpoint_window(1, AddrRange(0x1000, 0x100000), peer)
        done = {}
        fabric.device_access(Transaction.read(0x1000, 4096),
                             lambda t: done.setdefault("at", sim.now),
                             endpoint=0)
        sim.run()
        assert peer.stats["transactions"].value == 1
        assert done["at"] > 2 * ns(50)  # switch crossed both ways

    def test_p2p_without_target_raises(self):
        sim, fabric, _host = make_switched(2)
        fabric.register_endpoint_window(1, AddrRange(0x1000, 0x100000))
        with pytest.raises(RuntimeError, match="delivery target"):
            fabric.device_access(Transaction.write(0x1000, 64),
                                 lambda t: None, endpoint=0)

    def test_own_window_loopback_raises_clearly(self):
        """A device touching its *own* window is neither peer traffic nor
        host traffic: it errors at submit time instead of surfacing as an
        SMMU fault on a BAR address deep in the host path."""
        sim, fabric, host = make_switched(2)
        mine = FixedLatencyTarget(sim, "mine", latency=ns(5))
        fabric.register_endpoint_window(0, AddrRange(0x1000, 0x100000), mine)
        with pytest.raises(RuntimeError, match="own[ ]window"):
            fabric.device_access(Transaction.write(0x1000, 64),
                                 lambda t: None, endpoint=0)
        assert fabric.stats["p2p_ops"].value == 0
        assert host.stats["transactions"].value == 0

    def test_lca_switch_charged_once_on_peer_route(self):
        """The turn-around switch of a peer route traverses once: raising
        its latency by D delays a P2P write by D, not 2D."""
        from repro.topology import SwitchDesc, EndpointDesc, TopologyDesc

        def p2p_time(extra):
            topo = TopologyDesc(root=SwitchDesc(
                children=(EndpointDesc(), EndpointDesc()),
                latency=ns(50) + extra,
            ))
            sim, fabric, _host = make_switched(topology=topo)
            peer = FixedLatencyTarget(sim, "peer", latency=ns(5))
            fabric.register_endpoint_window(
                1, AddrRange(0x1000, 0x100000), peer
            )
            done = {}
            fabric.device_access(Transaction.write(0x1000, 4096),
                                 lambda t: done.setdefault("at", sim.now),
                                 endpoint=0)
            sim.run()
            return done["at"]

        delta = ns(1_000_000)
        assert p2p_time(delta) - p2p_time(0) == delta

    def test_host_access_routes_by_address(self):
        sim, fabric, _host = make_switched(2)
        regs = FixedLatencyTarget(sim, "regs1", latency=ns(5))
        fabric.register_endpoint_window(1, AddrRange(0x2000, 0x3000), regs)
        done = {}
        fabric.host_access(Transaction.read(0x2000, 4), regs,
                           lambda t: done.setdefault("at", sim.now))
        sim.run()
        assert regs.stats["transactions"].value == 1
        assert done["at"] > 2 * ns(200)  # down + up, rc + switch each way

    def test_mmio_contention_on_shared_downlink(self):
        """Concurrent MMIO to both endpoints shares the root-complex
        downlink: the second access finishes after the first."""
        sim, fabric, _host = make_switched(2)
        targets = []
        done = []
        for i in range(2):
            target = FixedLatencyTarget(sim, f"regs{i}", latency=ns(5))
            base = 0x2000 + i * 0x1000
            fabric.register_endpoint_window(i, AddrRange(base, base + 0x1000),
                                            target)
            targets.append((target, base))
        for target, base in targets:
            fabric.host_access(Transaction.write(base, 4096), target,
                               lambda t: done.append(sim.now))
        sim.run()
        assert len(done) == 2
        assert done[1] > done[0]
