"""System configuration and the paper's named configurations.

:class:`SystemConfig` aggregates every knob of the framework.  The
defaults reproduce Table II:

========================  =======================================
CPU                       ARM-class, 1 GHz
Data / instruction cache  64 kB / 32 kB
Last-level cache          2 MB
IOCache                   32 kB
Memory                    DDR3-1600, 4 GB
PCIe                      Gen-2-style, 4 lanes (2 GB/s effective)
PCIe root complex         150 ns
PCIe switch               50 ns
========================  =======================================

The classmethod presets build the four Section V-C systems (PCIe-2GB,
PCIe-8GB, PCIe-64GB, DevMem) with the memory types and packet sizes the
paper assigns to each.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.accel.systolic import SystolicParams
from repro.cache.cache import CacheParams
from repro.core.access_modes import AccessMode
from repro.faults.spec import FaultSpec
from repro.interconnect.pcie.link import PCIeConfig
from repro.memory.dram.devices import DDR3_1600, DDR4_2400, HBM2
from repro.memory.dram.timings import DRAMTimings
from repro.sim.ticks import ns
from repro.smmu.smmu import SMMUConfig
from repro.topology.description import TopologyDesc, flat_topology

GB = 10**9
GiB = 1 << 30


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build an :class:`AcceSysSystem`."""

    name: str = "table2-baseline"
    # CPU cluster -------------------------------------------------------
    cpu_freq_hz: float = 1e9
    l1d: CacheParams = field(
        default_factory=lambda: CacheParams(
            size=64 * 1024, assoc=4, hit_latency=ns(2), mshrs=8
        )
    )
    l1i_size: int = 32 * 1024
    llc: CacheParams = field(
        default_factory=lambda: CacheParams(
            size=2 * 1024 * 1024, assoc=16, hit_latency=ns(20), mshrs=32
        )
    )
    iocache: CacheParams = field(
        default_factory=lambda: CacheParams(
            size=32 * 1024, assoc=4, hit_latency=ns(4), mshrs=16
        )
    )
    # Host memory -------------------------------------------------------
    host_mem_bytes: int = 4 * GiB
    host_mem: DRAMTimings = DDR3_1600
    # Device memory -----------------------------------------------------
    devmem_bytes: int = 2 * GiB
    devmem: Optional[DRAMTimings] = None
    #: (latency_ticks, bytes_per_sec) for a SimpleMemory device memory;
    #: used when ``devmem`` is None and device memory is needed.
    devmem_simple: Tuple[int, int] = (ns(40), 64 * GB)
    # PCIe --------------------------------------------------------------
    pcie: PCIeConfig = field(default_factory=PCIeConfig)
    # SMMU (None disables accelerator-side translation) -----------------
    smmu: Optional[SMMUConfig] = field(default_factory=SMMUConfig)
    # Accelerator -------------------------------------------------------
    systolic: SystolicParams = field(default_factory=SystolicParams)
    local_buffer_bytes: int = 512 * 1024
    dma_channels: int = 4
    dma_tags: int = 32
    dma_segment_bytes: int = 4096
    prefetch_depth: int = 2
    reuse_a_panels: bool = False
    compute_ticks_override: Optional[int] = None
    # Access method and default packet size ------------------------------
    access_mode: AccessMode = AccessMode.DIRECT_CACHE
    packet_size: Optional[int] = None
    #: Allocate functional backing stores (needed for data verification).
    functional: bool = False
    #: Accelerator-cluster size: endpoints sharing the PCIe hierarchy.
    num_accelerators: int = 1
    #: Interconnect family: "pcie" (root complex + switch) or "cxl"
    #: (directly-attached flit-based port; see repro.interconnect.cxl).
    interconnect: str = "pcie"
    #: Interconnect tree (see repro.topology).  ``None`` with one
    #: accelerator keeps the classic point-to-point fabric (bit-identical
    #: to the flat model); ``None`` with a cluster compiles the default
    #: flat switch (every endpoint behind one shared upstream link).  An
    #: explicit description must have ``num_accelerators`` endpoints.
    topology: Optional[TopologyDesc] = None
    #: Deterministic fault-injection model (see repro.faults and
    #: docs/FAULTS.md).  ``None`` -- the default everywhere -- keeps the
    #: fault-free fast path bit-identical to a tree without the fault
    #: subsystem; a spec rides ``to_canonical()``/``stable_hash()`` so a
    #: faulty run can never alias a fault-free cache entry.
    faults: Optional[FaultSpec] = None

    # ------------------------------------------------------------------
    # Derived
    # ------------------------------------------------------------------
    @property
    def uses_device_memory(self) -> bool:
        return self.access_mode is AccessMode.DEVICE_MEMORY

    def with_(self, **overrides) -> "SystemConfig":
        """A copy with fields replaced (dataclasses.replace shorthand)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Paper presets
    # ------------------------------------------------------------------
    @classmethod
    def table2_baseline(cls, **overrides) -> "SystemConfig":
        """The default system of Table II."""
        return cls(**overrides)

    @classmethod
    def pcie_2gb(cls, **overrides) -> "SystemConfig":
        """Section V-C system 1: host memory, 2 GB/s PCIe, DDR4."""
        defaults = dict(
            name="PCIe-2GB",
            pcie=PCIeConfig(lanes=4, lane_gbps=5.0, encoding=(8, 10)),
            host_mem=DDR4_2400,
            packet_size=256,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def pcie_8gb(cls, **overrides) -> "SystemConfig":
        """Section V-C system 2: host memory, 8 GB/s PCIe, DDR4."""
        defaults = dict(
            name="PCIe-8GB",
            pcie=PCIeConfig(lanes=8, lane_gbps=8.0, encoding=(128, 130)),
            host_mem=DDR4_2400,
            packet_size=256,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def pcie_64gb(cls, **overrides) -> "SystemConfig":
        """Section V-C system 3: host memory, 64 GB/s PCIe, HBM2."""
        defaults = dict(
            name="PCIe-64GB",
            pcie=PCIeConfig(lanes=16, lane_gbps=32.0, encoding=(242, 256)),
            host_mem=HBM2,
            packet_size=256,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def devmem_system(cls, **overrides) -> "SystemConfig":
        """Section V-C system 4: device-side HBM2, 64 B bursts."""
        defaults = dict(
            name="DevMem",
            access_mode=AccessMode.DEVICE_MEMORY,
            devmem=HBM2,
            packet_size=64,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def cxl_host(cls, lanes: int = 8, lane_gbps: float = 32.0, **overrides):
        """Extension: host memory behind a CXL-style port (not in the
        paper; see repro.interconnect.cxl)."""
        from repro.interconnect.cxl import cxl_link_config

        defaults = dict(
            name="CXL-host",
            interconnect="cxl",
            pcie=cxl_link_config(lanes=lanes, lane_gbps=lane_gbps),
            host_mem=HBM2,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def devmem_cxl(cls, lanes: int = 8, lane_gbps: float = 32.0, **overrides):
        """Extension: device-side memory with CPU access over CXL."""
        from repro.interconnect.cxl import cxl_link_config

        defaults = dict(
            name="DevMem-CXL",
            interconnect="cxl",
            access_mode=AccessMode.DEVICE_MEMORY,
            devmem=HBM2,
            pcie=cxl_link_config(lanes=lanes, lane_gbps=lane_gbps),
            packet_size=64,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def paper_systems(cls) -> dict:
        """The four Section V-C configurations, keyed by paper name."""
        return {
            "PCIe-2GB": cls.pcie_2gb(),
            "PCIe-8GB": cls.pcie_8gb(),
            "PCIe-64GB": cls.pcie_64gb(),
            "DevMem": cls.devmem_system(),
        }

    @classmethod
    def named_systems(cls) -> dict:
        """Every named configuration: paper systems, the Table II
        baseline, and the CXL presets.  One registry shared by the CLI
        and the orchestrator, so a system name in a run manifest means
        the same hardware on every machine."""
        systems = cls.paper_systems()
        systems["Table2"] = cls.table2_baseline()
        systems["CXL-host"] = cls.cxl_host()
        systems["DevMem-CXL"] = cls.devmem_cxl()
        return systems

    @classmethod
    def by_name(cls, name: str) -> "SystemConfig":
        """Case-insensitive lookup in :meth:`named_systems`."""
        systems = cls.named_systems()
        for key, config in systems.items():
            if key.lower() == name.lower():
                return config
        raise KeyError(
            f"unknown system {name!r}; choose from {sorted(systems)}"
        )

    def with_pcie_bandwidth(
        self, lanes: int, lane_gbps: float, encoding: Tuple[int, int] = (128, 130)
    ) -> "SystemConfig":
        """Copy with a different PCIe link (Fig. 3 sweeps).

        Uses :func:`dataclasses.replace` so every field not named here --
        including ones added to :class:`PCIeConfig` later -- carries over.
        """
        return self.with_(
            pcie=replace(
                self.pcie, lanes=lanes, lane_gbps=lane_gbps, encoding=encoding
            )
        )

    def with_topology(self, topology: TopologyDesc) -> "SystemConfig":
        """Copy with an explicit interconnect tree.

        ``num_accelerators`` is synced to the topology's endpoint count,
        so ``base.with_topology(balanced_tree(8))`` is a complete
        8-device system description.
        """
        return self.with_(
            topology=topology, num_accelerators=topology.num_endpoints
        )

    def effective_topology(self) -> Optional[TopologyDesc]:
        """The tree the system will compile, or ``None`` for the classic
        point-to-point fabric (single device, no explicit topology)."""
        if self.topology is not None:
            return self.topology
        if self.num_accelerators > 1 and self.interconnect == "pcie":
            return flat_topology(self.num_accelerators)
        return None

    def with_faults(self, faults: Optional[FaultSpec]) -> "SystemConfig":
        """Copy with a fault-injection model (``None`` removes it)."""
        return self.with_(faults=faults)

    def with_packet_size(self, packet_size: int) -> "SystemConfig":
        """Copy with a different request packet size (Fig. 4 sweeps)."""
        new_pcie = replace(
            self.pcie, tlp=replace(self.pcie.tlp, max_payload=packet_size)
        )
        return self.with_(pcie=new_pcie, packet_size=packet_size)

    # ------------------------------------------------------------------
    # Canonical serialization and hashing (sweep cache keys)
    # ------------------------------------------------------------------
    def to_canonical(self) -> dict:
        """A JSON-safe nested dict capturing every configuration field.

        Nested dataclasses (cache/PCIe/DRAM/SMMU/systolic parameters) are
        expanded recursively and enums collapse to their values, so two
        configs are equal iff their canonical forms are equal.
        """
        return canonical_value(self)

    # The two attributes below are computed once per instance and kept
    # in its ``__dict__`` (``cached_property`` writes there directly, so
    # the frozen ``__setattr__`` is not in the way).  They are not
    # fields: ``replace``/``with_*`` copies start without them, and a
    # pickled config carries them to pool workers.  Storing them is
    # sound only because every dataclass reachable from the fields is
    # frozen and holds no list/dict/set; tests/test_config_key.py
    # enforces that.
    @functools.cached_property
    def canonical_json(self) -> str:
        """:meth:`to_canonical` as compact JSON with sorted keys.

        The exact text :meth:`stable_hash` digests and the sweep cache
        splices into every point key.
        """
        return json.dumps(
            self.to_canonical(), sort_keys=True, separators=(",", ":")
        )

    @functools.cached_property
    def _stable_digest(self) -> str:
        return hashlib.sha256(self.canonical_json.encode("utf-8")).hexdigest()

    def stable_hash(self) -> str:
        """A hex digest stable across processes and interpreter runs.

        Unlike ``hash()``, this does not depend on ``PYTHONHASHSEED``;
        the sweep result cache uses it to key results on disk.
        """
        return self._stable_digest


def canonical_value(obj):
    """Recursively convert ``obj`` into JSON-serializable primitives.

    Dataclasses become ``{"__type__": name, **fields}``, enums their
    ``.value``, tuples lists; scalars pass through.  Raises ``TypeError``
    for anything else so un-hashable configuration never silently
    aliases a cache entry.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonical_value(getattr(obj, f.name))
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical_value(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): canonical_value(val) for key, val in sorted(obj.items())}
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")
