"""A config's identity is computed once and stays exactly what it was.

``SystemConfig`` stores its canonical JSON text and ``stable_hash`` on
the frozen instance, and ``point_key`` splices that text into the key
payload.  These tests pin the stored values against the formulas they
replace, over every point of every registered sweep, and guard the
immutability the stored values depend on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import typing

import pytest

import repro.sweep.cache as cache_mod
from repro import SystemConfig
from repro.core.config import canonical_value
from repro.faults.spec import fault_preset
from repro.sweep import SWEEPS, SweepPoint, build_sweep, derive_seed, point_key
from repro.sweep.cache import CACHE_FORMAT, _runner_fingerprint
from repro.sweep.engine import point_params
from repro.sweep.spec import resolve_runner
from repro.topology.description import balanced_tree

PINNED_CODE = "pinned-code-version"


def _old_point_key(point, runner, params) -> str:
    """The key formula before the config text was stored."""
    runner = resolve_runner(runner)
    identity = {
        "format": CACHE_FORMAT,
        "runner": runner.name,
        "runner_src": _runner_fingerprint(runner),
        "config": point.config.to_canonical(),
        "params": canonical_value(dict(params)),
        "code": PINNED_CODE,
    }
    payload = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _fresh_hash(config: SystemConfig) -> str:
    payload = json.dumps(config.to_canonical(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _registered_points():
    for name in sorted(SWEEPS):
        spec = build_sweep(name)
        for point in spec.points:
            yield name, spec, point


@pytest.fixture
def pinned_code(monkeypatch):
    monkeypatch.setattr(cache_mod, "code_version", lambda: PINNED_CODE)


class TestDifferentialOracle:
    def test_point_key_equals_the_old_formula_for_every_sweep_point(
            self, pinned_code):
        checked = 0
        for name, spec, point in _registered_points():
            runner = resolve_runner(spec.runner)
            params = point_params(spec, point)
            assert (point_key(point, runner, params)
                    == _old_point_key(point, runner, params)), (name, point.key)
            # The default-params form too.
            assert (point_key(point, runner)
                    == _old_point_key(point, runner, point.params))
            checked += 1
        assert checked > 100

    def test_stable_hash_equals_a_fresh_digest_for_every_sweep_point(self):
        for name, _spec, point in _registered_points():
            config = point.config
            assert config.stable_hash() == _fresh_hash(config), (name,
                                                                 point.key)
            assert config.canonical_json == json.dumps(
                config.to_canonical(), sort_keys=True, separators=(",", ":"))

    def test_derive_seed_matches_the_fresh_hash_formula(self):
        for _name, _spec, point in _registered_points():
            tag = f"7:{point.key!r}:{_fresh_hash(point.config)}"
            expected = int.from_bytes(
                hashlib.sha256(tag.encode("utf-8")).digest()[:4], "big"
            ) & 0x7FFFFFFF
            assert derive_seed(7, point) == expected

    def test_derive_seed_and_stable_hash_values_are_pinned(self):
        config = SystemConfig.pcie_8gb().with_packet_size(128)
        point = SweepPoint(key=("x", 3), config=config, params={})
        assert config.stable_hash() == (
            "769b006db5e43c569aab7e44fce0e85d3306bf16b5af4ab388f392b3dd734d24")
        assert derive_seed(2024, point) == 808752527
        seeds = {repr(p.key): derive_seed(1, p)
                 for p in build_sweep("fig5-memory").points[:4]}
        assert seeds == {
            "('DDR4-2400', 'device')": 1915024203,
            "('DDR4-2400', 'host-2GB')": 833933929,
            "('DDR4-2400', 'host-64GB')": 1254687693,
            "('HBM2', 'device')": 1587519823,
        }


class TestStoredValue:
    def test_computed_once_and_kept_off_the_fields(self):
        config = SystemConfig.pcie_8gb()
        assert "canonical_json" not in vars(config)
        digest = config.stable_hash()
        assert config.stable_hash() is digest
        assert config.canonical_json is config.canonical_json
        names = {f.name for f in dataclasses.fields(SystemConfig)}
        assert "canonical_json" not in names
        assert "_stable_digest" not in names
        # The stored text never leaks into the canonical form itself.
        assert "canonical_json" not in config.to_canonical()

    @pytest.mark.parametrize("derive", [
        lambda c: c.with_(dma_channels=8),
        lambda c: dataclasses.replace(c, prefetch_depth=3),
        lambda c: c.with_packet_size(512),
        lambda c: c.with_pcie_bandwidth(16, 32.0),
        lambda c: c.with_topology(balanced_tree(4)),
        lambda c: c.with_faults(fault_preset("noisy-wire")),
    ])
    def test_copies_get_their_own_value_and_key(self, derive, pinned_code):
        base = SystemConfig.pcie_8gb()
        base_hash = base.stable_hash()
        base_key = point_key(SweepPoint(key=0, config=base, params={}), "gemm")
        copy = derive(base)
        assert "_stable_digest" not in vars(copy)
        assert "canonical_json" not in vars(copy)
        assert copy.stable_hash() != base_hash
        assert copy.stable_hash() == _fresh_hash(copy)
        point = SweepPoint(key=0, config=copy, params={})
        assert point_key(point, "gemm") != base_key
        assert point_key(point, "gemm") == _old_point_key(point, "gemm", {})
        # The base keeps its own stored value.
        assert base.stable_hash() == base_hash == _fresh_hash(base)

    def test_pickle_round_trip_keeps_the_key(self, pinned_code):
        config = SystemConfig.devmem_system().with_packet_size(128)
        point = SweepPoint(key="p", config=config, params={"m": 16})
        key = point_key(point, "gemm")
        for warm in (True, False):
            source = config if warm else SystemConfig.devmem_system(
            ).with_packet_size(128)
            clone = pickle.loads(pickle.dumps(source))
            assert clone == config
            assert clone.stable_hash() == config.stable_hash()
            assert point_key(SweepPoint(key="p", config=clone,
                                        params={"m": 16}), "gemm") == key


def _walk_types(annotation):
    """Every class named by ``annotation``, through generics and unions."""
    origin = typing.get_origin(annotation)
    if origin is not None:
        if isinstance(origin, type):  # not a ``Union``
            yield origin
        for arg in typing.get_args(annotation):
            yield from _walk_types(arg)
    elif isinstance(annotation, type):
        yield annotation


MUTABLE = (list, dict, set, bytearray)


def _reachable_dataclasses(root):
    """``{dataclass: resolved field annotations}`` reachable from ``root``."""
    seen, stack = {}, [root]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen[cls] = typing.get_type_hints(cls)
        for annotation in seen[cls].values():
            stack.extend(kind for kind in _walk_types(annotation)
                         if dataclasses.is_dataclass(kind))
    return seen


def _thawed(root):
    return sorted(cls.__qualname__ for cls in _reachable_dataclasses(root)
                  if not cls.__dataclass_params__.frozen)


def _mutable_fields(root):
    return sorted(
        f"{cls.__qualname__}.{name}"
        for cls, hints in _reachable_dataclasses(root).items()
        for name, annotation in hints.items()
        if any(issubclass(kind, MUTABLE) for kind in _walk_types(annotation))
    )


@dataclasses.dataclass(frozen=True)
class _Leaf:
    weights: typing.Tuple[typing.Dict[str, int], ...] = ()


@dataclasses.dataclass
class _Loose:
    items: typing.List[int] = dataclasses.field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class _BadRoot:
    leaf: typing.Optional[_Leaf] = None
    loose: typing.Union[_Loose, int] = 0


class TestImmutabilityGuard:
    """The stored identity goes stale if any part of a config can change."""

    def test_every_reachable_dataclass_is_frozen(self):
        names = {cls.__name__ for cls in _reachable_dataclasses(SystemConfig)}
        assert {"TopologyDesc", "SwitchDesc", "EndpointDesc", "FaultSpec",
                "LinkFaults", "EndpointFault", "RetryPolicy", "PCIeConfig",
                "TLPParams", "CacheParams", "DRAMTimings",
                "SMMUConfig", "SystolicParams"} <= names
        thawed = _thawed(SystemConfig)
        assert not thawed, (
            f"dataclasses reachable from SystemConfig must be frozen=True, "
            f"or its stored canonical JSON goes stale: {thawed}")

    def test_no_field_is_a_mutable_container(self):
        mutable = _mutable_fields(SystemConfig)
        assert not mutable, (
            f"fields reachable from SystemConfig must not be typed "
            f"list/dict/set, or its stored canonical JSON goes stale: "
            f"{mutable}")

    def test_the_guard_names_each_offender(self):
        assert _thawed(_BadRoot) == ["_Loose"]
        assert _mutable_fields(_BadRoot) == ["_Leaf.weights", "_Loose.items"]
