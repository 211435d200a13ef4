"""Sweep descriptions: points, specs, and the experiment registry.

A sweep is a grid of simulation points.  Each :class:`SweepPoint` pairs a
:class:`~repro.core.config.SystemConfig` with the workload parameters of
one run and a ``key`` that labels the point in reports (e.g. ``(lanes,
gbps)`` for the Fig. 3 grid).  A :class:`SweepSpec` bundles the points
with the *runner* that simulates one point.

Runners are registered by name (:func:`register_runner`) so a point can
be shipped to a worker process as plain data and resolved there; a
module-level callable works too (pickled by reference), provided it
returns a JSON-safe dict -- register a codec (``encode``/``decode``)
for richer result types.  The built-in ``"gemm"`` and ``"vit"`` runners
drive :func:`repro.core.runner.run_gemm` / ``run_vit`` and round-trip
their results through the on-disk cache.

Named experiments live in :data:`SWEEPS` via :func:`register_sweep`; the
figure/table sweeps themselves are defined in
:mod:`repro.sweep.experiments`, and the CLI and examples look sweeps up
there instead of hand-rolling loops.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.core.config import SystemConfig, canonical_value
from repro.core.runner import (
    GemmResult,
    MultiGemmResult,
    PeerTransferResult,
    ViTResult,
    run_gemm,
    run_multi_gemm,
    run_peer_transfer,
    run_vit,
)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep grid.

    ``key`` labels the point in reports and must be unique within a
    spec; ``params`` are keyword arguments for the runner (e.g. GEMM
    dimensions).  Both must canonicalize (see
    :func:`repro.core.config.canonical_value`) so the point can be
    hashed into a cache key.
    """

    key: Any
    config: SystemConfig
    params: Mapping[str, Any] = field(default_factory=dict)

    def canonical_params(self) -> dict:
        return {name: canonical_value(value)
                for name, value in sorted(self.params.items())}


@dataclass
class SweepSpec:
    """A named grid of points plus the function that simulates one.

    ``runner`` is either a name registered via :func:`register_runner`
    or a module-level callable ``(config, **params) -> result``.
    ``auto_seed`` injects a deterministic per-point ``seed`` parameter
    (derived from ``base_seed``, the point key, and the config hash)
    when the point does not set one itself.
    """

    name: str
    points: List[SweepPoint]
    runner: Union[str, Callable] = "gemm"
    base_seed: int = 1234
    auto_seed: bool = False

    def __post_init__(self) -> None:
        keys = [point.key for point in self.points]
        if len(set(keys)) != len(keys):
            raise ValueError(f"sweep {self.name!r} has duplicate point keys")
        if isinstance(self.runner, str) and self.runner not in RUNNERS \
                and self.runner not in LAZY_RUNNER_MODULES:
            raise ValueError(
                f"unknown runner {self.runner!r}; registered: {sorted(RUNNERS)}"
            )

    def __len__(self) -> int:
        return len(self.points)


def derive_seed(base_seed: int, point: SweepPoint) -> int:
    """A deterministic, per-point RNG seed.

    Independent of point order (keyed on the point itself, not its
    index) so inserting a point into a grid never reseeds its
    neighbours.
    """
    tag = f"{base_seed}:{point.key!r}:{point.config.stable_hash()}"
    return int.from_bytes(
        hashlib.sha256(tag.encode("utf-8")).digest()[:4], "big"
    ) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Runner registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Runner:
    """A point simulator plus its cache codec.

    ``encode`` turns the live result into a JSON-safe record (what the
    cache stores); ``decode`` rebuilds a result object from a record so
    cache hits and live runs hand callers the same type.
    """

    name: str
    run: Callable[..., Any]
    encode: Callable[[Any], dict]
    decode: Callable[[dict], Any]


RUNNERS: Dict[str, Runner] = {}

#: Runners that register on first use: name -> defining module.  Keeps
#: optional subsystems (the fault-injection layer) out of the default
#: sweep import footprint while letting freshly spawned worker
#: processes resolve their runner names by string.
LAZY_RUNNER_MODULES: Dict[str, str] = {
    "resilience": "repro.faults.runner",
}


def _default_encode(result: Any) -> dict:
    """Codec for runners registered without one: dict records pass through."""
    if isinstance(result, dict):
        return result
    raise TypeError(
        f"runner returned {type(result).__name__}; runners without an "
        f"encode/decode codec must return a JSON-safe dict -- use "
        f"register_runner(name, run, encode, decode) for richer result types"
    )


def register_runner(
    name: str,
    run: Callable[..., Any],
    encode: Optional[Callable[[Any], dict]] = None,
    decode: Optional[Callable[[dict], Any]] = None,
) -> Runner:
    """Register a named point runner (last registration wins)."""
    runner = Runner(
        name=name,
        run=run,
        encode=encode or _default_encode,
        decode=decode or (lambda record: record),
    )
    RUNNERS[name] = runner
    return runner


def resolve_runner(runner: Union[str, Callable, Runner]) -> Runner:
    """Look up a registry name, or wrap a bare callable as identity-codec."""
    if isinstance(runner, Runner):
        return runner
    if isinstance(runner, str):
        if runner not in RUNNERS and runner in LAZY_RUNNER_MODULES:
            import importlib

            importlib.import_module(LAZY_RUNNER_MODULES[runner])
        return RUNNERS[runner]
    if callable(runner):
        return Runner(
            name=getattr(runner, "__name__", "callable"),
            run=runner,
            encode=_default_encode,
            decode=lambda record: record,
        )
    raise TypeError(f"runner must be a name or callable, got {runner!r}")


# ----------------------------------------------------------------------
# Built-in GEMM runner
# ----------------------------------------------------------------------
def _run_gemm_point(config: SystemConfig, **params) -> GemmResult:
    return run_gemm(config, **params)


def _encode_gemm(result: GemmResult) -> dict:
    # c_matrix is deliberately not cached: functional output belongs to
    # --verify runs.  table4 (plain ints/floats) rides along so the
    # Table IV and SMMU-ablation sweeps replay from cache.
    return {
        "config_name": result.config_name,
        "m": result.m,
        "k": result.k,
        "n": result.n,
        "ticks": result.ticks,
        "job_ticks": result.job_ticks,
        "traffic_bytes": result.traffic_bytes,
        "table4": result.table4,
        "component_stats": dict(result.component_stats),
    }


def _decode_gemm(record: dict) -> GemmResult:
    return GemmResult(
        config_name=record["config_name"],
        m=record["m"],
        k=record["k"],
        n=record["n"],
        ticks=record["ticks"],
        job_ticks=record["job_ticks"],
        traffic_bytes=record["traffic_bytes"],
        table4=record.get("table4"),
        component_stats=dict(record.get("component_stats", {})),
    )


register_runner("gemm", _run_gemm_point, _encode_gemm, _decode_gemm)


# ----------------------------------------------------------------------
# Built-in ViT runner
# ----------------------------------------------------------------------
def _run_vit_point(config: SystemConfig, **params) -> ViTResult:
    return run_vit(config, **params)


def _encode_vit(result: ViTResult) -> dict:
    return {
        "config_name": result.config_name,
        "model_name": result.model_name,
        "total_ticks": result.total_ticks,
        "gemm_ticks": result.gemm_ticks,
        "nongemm_ticks": result.nongemm_ticks,
        "op_ticks": dict(result.op_ticks),
        "memo_hits": result.memo_hits,
    }


def _decode_vit(record: dict) -> ViTResult:
    return ViTResult(
        config_name=record["config_name"],
        model_name=record["model_name"],
        total_ticks=record["total_ticks"],
        gemm_ticks=record["gemm_ticks"],
        nongemm_ticks=record["nongemm_ticks"],
        op_ticks=dict(record.get("op_ticks", {})),
        memo_hits=record.get("memo_hits", 0),
    )


register_runner("vit", _run_vit_point, _encode_vit, _decode_vit)


# ----------------------------------------------------------------------
# Built-in multi-device runners (topology experiments)
# ----------------------------------------------------------------------
def _run_multigemm_point(config: SystemConfig, **params) -> MultiGemmResult:
    return run_multi_gemm(config, **params)


def _encode_multigemm(result: MultiGemmResult) -> dict:
    return {
        "config_name": result.config_name,
        "m": result.m,
        "k": result.k,
        "n": result.n,
        "num_devices": result.num_devices,
        "active_devices": result.active_devices,
        "device_ticks": list(result.device_ticks),
        "ticks": result.ticks,
        "total_traffic_bytes": result.total_traffic_bytes,
        "uplink_busy_frac": result.uplink_busy_frac,
        "component_stats": dict(result.component_stats),
    }


def _decode_multigemm(record: dict) -> MultiGemmResult:
    return MultiGemmResult(
        config_name=record["config_name"],
        m=record["m"],
        k=record["k"],
        n=record["n"],
        num_devices=record["num_devices"],
        active_devices=record["active_devices"],
        device_ticks=list(record.get("device_ticks", [])),
        ticks=record["ticks"],
        total_traffic_bytes=record["total_traffic_bytes"],
        uplink_busy_frac=record.get("uplink_busy_frac", 0.0),
        component_stats=dict(record.get("component_stats", {})),
    )


register_runner(
    "multigemm", _run_multigemm_point, _encode_multigemm, _decode_multigemm
)


def _run_peer_point(config: SystemConfig, **params) -> PeerTransferResult:
    return run_peer_transfer(config, **params)


def _encode_peer(result: PeerTransferResult) -> dict:
    return {
        "config_name": result.config_name,
        "mode": result.mode,
        "size_bytes": result.size_bytes,
        "ticks": result.ticks,
        "root_complex_bytes": result.root_complex_bytes,
    }


def _decode_peer(record: dict) -> PeerTransferResult:
    return PeerTransferResult(
        config_name=record["config_name"],
        mode=record["mode"],
        size_bytes=record["size_bytes"],
        ticks=record["ticks"],
        root_complex_bytes=record.get("root_complex_bytes", 0),
    )


register_runner("peer", _run_peer_point, _encode_peer, _decode_peer)


# ----------------------------------------------------------------------
# Experiment registry
# ----------------------------------------------------------------------
#: Named sweep factories: name -> callable(**kwargs) -> SweepSpec.
SWEEPS: Dict[str, Callable[..., SweepSpec]] = {}


def register_sweep(name: str):
    """Decorator: register a factory that builds a named SweepSpec."""

    def wrap(factory: Callable[..., SweepSpec]) -> Callable[..., SweepSpec]:
        SWEEPS[name] = factory
        return factory

    return wrap


def build_sweep(name: str, **kwargs) -> SweepSpec:
    """Instantiate a registered sweep by name."""
    try:
        factory = SWEEPS[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep {name!r}; registered: {sorted(SWEEPS)}"
        ) from None
    return factory(**kwargs)


def gemm_points(
    configs: Mapping[Any, SystemConfig], size: int
) -> List[SweepPoint]:
    """Points for a square-GEMM sweep over labelled configurations."""
    return [
        SweepPoint(key=key, config=config,
                   params={"m": size, "k": size, "n": size})
        for key, config in configs.items()
    ]
