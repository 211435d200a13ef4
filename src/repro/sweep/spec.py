"""Sweep descriptions: points, specs, and the experiment registry.

A sweep is a grid of simulation points.  Each :class:`SweepPoint` pairs a
:class:`~repro.core.config.SystemConfig` with the workload parameters of
one run and a ``key`` that labels the point in reports (e.g. ``(lanes,
gbps)`` for the Fig. 3 grid).  A :class:`SweepSpec` bundles the points
with the *runner* that simulates one point.

Runners are registered by name (:func:`register_runner`) so a point can
be shipped to a worker process as plain data and resolved there; a
module-level callable works too (pickled by reference), provided it
returns a JSON-safe dict.  A runner registered with its result
dataclass gets its cache codec from that type's fields.  The built-in
``"gemm"``, ``"vit"``, ``"multigemm"`` and ``"peer"`` runners are the
public :mod:`repro.core.runner` functions themselves (``"resilience"``
registers lazily from :mod:`repro.faults.runner`).

Named experiments live in :data:`SWEEPS` via :func:`register_sweep`; the
figure/table sweeps themselves are defined in
:mod:`repro.sweep.experiments`, and the CLI and examples look sweeps up
there instead of hand-rolling loops.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

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
            raise _unknown_runner(self.runner)

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
@lru_cache(maxsize=None)
def record_fields(result_type: type) -> Tuple[str, ...]:
    """The fields of ``result_type`` that its cache records store.

    Every dataclass field except those declared
    ``field(metadata={"record": False})`` (functional output such as
    ``GemmResult.c_matrix``, which is never cached).
    """
    return tuple(
        each.name for each in fields(result_type)
        if each.metadata.get("record", True)
    )


def _detached(values: dict) -> dict:
    """``values`` with its dict and list values shallow-copied in place,
    so a record and its result never share a container."""
    for name, value in values.items():
        if isinstance(value, (dict, list)):
            values[name] = value.copy()
    return values


@dataclass(frozen=True)
class Runner:
    """A point simulator plus the dataclass its results and records share.

    ``encode`` turns the live result into a JSON-safe record (what the
    cache stores) and ``decode`` rebuilds the result from a record, both
    via :func:`record_fields`.  Without a ``result`` type the runner
    must return a JSON-safe dict, which is its own record.
    """

    name: str
    run: Callable[..., Any]
    result: Optional[type] = None

    def encode(self, result: Any) -> dict:
        if self.result is not None:
            return _detached({name: getattr(result, name)
                              for name in record_fields(self.result)})
        if isinstance(result, dict):
            return result
        raise TypeError(
            f"runner {self.name!r} returned {type(result).__name__}; runners "
            f"without a result type must return a JSON-safe dict -- use "
            f"register_runner(name, run, ResultType) for dataclass results"
        )

    def decode(self, record: dict) -> Any:
        if self.result is None:
            return record
        return self.result(**_detached(dict(record)))


RUNNERS: Dict[str, Runner] = {}

#: Runners that register on first use: name -> defining module.  Keeps
#: optional subsystems (the fault-injection layer) out of the default
#: sweep import footprint while letting freshly spawned worker
#: processes resolve their runner names by string.
LAZY_RUNNER_MODULES: Dict[str, str] = {
    "resilience": "repro.faults.runner",
}


def _unknown_runner(name: str) -> ValueError:
    known = sorted(set(RUNNERS) | set(LAZY_RUNNER_MODULES))
    return ValueError(f"unknown runner {name!r}; registered: {known}")


def register_runner(name: str, run: Callable[..., Any],
                    result: Optional[type] = None) -> Runner:
    """Register a named point runner (last registration wins).

    ``result`` is the dataclass ``run`` returns; its fields define the
    cache record.  Omit it for runners that return a JSON-safe dict.
    """
    runner = Runner(name=name, run=run, result=result)
    RUNNERS[name] = runner
    return runner


def resolve_runner(runner: Union[str, Callable, Runner]) -> Runner:
    """Look up a registry name, or wrap a bare callable as a dict runner."""
    if isinstance(runner, Runner):
        return runner
    if isinstance(runner, str):
        if runner not in RUNNERS and runner in LAZY_RUNNER_MODULES:
            import importlib

            importlib.import_module(LAZY_RUNNER_MODULES[runner])
        try:
            return RUNNERS[runner]
        except KeyError:
            raise _unknown_runner(runner) from None
    if callable(runner):
        return Runner(name=getattr(runner, "__name__", "callable"), run=runner)
    raise TypeError(f"runner must be a name or callable, got {runner!r}")


register_runner("gemm", run_gemm, GemmResult)
register_runner("vit", run_vit, ViTResult)
register_runner("multigemm", run_multi_gemm, MultiGemmResult)
register_runner("peer", run_peer_transfer, PeerTransferResult)


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


def square_gemm(size: int) -> Dict[str, int]:
    """The params of one ``size``-cubed GEMM point.

    Anything but a positive integer (``bool`` included) is refused here,
    where the points are built, so a bad factory override fails while
    its spec is built rather than inside the run.
    """
    if (isinstance(size, bool) or not isinstance(size, numbers.Integral)
            or size <= 0):
        raise ValueError(f"GEMM dims must be positive integers, got {size!r}")
    return {"m": size, "k": size, "n": size}


def gemm_points(
    configs: Mapping[Any, SystemConfig], size: int
) -> List[SweepPoint]:
    """Points for a square-GEMM sweep over labelled configurations."""
    params = square_gemm(size)
    return [
        SweepPoint(key=key, config=config, params=dict(params))
        for key, config in configs.items()
    ]
