"""Run manifests: the pinned identity of an orchestrated sweep run.

A run directory starts with one ``manifest.json`` describing *what* is
being computed (the named sweeps plus their factory overrides), *how it
is split* (the shard total), *where results land* (the shared cache
directory) and -- critically -- *which code* may compute it: the
manifest pins the :func:`repro.sweep.cache.code_version` digest of the
dispatching tree and a per-sweep :func:`spec_fingerprint` over every
point's canonical config hash and parameters.

Workers re-derive both before claiming any work and refuse to
participate on a mismatch (:class:`VersionMismatchError`).  This is what
makes a shared cache directory safe across machines: a worker running
different simulator code would happily fill the cache with entries the
dispatcher can never read back (different content hashes) -- or worse,
with *matching* hashes from a manifest of a different tree.  Mixed-
version fleets are therefore refused loudly instead of merged silently.

Factory overrides are stored as plain JSON values (a system *name*, not
a config object) so the manifest itself is machine-portable; workers
rebuild the actual :class:`~repro.sweep.spec.SweepSpec` objects from the
named registry and verify the rebuilt specs hash to the pinned
fingerprints.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.config import SystemConfig
from repro.sweep.cache import atomic_write_json, code_version
from repro.sweep.spec import SweepSpec, build_sweep, resolve_runner

#: Bump when the manifest layout changes incompatibly.
MANIFEST_FORMAT = 1

MANIFEST_NAME = "manifest.json"


class VersionMismatchError(RuntimeError):
    """This tree's code (or a rebuilt spec) differs from the manifest."""


def spec_fingerprint(spec: SweepSpec) -> str:
    """A digest over everything that identifies a sweep's point grid.

    Covers the spec name, resolved runner name, seeding policy, and --
    per point -- the key repr, the canonical config hash, and the
    canonical parameters.  Two trees that build the same named sweep to
    the same fingerprint will shard it identically and hash its points
    to the same cache keys (given an equal code digest), which is the
    precondition for merging their work.
    """
    runner = resolve_runner(spec.runner)
    identity = {
        "name": spec.name,
        "runner": runner.name,
        "base_seed": spec.base_seed,
        "auto_seed": spec.auto_seed,
        "points": [
            {
                "key": repr(point.key),
                "config": point.config.stable_hash(),
                "params": point.canonical_params(),
            }
            for point in spec.points
        ],
    }
    payload = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def apply_overrides(name: str, overrides: dict) -> SweepSpec:
    """Rebuild one named sweep from JSON-safe override values.

    ``base`` maps a system *name* through :meth:`SystemConfig.by_name`;
    lists revert to tuples (JSON has no tuple type, the factories take
    tuples); everything else passes through.

    Public because the override vocabulary is shared wire format: run
    manifests store it, and the result server's query protocol accepts
    the same ``{"args": {...}}`` shape (docs/SERVING.md) -- one decoder
    keeps the two from drifting.
    """
    kwargs = {}
    for param, value in (overrides or {}).items():
        if param == "base" and isinstance(value, str):
            value = SystemConfig.by_name(value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[param] = value
    return build_sweep(name, **kwargs)


# Backwards-compatible alias (pre-serve internal name).
_apply_overrides = apply_overrides


@dataclass
class RunManifest:
    """The on-disk identity of one orchestrated run."""

    #: ``[{"name": <registered sweep>, "overrides": {...}}, ...]``
    sweeps: List[dict]
    #: Total shard count N; work units are ``--shard I/N`` slices.
    shards: int
    #: Shared content-addressed cache directory (absolute path).
    cache_dir: str
    #: ``code_version()`` digest of the dispatching tree.
    code: str
    #: sweep name -> :func:`spec_fingerprint` of the built spec.
    fingerprints: Dict[str, str]
    #: Seconds of heartbeat silence before a shard lease is considered
    #: dead and its work unit reassigned.
    lease_ttl: float = 60.0
    #: Modules imported on workers before specs are rebuilt (lets
    #: user-registered sweeps/runners participate in orchestration).
    extra_imports: List[str] = field(default_factory=list)
    created: float = 0.0
    format: int = MANIFEST_FORMAT

    # ------------------------------------------------------------------
    # Construction and (de)serialization
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        sweeps: List[dict],
        shards: int,
        cache_dir: os.PathLike,
        lease_ttl: float = 60.0,
        extra_imports: Optional[List[str]] = None,
    ) -> "RunManifest":
        manifest = cls(
            sweeps=sweeps,
            shards=int(shards),
            cache_dir=str(Path(cache_dir).resolve()),
            code=code_version(),
            fingerprints={},
            lease_ttl=float(lease_ttl),
            extra_imports=list(extra_imports or []),
            created=time.time(),
        )
        specs = manifest.build_specs(verify=False)
        manifest.fingerprints = {
            spec.name: spec_fingerprint(spec) for spec in specs
        }
        return manifest

    @classmethod
    def path(cls, run_dir: os.PathLike) -> Path:
        return Path(run_dir) / MANIFEST_NAME

    def save(self, run_dir: os.PathLike) -> Path:
        path = self.path(run_dir)
        atomic_write_json(path, asdict(self), indent=1)
        return path

    @classmethod
    def load(cls, run_dir: os.PathLike) -> "RunManifest":
        path = cls.path(run_dir)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise FileNotFoundError(
                f"no run manifest at {path} -- is {run_dir!r} an "
                f"orchestrate run directory?"
            ) from exc
        if data.get("format") != MANIFEST_FORMAT:
            raise VersionMismatchError(
                f"manifest format {data.get('format')!r} != "
                f"{MANIFEST_FORMAT} (written by an incompatible version)"
            )
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    # ------------------------------------------------------------------
    # Verification (the mixed-version refusal)
    # ------------------------------------------------------------------
    def verify_code(self) -> None:
        """Refuse to work if this tree's code digest differs."""
        ours = code_version()
        if ours != self.code:
            raise VersionMismatchError(
                f"code digest mismatch: manifest pins {self.code[:12]}..., "
                f"this tree is {ours[:12]}... -- a worker running "
                f"different simulator code must not contribute to this "
                f"run (results would not be bit-identical)"
            )

    def build_specs(self, verify: bool = True) -> List[SweepSpec]:
        """Rebuild every spec; with ``verify`` also check fingerprints."""
        for module in self.extra_imports:
            importlib.import_module(module)
        specs = [
            _apply_overrides(entry["name"], entry.get("overrides"))
            for entry in self.sweeps
        ]
        if verify:
            for spec in specs:
                pinned = self.fingerprints.get(spec.name)
                got = spec_fingerprint(spec)
                if pinned != got:
                    raise VersionMismatchError(
                        f"sweep {spec.name!r} rebuilt to fingerprint "
                        f"{got[:12]}... but the manifest pins "
                        f"{pinned[:12] if pinned else None}... -- the "
                        f"registry on this machine builds a different "
                        f"point grid"
                    )
        return specs
