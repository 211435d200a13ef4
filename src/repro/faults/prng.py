"""Counter-based deterministic PRNG for fault injection.

Fault schedules must be bit-identical across reruns and ``--shard``
slices, so the generator carries **no mutable state**: every draw is a
pure function of ``(seed, label, counter)``.  The label (a link name)
is hashed once into a 64-bit *stream*; each draw finalizes
``stream ^ mix(counter)`` through the splitmix64 mixer.  Per-link
counters live with the link's fault state and advance once per TLP
train, and the event order is deterministic, so the per-link train
sequence (and therefore every draw) is identical on every rerun.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """The splitmix64 finalizer: a bijective 64-bit avalanche mix."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def stream_for(seed: int, label: str) -> int:
    """A 64-bit stream identity for ``(seed, label)``.

    Hash-based (not ``hash()``) so it is stable across interpreter runs
    and ``PYTHONHASHSEED`` values -- the same guarantee the sweep cache
    keys rely on.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def draw64(stream: int, counter: int) -> int:
    """The ``counter``-th 64-bit draw of ``stream`` (pure function)."""
    return mix64(stream ^ mix64((counter * _GAMMA) & _MASK64))


def uniform(stream: int, counter: int) -> float:
    """The ``counter``-th draw as a float in ``[0, 1)``."""
    return draw64(stream, counter) / float(1 << 64)
