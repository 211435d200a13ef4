"""Replacement policies for set-associative tag stores.

A policy is the recency state of one tag store plus the rule for when it
changes.  The :class:`~repro.cache.tags.TagStore` range loops read and
write that state inline (one attribute fetch per range, not one method
call per line), so a policy exposes data rather than per-way hooks:

``stamps``
    One stamp per slot (way ``w`` of set ``s`` is slot ``s * assoc +
    w``), or ``None`` when victims ignore order.  A full set evicts its
    oldest stamp; ties go to the lowest way.
``clock``
    The last stamp handed out.
``stamp_on_touch``
    An access to (or refill of) a resident line restamps its way (LRU).
    Every policy with stamps stamps on insert.
"""

from __future__ import annotations

import random
from typing import List, Optional


class ReplacementPolicy:
    """Recency state shared by a tag store's range loops."""

    stamp_on_touch = False

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.clock = 0
        self.stamps: Optional[List[int]] = [0] * (num_sets * assoc)

    def choose(self, ways: List[int]) -> int:
        """Victim way of a full set when ``stamps`` is None."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all recency/ordering state, for an emptied tag store.

        Only the clock rewinds.  Stale stamps are never compared: a set
        is consulted for a victim only when full, and every way of a
        full set was stamped by its insert after the reset.
        """
        self.clock = 0


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: evict the way touched longest ago."""

    stamp_on_touch = True


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: evict the way filled longest ago."""


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (seeded for reproducibility)."""

    def __init__(self, num_sets: int, assoc: int, seed: int = 1) -> None:
        super().__init__(num_sets, assoc)
        self.stamps = None
        self._seed = seed
        self._rng = random.Random(seed)

    def choose(self, ways: List[int]) -> int:
        return self._rng.choice(ways)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, num_sets: int, assoc: int) -> ReplacementPolicy:
    """Instantiate a policy by name ('lru', 'fifo', 'random')."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(num_sets, assoc)
