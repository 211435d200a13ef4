"""Replacement policies for set-associative tag stores.

A policy tracks access order *per set* and nominates a victim way when the
set is full.  Policies are deliberately stateless across sets: the tag store
calls ``touch``/``insert``/``evict`` with the set index and way.
"""

from __future__ import annotations

import random
from typing import List


class ReplacementPolicy:
    """Interface: track touches and choose victims within one set."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc

    def touch(self, set_index: int, way: int) -> None:
        """Record an access to ``way`` of ``set_index``."""

    def insert(self, set_index: int, way: int) -> None:
        """Record a fill into ``way`` of ``set_index``."""
        self.touch(set_index, way)

    def victim(self, set_index: int, occupied: List[int]) -> int:
        """Choose a way to evict among ``occupied`` ways (ascending)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all recency/ordering state (back to construction)."""


class _StampPolicy(ReplacementPolicy):
    """Evict the way with the oldest stamp; subclasses choose when to stamp.

    Stamps live in one flat list: way ``w`` of set ``s`` is slot
    ``s * assoc + w``.  Ties go to the lowest way.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._stamp = 0
        self._stamps: List[int] = [0] * (num_sets * assoc)

    def _stamp_way(self, set_index: int, way: int) -> None:
        self._stamp += 1
        self._stamps[set_index * self.assoc + way] = self._stamp

    def victim(self, set_index: int, occupied: List[int]) -> int:
        base = set_index * self.assoc
        stamps = self._stamps[base:base + self.assoc]
        return min(occupied, key=stamps.__getitem__)

    def reset(self) -> None:
        if self._stamp == 0:
            return  # untouched since construction/reset
        self._stamp = 0
        self._stamps = [0] * (self.num_sets * self.assoc)


class LRUPolicy(_StampPolicy):
    """Least-recently-used: evict the way touched longest ago."""

    touch = _StampPolicy._stamp_way


class FIFOPolicy(_StampPolicy):
    """First-in-first-out: evict the way filled longest ago."""

    insert = _StampPolicy._stamp_way


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (seeded for reproducibility)."""

    def __init__(self, num_sets: int, assoc: int, seed: int = 1) -> None:
        super().__init__(num_sets, assoc)
        self._seed = seed
        self._rng = random.Random(seed)

    def victim(self, set_index: int, occupied: List[int]) -> int:
        return self._rng.choice(occupied)

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
