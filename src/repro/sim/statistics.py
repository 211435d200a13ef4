"""Statistics primitives (scalars, histograms, groups).

Every :class:`~repro.sim.simobject.SimObject` owns a :class:`StatGroup`;
components register named statistics and the experiment runner flattens them
into the report printed by the benchmark harness, mirroring gem5's
``stats.txt``.

Snapshot cost
-------------
Each group carries a *dirty flag* and a *generation counter*.  Stats mark
their group dirty on every mutation (one attribute store -- cheap enough
for the event hot path) and :meth:`StatGroup.flatten` memoizes its rows:
a clean group returns its cached snapshot without walking a single stat,
and a freshly *reset* group serves a shared pristine snapshot computed at
most once per process.  A sweep that resets a memoized system between
points therefore pays O(components actually touched) per snapshot instead
of O(all stats) -- the values are bit-identical either way.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class _DetachedGroup:
    """Dirty-flag sink for stats constructed outside a StatGroup."""

    __slots__ = ("dirty",)

    def __init__(self) -> None:
        self.dirty = True


#: Shared sink so standalone stats (tests, ad-hoc counters) stay cheap.
_DETACHED = _DetachedGroup()


class Scalar:
    """A named accumulating counter."""

    __slots__ = ("name", "desc", "value", "_group")

    def __init__(self, name: str, desc: str = "", group=None) -> None:
        self.name = name
        self.desc = desc
        self.value: float = 0
        self._group = group if group is not None else _DETACHED

    def inc(self, amount: float = 1) -> None:
        self.value += amount
        self._group.dirty = True

    def set(self, value: float) -> None:
        self.value = value
        self._group.dirty = True

    def reset(self) -> None:
        self.value = 0
        self._group.dirty = True

    def __repr__(self) -> str:
        return f"Scalar({self.name}={self.value})"


class Histogram:
    """A sample accumulator tracking count / sum / min / max.

    Keeps running sums rather than raw samples so memory stays bounded for the
    tens of millions of samples the address-translation experiments record.
    """

    __slots__ = ("name", "desc", "count", "total", "min", "max", "_group")

    def __init__(self, name: str, desc: str = "", group=None) -> None:
        self.name = name
        self.desc = desc
        self._group = group if group is not None else _DETACHED
        # Construction-time values, set directly: reset() would mark the
        # owning group dirty, but nothing observable has changed yet.
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._group.dirty = True

    def sample(self, value: float, repeat: int = 1) -> None:
        """Record ``value`` occurring ``repeat`` times."""
        self.count += repeat
        self.total += value * repeat
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._group.dirty = True

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:.3f})"


class StatGroup:
    """A named collection of statistics belonging to one component.

    ``dirty`` is set by member stats on every mutation; ``generation``
    increments whenever a new snapshot becomes observable (a flatten that
    recomputed, or a reset).  Consumers comparing generations can tell
    "has this component's snapshot changed?" without walking it.
    """

    __slots__ = ("owner_name", "_stats", "dirty", "generation",
                 "_rows", "_pristine_rows", "_pristine_valid")

    def __init__(self, owner_name: str) -> None:
        self.owner_name = owner_name
        self._stats: Dict[str, object] = {}
        self.dirty = False
        self.generation = 0
        #: Cached flatten() rows, valid while not dirty.
        self._rows: Optional[List[Tuple[str, float]]] = None
        #: flatten() rows at construction/reset values, computed once.
        self._pristine_rows: Optional[List[Tuple[str, float]]] = None
        #: True while no stat has mutated since construction/reset --
        #: the *only* state in which computed rows may be captured as
        #: pristine.  (``not dirty`` is weaker: flatten clears dirty, so
        #: a mutated-then-flattened group is clean but not pristine.)
        self._pristine_valid = True

    def _register(self, name: str, stat) -> None:
        self._stats[name] = stat
        # A new stat changes the snapshot *shape*: drop both caches.
        # `dirty` is deliberately untouched -- the new stat holds its
        # construction value, so if the group was clean it still is, and
        # the next flatten() of a clean group captures pristine rows.
        self._rows = None
        self._pristine_rows = None

    def scalar(self, name: str, desc: str = "") -> Scalar:
        """Create (or fetch) a scalar counter."""
        stat = self._stats.get(name)
        if stat is None:
            stat = Scalar(name, desc, group=self)
            self._register(name, stat)
        if not isinstance(stat, Scalar):
            raise TypeError(f"stat {name!r} already exists with another type")
        return stat

    def histogram(self, name: str, desc: str = "") -> Histogram:
        """Create (or fetch) a histogram."""
        stat = self._stats.get(name)
        if stat is None:
            stat = Histogram(name, desc, group=self)
            self._register(name, stat)
        if not isinstance(stat, Histogram):
            raise TypeError(f"stat {name!r} already exists with another type")
        return stat

    def __getitem__(self, name: str):
        return self._stats[name]

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def reset(self) -> None:
        """Return every stat to its construction value (O(stats)).

        Afterwards the group is clean and ``flatten`` serves the shared
        pristine snapshot without walking the stats again.
        """
        for stat in self._stats.values():
            stat.reset()
        self.dirty = False
        self.generation += 1
        self._rows = self._pristine_rows
        self._pristine_valid = True

    def items(self) -> Iterator[Tuple[str, object]]:
        return iter(self._stats.items())

    def _compute_rows(self) -> List[Tuple[str, float]]:
        rows: List[Tuple[str, float]] = []
        prefix = self.owner_name
        for name, stat in sorted(self._stats.items()):
            dotted = f"{prefix}.{name}"
            if isinstance(stat, Scalar):
                rows.append((dotted, stat.value))
            elif isinstance(stat, Histogram):
                rows.append((f"{dotted}.count", stat.count))
                rows.append((f"{dotted}.mean", stat.mean))
        return rows

    def flatten(self) -> List[Tuple[str, float]]:
        """Return (dotted-name, value) pairs for reporting.

        Memoized: a clean group returns the cached rows without touching
        its stats.  Treat the result as read-only -- it may be shared
        across calls (and, for pristine groups, across resets).
        """
        rows = self._rows
        if rows is not None and not self.dirty:
            return rows
        if self.dirty:
            self._pristine_valid = False
        rows = self._compute_rows()
        if self._pristine_valid and self._pristine_rows is None:
            self._pristine_rows = rows
        self.dirty = False
        self.generation += 1
        self._rows = rows
        return rows
