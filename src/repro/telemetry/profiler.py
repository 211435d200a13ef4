"""Host-time layer budget: stdlib cProfile folded by ``repro`` package.

``sweep --profile`` runs each simulated point -- system acquisition,
drive, stats snapshot and record encode -- under ``cProfile``
(:func:`profile_call`) and folds it into one row per *layer*: the
package directory under ``repro`` that defines each function, so
``interconnect/pcie/link.py`` is ``interconnect.pcie`` and
``cache/tags.py`` is ``cache``.  C functions fold into ``builtins`` and
all other Python code into ``other``.  A row holds the layer's self
time (cProfile's inline time), its share of the total and its calls.

A warm point repeats its per-layer call counts exactly, but cProfile
charges every Python call a fixed cost, which inflates layers of small,
often-called functions (docs/PERFORMANCE.md measures by how much).
The numbers are host wall-clock, so they go only to the per-point
``<key>.profile.json`` artifact, never into result records or the
cross-process telemetry summary.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Tuple

from repro.core.stats import format_table

__all__ = ["fold_stats", "layer_of", "layer_table", "merge_layers",
           "profile_call"]

#: ``.../repro/``: Python files below it belong to a ``repro`` layer.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep


def layer_of(filename: str) -> str:
    """The layer of a function defined in ``filename`` (``co_filename``).

    cProfile names a C function's file ``"~"``.  Modules directly in
    ``repro`` (``__main__.py``) form the ``repro`` layer.
    """
    if filename == "~":
        return "builtins"
    if not filename.startswith(_ROOT):
        return "other"
    package = os.path.dirname(filename[len(_ROOT):])
    return package.replace(os.sep, ".") or "repro"


def _fold(entries: Iterable[Tuple[str, float, int]]) -> List[dict]:
    """``(layer, self seconds, calls)`` entries summed into rows,
    heaviest first."""
    totals: Dict[str, list] = {}
    for layer, seconds, calls in entries:
        total = totals.setdefault(layer, [0.0, 0])
        total[0] += seconds
        total[1] += calls
    whole = sum(seconds for seconds, _calls in totals.values())
    rows = [{"layer": layer, "self_seconds": seconds,
             "share": seconds / whole if whole else 0.0, "calls": calls}
            for layer, (seconds, calls) in totals.items()]
    rows.sort(key=lambda row: (-row["self_seconds"], row["layer"]))
    return rows


def fold_stats(stats: dict) -> List[dict]:
    """Fold a ``pstats`` table -- ``(file, line, name)`` to ``(primitive
    calls, calls, self seconds, cumulative seconds, callers)`` -- by
    layer."""
    return _fold((layer_of(filename), entry[2], entry[1])
                 for (filename, _line, _name), entry in stats.items())


def merge_layers(documents: Iterable[dict]) -> List[dict]:
    """Sum the layer rows of several ``.profile.json`` documents."""
    return _fold((row["layer"], row["self_seconds"], row["calls"])
                 for document in documents
                 for row in document.get("layers", ()))


def profile_call(fn: Callable, *args) -> Tuple[object, dict]:
    """``fn(*args)`` under cProfile: ``(its return value, {"wall_seconds",
    "layers"})``.  ``cProfile`` is imported only here."""
    import cProfile

    profile = cProfile.Profile()
    began = perf_counter()
    value = profile.runcall(fn, *args)
    wall = perf_counter() - began
    profile.create_stats()
    return value, {"wall_seconds": wall, "layers": fold_stats(profile.stats)}


def layer_table(rows: List[dict], title: str) -> str:
    """Layer rows as a printable table (layer, self ms, share, calls)."""
    return format_table(
        ["layer", "self ms", "share", "calls"],
        [(row["layer"], f"{row['self_seconds'] * 1e3:.1f}",
          f"{row['share']:.3f}", row["calls"]) for row in rows],
        title=title,
    )
