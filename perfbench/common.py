"""Paths, pinned records and small statistics shared by the benchmark."""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
#: Temporary result caches and span dumps (git-ignored).
WORK = ROOT / ".perfbench"
PINS = PERFBENCH / "pins.json"


class SourceTreeMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def have_source_tree() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not have_source_tree():
        raise SourceTreeMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SourceTreeMissing(
            f"repro was imported from {origin}, not from {SRC}")


def child_env() -> dict:
    """Environment for the processes the benchmark starts."""
    return dict(os.environ, PYTHONPATH=str(SRC))


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(reason)

    def add(self, summary: dict) -> None:
        """Fold in the counts a work process reported."""
        self.attempted += summary["attempted"]
        self.failed += summary["failed"]
        self.errors.extend(summary["errors"][:5 - len(self.errors)])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors}


def canonical(record) -> bytes:
    """The byte form records are pinned and compared in."""
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def digest(record) -> str:
    return hashlib.sha256(canonical(record)).hexdigest()


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def median(values) -> float:
    return percentile(values, 50)


#: Each point's latency, and each pass's or round's time, is this
#: percentile of its samples in a run.  Other tenants of a shared host
#: slow whole stretches of a run, by up to 2x, and only ever add time;
#: the 10th percentile stays on the host's uncontended speed as long as
#: a tenth of the run does, and moved half as far as a median between
#: runs.
FLOOR = 10


def floor(samples) -> float:
    return percentile(samples, FLOOR)


def point_percentile(by_point: dict, pct: float) -> float:
    """Percentile, over the points, of each point's :func:`floor`.

    A grid's points take different times, so pooled samples form one
    cluster per point and a pooled percentile can sit on the edge
    between two clusters.  Each point's floor over the run is steady;
    the percentile then ranks the points.
    """
    return percentile([floor(samples) for samples in by_point.values()],
                      pct)


def pooled(by_point: dict) -> list:
    return [sample for samples in by_point.values() for sample in samples]


def sim_ratios(records) -> dict:
    """Simulated per-layer ratios over a list of point records.

    Read from each record's ``component_stats`` (and ``table4`` for the
    SMMU).  They are functions of the records alone, so they repeat
    exactly from run to run.
    """
    sums = dict.fromkeys(
        ("cache_hits", "cache_lines", "row_hits", "row_accesses",
         "link_busy", "link_time", "array_busy", "array_time",
         "tlb_lookups", "tlb_misses"), 0)
    for record in records:
        ticks = record.get("ticks", 0)
        components: dict = {}
        for key, value in record.get("component_stats", {}).items():
            component, _, stat = key.rpartition(".")
            components.setdefault(component, {})[stat] = value
        for stats in components.values():
            if "hits" in stats and "evictions" in stats:
                sums["cache_hits"] += stats["hits"]
                sums["cache_lines"] += stats["hits"] + stats["misses"]
            if "row_hits" in stats:
                sums["row_hits"] += stats["row_hits"]
                sums["row_accesses"] += stats["row_hits"] + stats["row_misses"]
            if "busy_ticks" in stats and "tlps" in stats:
                sums["link_busy"] += stats["busy_ticks"]
                sums["link_time"] += ticks
            if "busy_ticks" in stats and "macs" in stats:
                sums["array_busy"] += stats["busy_ticks"]
                sums["array_time"] += ticks
        table4 = record.get("table4") or {}
        sums["tlb_lookups"] += table4.get("utlb_lookup_times", 0)
        sums["tlb_misses"] += table4.get("utlb_miss_times", 0)

    def ratio(num, den):
        return sums[num] / sums[den] if sums[den] else 0.0

    return {
        "cache.hit_rate": ratio("cache_hits", "cache_lines"),
        "memory.row_hit_rate": ratio("row_hits", "row_accesses"),
        "interconnect.pcie.busy_frac": ratio("link_busy", "link_time"),
        "accel.busy_frac": ratio("array_busy", "array_time"),
        "smmu.tlb_hit_rate": (
            1.0 - sums["tlb_misses"] / sums["tlb_lookups"]
            if sums["tlb_lookups"] else 0.0),
    }
