"""Per-transaction simulation state is freed by reference counting.

A callback on the DMA -> SMMU -> walker -> fabric path that can reach
itself (a closure calling a sibling closure that calls it back) puts
every transaction it touches into a reference cycle, which only
Python's cycle collector can free.  These tests run one warm point per
built-in runner, fault-free and under every fault preset, with the
collector off, then collect with ``gc.DEBUG_SAVEALL`` so everything the
point left in cycles lands in ``gc.garbage``.
"""

import gc
from pathlib import Path

import pytest

import repro
from repro.cache.cache import _Fetch, _Miss
from repro.dma.descriptor import DMADescriptor
from repro.dma.engine import _SegmentState, _Work
from repro.faults import FAULT_PRESETS, fault_preset
from repro.faults.runner import apply_faults
from repro.faults.spec import DeviceLostError
from repro.sim.transaction import Transaction
from repro.sweep.spec import build_sweep, resolve_runner

#: One registered point per built-in runner, at the smallest size the
#: suite builds its sweep with: (sweep, factory kwargs, point key).
CASES = {
    "gemm": ("access-modes", {"size": 16}, "DC"),
    "vit": ("ext-cxl-vit", {}, "vit_devmem_pcie"),
    "multigemm": ("topo-contention", {"size": 32}, 1),
    "peer": ("topo-p2p", {"sizes": (4096,)}, ("p2p", 4096)),
    "resilience": ("resilience-error-rate",
                   {"size_bytes": 4096, "transfers": 2}, 0.0),
}

#: Objects that live for one transaction, segment or event.  None of
#: them may ever need the cycle collector.
PER_TRANSACTION = (Transaction, DMADescriptor, _Work, _SegmentState, _Miss,
                   _Fetch)

#: Cyclic objects a warm point may leave, measured on CPython 3.11 with
#: the points above under every preset: none.  (Per-segment closure
#: cycles left 27-1,183 objects on these points, growing with the number
#: of DMA segments; docs/PERFORMANCE.md, "Garbage collection".)
BOUND = 0


def _point(runner_name, preset):
    sweep, kwargs, key = CASES[runner_name]
    spec = build_sweep(sweep, **kwargs)
    assert spec.runner == runner_name
    if preset is not None:
        spec = apply_faults(spec, fault_preset(preset))
    return next(p for p in spec.points if p.key == key)


def _run(runner, point):
    try:
        runner.run(point.config, **point.params)
    except DeviceLostError:
        pass  # a crashed endpoint refusing a launch is a valid outcome


def _cyclic_garbage(run):
    """Everything ``run()`` leaves that only the cycle collector frees."""
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    saved = len(gc.garbage)
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        run()
        gc.collect()
        return gc.garbage[saved:]
    finally:
        del gc.garbage[saved:]
        gc.set_debug(debug)
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("preset", [None] + sorted(FAULT_PRESETS))
@pytest.mark.parametrize("runner_name", sorted(CASES))
def test_warm_point_leaves_no_transaction_cycles(runner_name, preset):
    runner = resolve_runner(runner_name)
    point = _point(runner_name, preset)
    _run(runner, point)  # build the memoized system: measure a warm point
    garbage = _cyclic_garbage(lambda: _run(runner, point))
    stuck = sorted({type(obj).__name__ for obj in garbage
                    if isinstance(obj, PER_TRANSACTION)})
    assert not stuck, f"per-transaction objects in reference cycles: {stuck}"
    assert len(garbage) <= BOUND, len(garbage)


def test_package_does_not_tune_the_collector():
    """Cycles are removed at the source, never hidden by GC settings."""
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}: {call}"
        for path in sorted(root.rglob("*.py"))
        for call in ("gc.disable", "gc.freeze", "gc.set_threshold")
        if call in path.read_text(encoding="utf-8")
    ]
    assert not offenders
