"""Timing-mode and surrogate runs never import numpy.

numpy backs only the functional data path (``functional=True``,
``gemm --verify``).  Importing it costs every sweep process, pool
worker and result server a third of its start-up and about 12 MB of
resident memory, so each timing path, the sweep listing and the
surrogate scoring path must stay free of it.  The check runs in a
fresh interpreter: the test process itself has long since imported
numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

GUARD = """
import sys

import repro
import repro.__main__
import repro.serve
import repro.surrogate
import repro.sweep
from repro.core.config import SystemConfig
from repro.core.runner import run_gemm
from repro.serve.service import SweepService
from repro.surrogate import estimate_spec
from repro.sweep import build_sweep, run_points

run_gemm(SystemConfig.by_name("PCIe-8GB"), 32, 32, 32)
run_gemm(SystemConfig.by_name("DevMem"), 32, 32, 32)
vit = build_sweep("fig8-gemm-split", model="base", dim_scale=0.0625)
topo = build_sweep("topo-contention", size=32)
outcomes = run_points([(vit, vit.points[0]), (topo, topo.points[0])],
                      workers=1, cache=False)
assert all(outcome.record for outcome in outcomes)
assert SweepService().sweeps()
assert build_sweep("surrogate-xval").points
assert estimate_spec(build_sweep("fig7-transformer"))
assert "numpy" not in sys.modules, (
    "a timing or surrogate run imported numpy; python -X importtime names "
    "the importer")

from repro.workloads import GemmWorkload

result = run_gemm(SystemConfig.by_name("PCIe-8GB"), 16, 16, 16,
                  functional=True)
import numpy as np

a, b = GemmWorkload(16, 16, 16).generate()
assert np.array_equal(result.c_matrix, GemmWorkload(16, 16, 16).reference(a, b))
print("ok")
"""


def test_timing_runs_leave_numpy_unimported():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", GUARD], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
