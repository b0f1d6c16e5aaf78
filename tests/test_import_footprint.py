"""Guard the import footprint of the library's entry points.

``scipy.stats`` (~1 s), ``scipy.optimize`` (~0.5 s) and
``scipy.sparse`` (~0.1 s) dominate a cold ``import`` of the fleet and
sweep layers, yet no fleet, checkpoint or sweep run calls into them.
Every module reachable from those layers therefore imports them inside
the one function that needs them.  This test imports the entry points
in a fresh interpreter and fails if any of the three got back onto the
import path; it then calls the two deferred users, so the deferred
imports are shown to resolve.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = (
    "repro.cli",
    "repro.system.fleet",
    "repro.system.checkpoint",
    "repro.system.sweeps",
    "repro.assist.sweeps",
    "repro.em.statistics",
)

DEFERRED = ("scipy.stats", "scipy.optimize", "scipy.sparse")

PROBE = f"""
import importlib, sys
for name in {ENTRY_POINTS!r}:
    importlib.import_module(name)
loaded = sorted(name for name in {DEFERRED!r} if name in sys.modules)
print("eager:", ",".join(loaded))

import numpy as np
import scipy.sparse
from repro.em.statistics import WirePopulationSpec
from repro.solvers.factorized import SparseLuOperator

t50 = WirePopulationSpec(n_wires=100, median_ttf_s=1e8,
                         sigma=0.4).chip_quantile(0.5)
assert 0.0 < t50 < 1e8, t50
matrix = scipy.sparse.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
x = SparseLuOperator(matrix).solve(np.array([1.0, 2.0]))
assert np.allclose(matrix @ x, [1.0, 2.0]), x
print("deferred: ok")
"""


def test_entry_points_leave_heavy_scipy_subpackages_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    assert lines == ["eager: ", "deferred: ok"], completed.stdout
