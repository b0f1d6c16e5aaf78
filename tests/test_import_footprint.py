"""Guard the import footprint of the library's entry points.

``scipy.stats`` (~1 s), ``scipy.optimize`` (~0.5 s) and
``scipy.sparse`` (~0.1 s) dominate a cold ``import`` of the fleet and
sweep layers, yet no fleet, checkpoint or sweep run calls into them.
Every module reachable from those layers therefore imports them inside
the one function that needs them.  This test imports the entry points
in a fresh interpreter and fails if any of the three got back onto the
import path; it then calls the two deferred users, so the deferred
imports are shown to resolve.  A second probe imports only the CLI,
whose module needs nothing numeric: ``repro.analysis`` resolves its
re-exports lazily, so the solver core and ``scipy.linalg`` stay out.
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


#: The CLI's own import needs only ``repro.analysis.reporting``; the
#: solver core and ``scipy.linalg`` load with the sub-command that
#: runs them.  The package's other re-exports must still resolve.
CLI_PROBE = """
import sys
import repro.cli
loaded = sorted(name for name in ("repro.solvers", "scipy.linalg")
                if name in sys.modules)
print("eager:", ",".join(loaded))

import repro.analysis
for name in repro.analysis.__all__:
    getattr(repro.analysis, name)
print("exports: ok")
"""


def _run_probe(probe: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


def test_entry_points_leave_heavy_scipy_subpackages_unloaded():
    lines = _run_probe(PROBE)
    assert lines == ["eager: ", "deferred: ok"], lines


def test_cli_import_leaves_solvers_and_scipy_linalg_unloaded():
    lines = _run_probe(CLI_PROBE)
    assert lines == ["eager: ", "exports: ok"], lines
