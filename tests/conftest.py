"""Shared fixtures for the test suite.

The Table I calibration is deterministic and moderately expensive
(~0.3 s), so it is computed once per session.  EM tests that need the
full PDE use a coarsened grid via the ``fast_em_config`` fixture --
fidelity studies live in the benchmarks, not the unit tests.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.bti.calibration import BtiCalibration, default_calibration
from repro.em.korhonen import KorhonenConfig
from repro.em.line import EmLineConfig


@pytest.fixture(scope="session")
def calibration() -> BtiCalibration:
    """The library-default Table I calibration (session-cached)."""
    return default_calibration()


@pytest.fixture()
def fast_em_config() -> EmLineConfig:
    """A coarse EM-line configuration for quick PDE tests."""
    return EmLineConfig(
        korhonen=KorhonenConfig(n_nodes=301, max_dt_s=120.0),
        max_step_s=120.0)


#: ``--hypothesis-profile=deep`` reruns the randomized differential
#: tests far past their tier-1 example budget (a named CI step).
settings.register_profile("deep", max_examples=300, deadline=None,
                          print_blob=True)
