"""Randomized differential test of the lifetime-sweep routes.

``run_lifetime_sweep(engine="auto")`` runs a design grid as one fleet
per chip design, with one single-chip group per cell whose workload is
reseeded.  Its reference is ``engine="pooled"``: one independent
:class:`~repro.system.simulator.SystemSimulator` per cell.  The test
draws small grids -- one to three designs, sometimes a second label of
one design, a chip-bound policy factory next to plain policies,
constant, diurnal and random workloads, with and without a sweep
seed, and short decimated horizons -- and asserts that every
:class:`~repro.system.sweeps.SweepCellResult` matches bit for bit.

The tier-1 run uses a small derandomized budget; CI reruns the test
under ``--hypothesis-profile=deep`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.system.dark_silicon import DarkSiliconRotationPolicy
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import (
    ConstantWorkload,
    DiurnalWorkload,
    RandomWorkload,
)

_DESIGNS = ((1, 2), (2, 2), (2, 3))

#: Demand capacity of every drawn workload, in cores; smaller designs
#: drop the excess, larger ones leave cores idle.
_CAPACITY = 4


def _differential_settings() -> settings:
    """A fixed tier-1 budget, or the ``deep`` profile when it is loaded."""
    deep = settings.get_profile("deep")
    if settings.default is deep:
        return deep
    return settings(max_examples=25, derandomize=True, deadline=None)


def _dark_silicon(chip):
    """A policy factory: the dark-silicon policy needs the floorplan."""
    return DarkSiliconRotationPolicy(chip, n_dark=1, dwell_epochs=2)


@st.composite
def grids(draw):
    """Keyword arguments of one small ``run_lifetime_sweep`` grid."""
    designs = draw(st.lists(st.sampled_from(_DESIGNS), min_size=1,
                            max_size=3, unique=True))
    chips = [ChipConfig(rows, cols) for rows, cols in designs]
    if draw(st.booleans()):
        rows, cols = draw(st.sampled_from(designs))
        chips.insert(draw(st.integers(0, len(chips))),
                     ChipConfig(rows, cols, name="twin"))
    policies = {"dark": _dark_silicon}
    if draw(st.booleans()):
        policies["none"] = NoRecoveryPolicy()
    if draw(st.booleans()):
        policies["rr"] = RoundRobinRecoveryPolicy(
            recovery_slots=1, em_alternate_every=draw(st.integers(0, 3)))
    candidates = {
        "flat": ConstantWorkload(
            n_cores=_CAPACITY,
            utilization=draw(st.sampled_from((0.0, 0.35, 0.8)))),
        "diurnal": DiurnalWorkload(
            n_cores=_CAPACITY, period_epochs=draw(st.integers(2, 9))),
        "random": RandomWorkload(
            n_cores=_CAPACITY, seed=draw(st.integers(0, 99)),
            mean_utilization=draw(st.sampled_from((0.3, 0.6)))),
    }
    names = draw(st.lists(st.sampled_from(sorted(candidates)),
                          min_size=1, max_size=3, unique=True))
    return dict(
        policies=policies,
        workloads={name: candidates[name] for name in names},
        chips=chips,
        seed=draw(st.none() | st.integers(0, 2 ** 31 - 1)),
        record_every=draw(st.integers(1, 3)),
        n_epochs=draw(st.integers(4, 24)))


def _bits(result):
    """Every cell field, with floats spelled exactly."""
    return [repr(dataclasses.astuple(cell)) for cell in result.cells]


@_differential_settings()
@given(grid=grids())
def test_auto_route_matches_pooled_cells(grid):
    reports = []
    auto = run_lifetime_sweep(engine="auto", on_report=reports.append,
                              **grid)
    pooled = run_lifetime_sweep(engine="pooled", max_workers=1, **grid)
    assert [report.mode for report in reports] == ["fleet"]
    assert reports[0].n_tasks == len(pooled.cells)
    assert _bits(auto) == _bits(pooled)
