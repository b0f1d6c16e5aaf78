"""Randomized and memory checks of the stacked BTI fleet step.

:meth:`repro.bti.fleet.StackedTrapPopulations.step` advances every
core of every chip in one row-blocked sweep over deduplicated kernels.
Its reference is one independent
:class:`~repro.system.aging.FleetBtiState` per chip, which advances a
single chip with no stacking, blocking, dedup or compaction:

* the differential test draws fleets that cross row-block edges, mix
  sub-step counts 1..64 inside one block, repeat rows (dedup hits),
  carry ``-0.0`` next to ``0.0`` inputs, give resting and stressing
  rows the same dedup scalar, and include all-resting and
  all-stressing chips, and asserts a bitwise match per chip; the
  float32 state stays within ``FLOAT32_MAX_RELATIVE_ERROR``;
* the allocation test pins the transient memory of one varied-fleet
  step with ``tracemalloc``.

The tier-1 run uses a small derandomized budget; CI reruns the
differential test under ``--hypothesis-profile=deep`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bti.fleet import _SUBSTEP_BLOCK_ROWS, StackedTrapPopulations
from repro.bti.traps import TrapPopulationConfig
from repro.system.aging import FleetBtiState
from repro.system.checkpoint import FleetSession
from repro.system.chip import Chip
from repro.system.fleet import (
    FLOAT32_MAX_RELATIVE_ERROR,
    FleetGroup,
    FleetVariationSpec,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.workload import DiurnalWorkload

DT_S = 3600.0

#: Capture acceleration that gives a chip exactly ``k`` sub-steps when
#: multiplied by ``k`` (the 0.99 keeps ``ceil`` off the boundary).
_PER_SUBSTEP = 0.99 * TrapPopulationConfig().lock_age_s / 8.0 / DT_S

#: Per-core capture factors and recovery accelerations are drawn from
#: small sets so rows repeat across chips, with signed zeros included.
_CAPTURE_FACTORS = (1.0, 0.5, 0.125, 0.0, -0.0)
_RECOVERY = (0.0, -0.0, 1.0, 3.5, 40.0, 1e3)


def _differential_settings() -> settings:
    """A fixed tier-1 budget, or the ``deep`` profile when it is loaded."""
    deep = settings.get_profile("deep")
    if settings.default is deep:
        return deep
    return settings(max_examples=20, derandomize=True, deadline=None)


def _draw_epoch(draw, n_chips: int, n_units: int):
    """One epoch's ``(stressing, capture, recovery)`` for the fleet."""
    shape = (n_chips, n_units)
    counts = draw(st.lists(st.integers(1, 70), min_size=n_chips,
                           max_size=n_chips))
    modes = draw(st.lists(st.sampled_from(("rest", "stress", "mixed")),
                          min_size=n_chips, max_size=n_chips))
    stressing = np.zeros(shape, dtype=bool)
    for chip, mode in enumerate(modes):
        if mode == "stress":
            stressing[chip] = True
        elif mode == "mixed":
            stressing[chip] = draw(st.lists(
                st.booleans(), min_size=n_units, max_size=n_units))
    factors = np.array(draw(st.lists(
        st.sampled_from(_CAPTURE_FACTORS), min_size=n_units,
        max_size=n_units)))
    capture = (np.array(counts, dtype=float)[:, None] * _PER_SUBSTEP
               * factors[None, :])
    recovery = np.array(draw(st.lists(
        st.sampled_from(_RECOVERY), min_size=n_chips * n_units,
        max_size=n_chips * n_units))).reshape(shape)
    # A resting row with recovery -c and a stressing row with capture
    # c share their dedup scalar; only the stress flag tells them apart.
    mirrored = np.array(draw(st.lists(
        st.booleans(), min_size=n_chips * n_units,
        max_size=n_chips * n_units))).reshape(shape)
    recovery = np.where(mirrored, -capture, recovery)
    return stressing, capture, recovery


@st.composite
def fleet_epochs(draw):
    """``(n_chips, n_units, epochs)``: three epochs of step inputs.

    Fresh inputs each epoch let cores that aged past the lock-in
    threshold stress again at zero capture, or rest.
    """
    n_chips = draw(st.integers(1, 10))
    wide = draw(st.booleans())
    min_units = _SUBSTEP_BLOCK_ROWS // n_chips + 1 if wide else 1
    n_units = draw(st.integers(min_units, max(min_units, 48)))
    epochs = [_draw_epoch(draw, n_chips, n_units) for _ in range(3)]
    return n_chips, n_units, epochs


@_differential_settings()
@given(fleet=fleet_epochs())
def test_stacked_step_matches_one_state_per_chip(fleet):
    n_chips, n_units, epochs = fleet
    stacked = StackedTrapPopulations(n_chips, n_units)
    reduced = StackedTrapPopulations(n_chips, n_units, dtype=np.float32)
    singles = [FleetBtiState(n_units) for _ in range(n_chips)]
    for stressing, capture, recovery in epochs:
        stacked.step(DT_S, stressing, capture, recovery)
        reduced.step(DT_S, stressing, capture, recovery)
        for chip, single in enumerate(singles):
            single.step(DT_S, stressing[chip], capture[chip],
                        recovery[chip])
    for chip, single in enumerate(singles):
        rows = slice(chip * n_units, (chip + 1) * n_units)
        assert np.array_equal(stacked.occupancy[rows], single.occupancy)
        assert np.array_equal(stacked.age_s[rows], single.age_s)
        assert np.array_equal(stacked.weights[rows], single.weights)
        assert np.array_equal(stacked.permanent_vth_v()[chip],
                              single.permanent_v)
    exact = stacked.delta_vth_v()
    scale = max(float(np.abs(exact).max()), 1e-30)
    error = float(np.abs(reduced.delta_vth_v() - exact).max()) / scale
    assert error <= FLOAT32_MAX_RELATIVE_ERROR


def test_varied_fleet_step_allocates_under_three_state_arrays():
    per = 64
    groups = tuple(
        FleetGroup(n_chips=per, workload=DiurnalWorkload(n_cores=9),
                   policy=policy, phases=(phase,) * per)
        for policy in (RoundRobinRecoveryPolicy(recovery_slots=3),
                       NoRecoveryPolicy())
        for phase in (0, 12))
    session = FleetSession(
        Chip(3, 3), groups=groups,
        variation=FleetVariationSpec(capture_sigma=0.06,
                                     recovery_sigma=0.08,
                                     em_current_sigma=0.05),
        seed=0)
    session.advance(4)
    bti = session._simulator.state.bti
    captured = []
    bti.step = lambda *args: captured.append(args)
    session.advance(1)
    del bti.step
    dt_s, stressing, capture, recovery = captured[0]
    # The fleet is varied: kernel dedup leaves many distinct rows.
    scalar = np.where(stressing, capture, recovery)
    assert np.unique(scalar).size > math.sqrt(scalar.size)
    tracemalloc.start()
    try:
        bti.step(dt_s, stressing, capture, recovery)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * bti.occupancy.nbytes
