"""Identical chips advance once: chip runs against a chip-per-cohort fleet.

The fleet state keeps one row block per *chip run* -- a maximal range
of consecutive chips of one cohort whose variation scales are bitwise
equal -- and expands per-run arrays to chips only at its edges
(records, results, session queries, snapshots).  The reference here
is the same population written as one ``FleetGroup(n_chips=1)`` per
chip: every cohort then holds one chip, so no run ever spans two
chips.  The randomized differential test draws chip shapes, group
sizes, phase layouts with repeated runs, the variation (none, a
pre-drawn draw with runs of repeated scales, or a lognormal spec), the
state dtype, the chunk height, the checkpoint cadence and a mid-run
interrupt-and-resume, and asserts every ``FleetResult`` field equals
the reference bit for bit.  One chip per example is also checked
against a standalone :class:`~repro.system.simulator.SystemSimulator`,
so the pin does not rest on the fleet engine alone.

The tier-1 run uses a small derandomized budget; CI reruns the test
under ``--hypothesis-profile=deep`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import copy
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.system.checkpoint as checkpoint_module
from repro.system.checkpoint import FleetSession
from repro.system.chip import Chip
from repro.system.fleet import (
    FleetGroup,
    FleetVariation,
    FleetVariationSpec,
    run_fleet_lifetime_study,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.simulator import SystemSimulator
from repro.system.workload import (
    ConstantWorkload,
    DiurnalWorkload,
    PhasedWorkload,
    RandomWorkload,
)

RESULT_ARRAYS = (
    "times_s", "worst_degradation", "mean_degradation",
    "dropped_demand", "final_delta_vth_v", "final_permanent_vth_v",
    "final_em_drift_ohm", "em_failures", "migration_events",
    "total_demand", "total_dropped_demand")

SCALES = ("capture_scale", "recovery_scale", "em_current_scale")

SPEC = FleetVariationSpec(capture_sigma=0.1, recovery_sigma=0.05,
                          em_current_sigma=0.1)

_SHAPES = ((1, 2), (2, 2), (2, 3))


def _differential_settings() -> settings:
    """A fixed tier-1 budget, or the ``deep`` profile when it is loaded."""
    deep = settings.get_profile("deep")
    if settings.default is deep:
        return deep
    return settings(max_examples=60, derandomize=True, deadline=None)


def assert_results_bitwise_equal(a, b):
    for field in RESULT_ARRAYS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        assert left.shape == right.shape, field
        assert left.tobytes() == right.tobytes(), field
    for field in SCALES:
        assert getattr(a.variation, field).tobytes() \
            == getattr(b.variation, field).tobytes(), field
    assert a.n_epochs == b.n_epochs


def one_chip_groups(groups):
    """The population as one single-chip group per chip."""
    return tuple(
        FleetGroup(n_chips=1, workload=group.workload,
                   policy=group.policy,
                   phases=(None if group.phases is None
                           else (group.phases[k],)))
        for group in groups for k in range(group.n_chips))


# -- strategies --------------------------------------------------------------


def _workload(kind: str, n_cores: int):
    if kind == "constant":
        return ConstantWorkload(n_cores=n_cores, utilization=0.7)
    if kind == "diurnal":
        return DiurnalWorkload(n_cores=n_cores, period_epochs=6)
    return RandomWorkload(n_cores=n_cores, seed=3)


@st.composite
def blocks(draw, n: int, values):
    """``n`` entries in runs of repeated values."""
    out = []
    while len(out) < n:
        out += [draw(values)] * draw(st.integers(1, n - len(out)))
    return out


@st.composite
def populations(draw):
    """Keyword arguments of one small fleet study and its reference."""
    rows, cols = draw(st.sampled_from(_SHAPES))
    n_cores = rows * cols
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        n_chips = draw(st.integers(1, 5))
        phases = None
        if draw(st.booleans()):
            phases = tuple(draw(blocks(n_chips, st.sampled_from(
                (0, 2, 5)))))
        # The policies ignore the shift values, so a varied cohort's
        # shared (cohort-worst) aging observable changes nothing.
        policy = draw(st.sampled_from((
            NoRecoveryPolicy(),
            RoundRobinRecoveryPolicy(recovery_slots=1))))
        groups.append(FleetGroup(
            n_chips=n_chips, policy=policy, phases=phases,
            workload=_workload(draw(st.sampled_from(
                ("constant", "diurnal", "random"))), n_cores)))
    n_chips = sum(group.n_chips for group in groups)
    kind = draw(st.sampled_from(("none", "runs", "spec")))
    if kind == "none":
        variation = None
    elif kind == "spec":
        variation = SPEC
    else:
        values = st.sampled_from((1.0, 0.9, 1.15))
        variation = FleetVariation(**{
            name: np.array(draw(blocks(n_chips, values)))
            for name in SCALES})
    n_epochs = draw(st.integers(1, 7))
    return dict(
        chip=(rows, cols), groups=tuple(groups), variation=variation,
        n_epochs=n_epochs, record_every=draw(st.integers(1, 3)),
        state_dtype=draw(st.sampled_from((np.float64, np.float32))),
        max_chunk_chips=draw(st.one_of(
            st.none(), st.integers(1, n_chips))),
        checkpoint_every=draw(st.one_of(
            st.none(), st.integers(1, n_epochs))),
        interrupt=draw(st.booleans()), seed=draw(st.integers(0, 3)))


# -- the differential test --------------------------------------------------


def _interrupted_then_resumed(study: dict, directory: str):
    """Stop the study after its first progress snapshot, then resume."""
    real = checkpoint_module.save_chunk_progress

    def save_then_stop(ckpt, index, run):
        real(ckpt, index, run)
        raise KeyboardInterrupt

    checkpoint_module.save_chunk_progress = save_then_stop
    try:
        run_fleet_lifetime_study(checkpoint_dir=directory, **study)
    except KeyboardInterrupt:
        pass
    finally:
        checkpoint_module.save_chunk_progress = real
    return run_fleet_lifetime_study(checkpoint_dir=directory, **study)


def _standalone(case: dict, index: int, variation: FleetVariation):
    """Chip ``index`` run on its own single-chip engine."""
    first = 0
    for group in case["groups"]:
        if index < first + group.n_chips:
            break
        first += group.n_chips
    phase = 0 if group.phases is None else group.phases[index - first]
    workload = copy.deepcopy(group.workload)
    if phase:
        workload = PhasedWorkload(workload, phase)
    simulator = SystemSimulator(Chip(*case["chip"]),
                                variation=variation.chip(index))
    return simulator.run(case["n_epochs"], workload,
                         copy.deepcopy(group.policy),
                         record_every=case["record_every"])


@_differential_settings()
@given(case=populations(), data=st.data())
def test_chip_runs_match_one_chip_per_cohort(case, data):
    study = dict(n_epochs=case["n_epochs"],
                 record_every=case["record_every"],
                 variation=case["variation"], seed=case["seed"],
                 state_dtype=case["state_dtype"], max_workers=0)
    reference = run_fleet_lifetime_study(
        case["chip"], groups=one_chip_groups(case["groups"]), **study)
    study.update(chip=case["chip"], groups=case["groups"],
                 max_chunk_chips=case["max_chunk_chips"])
    collapsed = run_fleet_lifetime_study(**study)
    assert_results_bitwise_equal(collapsed, reference)
    if case["checkpoint_every"] is not None:
        study["checkpoint_every"] = case["checkpoint_every"]
        with tempfile.TemporaryDirectory() as directory:
            if case["interrupt"]:
                resumed = _interrupted_then_resumed(study, directory)
            else:
                resumed = run_fleet_lifetime_study(
                    checkpoint_dir=directory, **study)
        assert_results_bitwise_equal(resumed, reference)
    # The snapshot state itself: a short horizon keeps EM nucleation
    # progress out of every result field, but not out of em/progress_s.
    collapsed_arrays, reference_arrays = (
        FleetSession(case["chip"], groups=groups,
                     record_every=case["record_every"],
                     variation=case["variation"], seed=case["seed"],
                     state_dtype=case["state_dtype"])
        .advance(case["n_epochs"]).snapshot().arrays
        for groups in (case["groups"], one_chip_groups(case["groups"])))
    for name, array in reference_arrays.items():
        if name.startswith(("bti/", "em/", "run/")):
            ours = collapsed_arrays[name]
            assert (ours.dtype, ours.shape) == (array.dtype,
                                                array.shape), name
            assert ours.tobytes() == array.tobytes(), name
    if case["state_dtype"] is np.float64:
        index = data.draw(st.integers(0, reference.n_chips - 1))
        alone = _standalone(case, index, reference.variation)
        chip = collapsed.chip_result(index)
        for field in ("worst_degradation", "mean_degradation",
                      "dropped_demand", "final_delta_vth_v",
                      "final_permanent_vth_v", "final_em_drift_ohm",
                      "em_failures"):
            assert np.asarray(getattr(chip, field)).tobytes() \
                == np.asarray(getattr(alone, field)).tobytes(), field
        assert chip.migration_events == alone.migration_events
        assert chip.total_demand == alone.total_demand


# -- sessions ---------------------------------------------------------------


def phased_groups():
    return (
        FleetGroup(n_chips=5, workload=DiurnalWorkload(
            n_cores=4, period_epochs=8),
            policy=RoundRobinRecoveryPolicy(recovery_slots=1),
            phases=(0, 0, 3, 3, 3)),
        FleetGroup(n_chips=3, workload=ConstantWorkload(
            n_cores=4, utilization=0.7), policy=NoRecoveryPolicy()),
    )


@pytest.mark.parametrize("state_dtype", [np.float64, np.float32])
def test_session_queries_match_one_chip_per_cohort(state_dtype):
    session = FleetSession((2, 2), groups=phased_groups(),
                           record_every=3, state_dtype=state_dtype)
    reference = FleetSession((2, 2),
                             groups=one_chip_groups(phased_groups()),
                             record_every=3, state_dtype=state_dtype)
    assert session._simulator.state.n_runs == 3
    for step in (1, 2, 3):
        session.advance(step)
        reference.advance(step)
        assert session.delta_vth_v().tobytes() \
            == reference.delta_vth_v().tobytes()
        assert session.guardbands.tobytes() \
            == reference.guardbands.tobytes()
        for fraction in (0.0, 0.5, 0.9, 1.0):
            assert session.delta_vth_quantile(fraction) \
                == reference.delta_vth_quantile(fraction)
            assert session.guardband_quantile(fraction) \
                == reference.guardband_quantile(fraction)
        assert_results_bitwise_equal(session.result(),
                                     reference.result())


# -- observability ----------------------------------------------------------


def _engine_counters(**kwargs):
    reports = []
    run_fleet_lifetime_study((2, 2), n_epochs=2, max_workers=0,
                             on_report=reports.append, **kwargs)
    return reports[0].cache_counters["fleet.engine"]


def test_report_counts_the_runs_each_chunk_advanced():
    plain = dict(n_chips=6, workload=ConstantWorkload(n_cores=4),
                 policy=NoRecoveryPolicy())
    identical = _engine_counters(**plain)
    assert (identical["chips"], identical["runs"]) == (6, 1)
    # Chunks never share a run: two chunks, one run each.
    chunked = _engine_counters(max_chunk_chips=4, **plain)
    assert (chunked["chips"], chunked["runs"]) == (6, 2)
    # One run per phase block of the first group, one for the second.
    grouped = _engine_counters(groups=phased_groups())
    assert (grouped["chips"], grouped["runs"]) == (8, 3)
    varied = _engine_counters(variation=SPEC, **plain)
    assert (varied["chips"], varied["runs"]) == (6, 6)
