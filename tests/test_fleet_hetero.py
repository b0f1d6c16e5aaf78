"""Heterogeneous-fleet contracts: groups, chunking, dtype, routing.

The fleet engine generalizes from "one chip model, N variated copies"
to true mixed populations (:class:`~repro.system.fleet.FleetGroup`)
while keeping the stacked-tensor advance.  These tests pin the
contracts that generalization rests on:

* a chip in a mixed-workload / mixed-policy fleet matches a standalone
  :class:`~repro.system.simulator.SystemSimulator` built with the same
  variation, phase-shifted workload and a fresh policy copy, exactly;
* results are invariant in how the population is chunked
  (``max_chunk_chips`` / ``state_budget_bytes``), so memory budgets
  are purely an execution concern;
* ``state_dtype=float32`` halves the resident trap state within the
  documented :data:`~repro.system.fleet.FLOAT32_MAX_RELATIVE_ERROR`
  budget and never perturbs the float64 path;
* ``run_lifetime_sweep(engine=...)`` routes compatible grids onto the
  fleet engine bit-compatibly and refuses incompatible ones loudly;
* the row-chunked circuit batches and the wire-chunked EM TTF sampler
  reproduce their unchunked runs bit for bit.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.circuit import Circuit, NMOS_28NM, dc_batch, transient, \
    transient_batch
from repro.circuit.dc import dc_operating_point
from repro.em.korhonen import KorhonenConfig, batch_bytes_per_wire
from repro.em.line import PAPER_EM_STRESS
from repro.em.statistics import sample_nucleation_ttfs_pde
from repro.em.wire import PAPER_TEST_WIRE
from repro.errors import SimulationError
from repro.solvers import cache_counters
from repro.system.chip import Chip
from repro.system.fleet import (
    FLOAT32_MAX_RELATIVE_ERROR,
    FleetGroup,
    FleetVariationSpec,
    run_fleet_lifetime_study,
    state_bytes_per_chip,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.simulator import SystemSimulator
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import (
    ConstantWorkload,
    DiurnalWorkload,
    PhasedWorkload,
    RandomWorkload,
)

N_CORES = 4
# Deliberately not a multiple of the diurnal period, so phase-shifted
# chips end mid-cycle with distinct demand totals.
N_EPOCHS = 26
SEED = 11
SPEC = FleetVariationSpec(capture_sigma=0.05, recovery_sigma=0.08,
                          em_current_sigma=0.05)

RESULT_FIELDS = ("times_s", "worst_degradation", "mean_degradation",
                 "dropped_demand", "final_delta_vth_v",
                 "final_permanent_vth_v", "final_em_drift_ohm",
                 "em_failures", "migration_events", "total_demand",
                 "total_dropped_demand")


def hetero_groups():
    """Fresh templates: two workloads, two policies, mixed phases."""
    return (
        FleetGroup(n_chips=3,
                   workload=DiurnalWorkload(n_cores=N_CORES,
                                            period_epochs=8),
                   policy=RoundRobinRecoveryPolicy(
                       recovery_slots=1, em_alternate_every=2),
                   phases=(0, 2, 2),
                   name="diurnal rr"),
        FleetGroup(n_chips=2,
                   workload=ConstantWorkload(n_cores=N_CORES,
                                             utilization=0.7),
                   policy=NoRecoveryPolicy(),
                   name="flat baseline"),
    )


def chip_plan():
    """(workload, phase, policy) templates per global chip index."""
    plan = []
    for group in hetero_groups():
        for local in range(group.n_chips):
            phase = group.phases[local] if group.phases else 0
            plan.append((group.workload, phase, group.policy))
    return plan


def run_hetero(**overrides):
    kwargs = dict(n_epochs=N_EPOCHS, variation=SPEC, seed=SEED)
    kwargs.update(overrides)
    return run_fleet_lifetime_study((2, 2), groups=hetero_groups(),
                                    **kwargs)


def assert_fleet_results_equal(a, b):
    for field in RESULT_FIELDS:
        assert np.array_equal(np.asarray(getattr(a, field)),
                              np.asarray(getattr(b, field))), field
    assert a.n_epochs == b.n_epochs
    for field in ("capture_scale", "recovery_scale",
                  "em_current_scale"):
        assert np.array_equal(getattr(a.variation, field),
                              getattr(b.variation, field)), field


class TestHeterogeneousFleetVsStandalone:
    """The tentpole acceptance: mixed fleet == standalone, exactly."""

    @pytest.fixture(scope="class")
    def fleet_result(self):
        return run_hetero()

    def test_population_layout(self, fleet_result):
        assert fleet_result.n_chips == 5
        assert fleet_result.final_delta_vth_v.shape == (5, N_CORES)

    def test_each_chip_matches_standalone_simulator(self, fleet_result):
        variation = SPEC.draw(5, SEED)
        for index, (workload, phase, policy) in enumerate(chip_plan()):
            simulator = SystemSimulator(
                Chip(2, 2), variation=variation.chip(index))
            reference = simulator.run(
                N_EPOCHS,
                PhasedWorkload(copy.deepcopy(workload), phase),
                copy.deepcopy(policy))
            chip_view = fleet_result.chip_result(index)
            for field in ("times_s", "worst_degradation",
                          "mean_degradation", "dropped_demand",
                          "final_delta_vth_v",
                          "final_permanent_vth_v",
                          "final_em_drift_ohm"):
                assert np.array_equal(
                    np.asarray(getattr(chip_view, field)),
                    np.asarray(getattr(reference, field))), \
                    (field, index)
            assert np.array_equal(chip_view.em_failures,
                                  reference.em_failures)
            assert chip_view.migration_events \
                == reference.migration_events
            assert chip_view.total_demand == reference.total_demand
            assert chip_view.total_dropped_demand \
                == reference.total_dropped_demand

    def test_phases_actually_shift_the_demand(self, fleet_result):
        # Chips 0 and 1 share workload and policy but differ in
        # phase, so their demand bookkeeping must differ -- otherwise
        # the phase plumbing is dead and the equality above vacuous.
        assert fleet_result.total_demand[0] \
            != fleet_result.total_demand[1]
        # Chips 1 and 2 share the phase too and are distinguished
        # only by their variation draw.
        assert fleet_result.total_demand[1] \
            == fleet_result.total_demand[2]

    def test_groups_see_their_own_policies(self, fleet_result):
        # The round-robin group migrates, the no-recovery group never
        # does -- per-chip migration counts must reflect the split.
        assert np.all(fleet_result.migration_events[:3] > 0)
        assert np.all(fleet_result.migration_events[3:] == 0)


class TestChunkInvariance:
    """Chunked execution is an implementation detail, not a result."""

    @pytest.fixture(scope="class")
    def unchunked(self):
        return run_hetero()

    @pytest.mark.parametrize("max_chunk_chips", [1, 2, 3])
    def test_chunk_size_never_changes_results(self, unchunked,
                                              max_chunk_chips):
        chunked = run_hetero(max_chunk_chips=max_chunk_chips)
        assert_fleet_results_equal(chunked, unchunked)

    def test_state_budget_streams_in_multiple_chunks(self, unchunked):
        per_chip = state_bytes_per_chip(N_CORES)
        before = cache_counters().get("fleet.engine",
                                      {}).get("chunks", 0)
        budgeted = run_hetero(state_budget_bytes=2 * per_chip)
        after = cache_counters()["fleet.engine"]["chunks"]
        # 5 chips at 2 per chunk -> 3 chunks, same numbers.
        assert after - before == 3
        assert_fleet_results_equal(budgeted, unchunked)

    def test_chunk_limits_validated(self):
        with pytest.raises(SimulationError):
            run_hetero(max_chunk_chips=0)
        with pytest.raises(SimulationError):
            run_hetero(state_budget_bytes=0)


class TestFloat32State:
    """Opt-in float32 trap state: documented budget, inert default."""

    @pytest.fixture(scope="class")
    def results(self):
        return (run_hetero(), run_hetero(state_dtype=np.float32))

    @staticmethod
    def relative_error(approx, exact):
        scale = max(float(np.abs(exact).max()), 1e-30)
        return float(np.abs(approx - exact).max()) / scale

    def test_error_within_documented_budget(self, results):
        exact, approx = results
        for field in ("final_delta_vth_v", "final_permanent_vth_v",
                      "worst_degradation", "mean_degradation"):
            err = self.relative_error(
                np.asarray(getattr(approx, field)),
                np.asarray(getattr(exact, field)))
            assert err <= FLOAT32_MAX_RELATIVE_ERROR, (field, err)

    def test_float32_actually_perturbs_the_state(self, results):
        # If the cast were dead the budget test would be vacuous.
        exact, approx = results
        assert not np.array_equal(approx.final_delta_vth_v,
                                  exact.final_delta_vth_v)

    def test_discrete_observables_are_stable(self, results):
        # Scheduling is driven by the float64 upcast of the shift
        # observable; at this horizon the float32 rounding must not
        # flip any discrete decision.
        exact, approx = results
        assert np.array_equal(approx.migration_events,
                              exact.migration_events)
        assert np.array_equal(approx.em_failures, exact.em_failures)
        assert np.array_equal(approx.total_demand, exact.total_demand)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(SimulationError):
            run_hetero(state_dtype=np.float16)


class TestGroupValidation:
    def test_group_needs_chips(self):
        with pytest.raises(SimulationError):
            FleetGroup(n_chips=0,
                       workload=ConstantWorkload(N_CORES, 0.5),
                       policy=NoRecoveryPolicy())

    def test_phases_must_cover_every_chip(self):
        with pytest.raises(SimulationError):
            FleetGroup(n_chips=3,
                       workload=ConstantWorkload(N_CORES, 0.5),
                       policy=NoRecoveryPolicy(), phases=(0, 1))

    def test_phases_must_be_non_negative(self):
        with pytest.raises(SimulationError):
            FleetGroup(n_chips=2,
                       workload=ConstantWorkload(N_CORES, 0.5),
                       policy=NoRecoveryPolicy(), phases=(0, -1))

    def test_groups_exclusive_with_homogeneous_args(self):
        with pytest.raises(SimulationError):
            run_fleet_lifetime_study(
                (2, 2), groups=hetero_groups(),
                workload=ConstantWorkload(N_CORES, 0.5),
                n_epochs=4)

    def test_n_chips_must_match_groups(self):
        with pytest.raises(SimulationError):
            run_fleet_lifetime_study((2, 2), 7,
                                     groups=hetero_groups(),
                                     n_epochs=4)


class TestSweepEngineRouting:
    """run_lifetime_sweep(engine=...) fleet routing and its guards."""

    N_SWEEP_EPOCHS = 10

    @staticmethod
    def grid():
        return (
            {"rr": RoundRobinRecoveryPolicy(recovery_slots=1,
                                            em_alternate_every=2),
             "none": NoRecoveryPolicy()},
            {"flat": ConstantWorkload(n_cores=N_CORES,
                                      utilization=0.6),
             "diurnal": DiurnalWorkload(n_cores=N_CORES,
                                        period_epochs=8)},
            [ChipConfig(2, 2, name="unit a"),
             ChipConfig(2, 2, name="unit b")],
        )

    def run_grid(self, **kwargs):
        policies, workloads, chips = self.grid()
        return run_lifetime_sweep(policies, workloads, chips,
                                  n_epochs=self.N_SWEEP_EPOCHS,
                                  **kwargs)

    def test_auto_routes_to_fleet_and_matches_pooled(self):
        reports = []
        auto = self.run_grid(on_report=reports.append)
        pooled = self.run_grid(engine="pooled")
        assert len(reports) == 1
        assert reports[0].mode == "fleet"
        assert reports[0].n_tasks == len(auto.cells) == 8
        assert len(auto.cells) == len(pooled.cells)
        for a, b in zip(auto.cells, pooled.cells):
            assert (a.policy, a.workload, a.chip) \
                == (b.policy, b.workload, b.chip)
            for field in ("guardband", "final_delta_vth_v",
                          "final_permanent_vth_v", "em_failures",
                          "migration_events", "migration_overhead",
                          "lost_demand_fraction"):
                assert getattr(a, field) == getattr(b, field), field

    def test_fleet_report_carries_engine_counters(self):
        reports = []
        self.run_grid(engine="fleet", on_report=reports.append)
        counters = reports[0].cache_counters
        assert counters["fleet.engine"]["chips"] == 8
        assert counters["fleet.engine"]["epochs"] \
            == self.N_SWEEP_EPOCHS
        assert "bti.fleet.kernels" in counters

    def test_pool_knobs_force_pooled_path(self):
        for knob in ({"min_tasks_for_pool": 1}, {"retries": 1},
                     {"on_error": "collect"},
                     {"progress": lambda done, total: None}):
            reports = []
            self.run_grid(on_report=reports.append, **knob)
            assert reports[0].mode != "fleet", knob
        with pytest.raises(SimulationError):
            self.run_grid(engine="fleet", retries=1)

    def test_max_workers_stays_on_fleet_path(self):
        # max_workers is no longer a pool knob: it forwards to the
        # fleet engine's chunk executor, and this grid is far below
        # the work gate, so the run stays one serial fleet advance.
        reports = []
        workers = self.run_grid(engine="fleet", max_workers=2,
                                on_report=reports.append)
        assert reports[0].mode == "fleet"
        assert reports[0].n_tasks == len(workers.cells) == 8
        baseline = self.run_grid(engine="fleet")
        for a, b in zip(workers.cells, baseline.cells):
            assert a == b

    @staticmethod
    def assert_routes_agree(policies, workloads, chips, **kwargs):
        """auto and fleet run the grid on the fleet, equal to pooled."""
        reports = []
        auto = run_lifetime_sweep(policies, workloads, chips,
                                  on_report=reports.append, **kwargs)
        fleet = run_lifetime_sweep(policies, workloads, chips,
                                   engine="fleet", **kwargs)
        pooled = run_lifetime_sweep(policies, workloads, chips,
                                    engine="pooled", **kwargs)
        assert len(reports) == 1
        assert reports[0].mode == "fleet"
        assert reports[0].n_tasks == len(pooled.cells)
        assert reports[0].cache_counters["fleet.engine"]["chips"] \
            == len(pooled.cells)
        assert auto.cells == fleet.cells == pooled.cells
        return auto

    def test_mixed_chip_designs_run_on_fleet(self):
        policies, workloads, _ = self.grid()
        chips = [ChipConfig(2, 2, name="unit a"), ChipConfig(2, 3),
                 ChipConfig(2, 2, name="unit b")]
        result = self.assert_routes_agree(
            policies, workloads, chips, n_epochs=self.N_SWEEP_EPOCHS)
        # Policy-major, then workload, then chip -- the grid order.
        assert [(cell.policy, cell.workload, cell.chip)
                for cell in result.cells[:3]] \
            == [("rr", "flat", "unit a"), ("rr", "flat", "2x3"),
                ("rr", "flat", "unit b")]

    def test_seeded_workloads_run_on_fleet(self):
        policies = {"none": NoRecoveryPolicy(),
                    "rr": RoundRobinRecoveryPolicy(recovery_slots=1)}
        workloads = {"random": RandomWorkload(n_cores=N_CORES),
                     "flat": ConstantWorkload(n_cores=N_CORES)}
        chips = [ChipConfig(2, 2, name="unit a"),
                 ChipConfig(2, 2, name="unit b")]
        result = self.assert_routes_agree(
            policies, workloads, chips, n_epochs=self.N_SWEEP_EPOCHS,
            seed=7)
        # Each cell draws its own stream: the two identical chips of
        # a random cell pair diverge, those of a flat pair do not.
        random_a = result.cell("none", "random", "unit a")
        random_b = result.cell("none", "random", "unit b")
        assert random_a.guardband != random_b.guardband
        flat_a = result.cell("none", "flat", "unit a")
        flat_b = result.cell("none", "flat", "unit b")
        assert flat_a.guardband == flat_b.guardband

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            self.run_grid(engine="turbo")


def nmos_amplifier(rd_ohms: float, vin_v: float) -> Circuit:
    circuit = Circuit(f"chunk amp rd={rd_ohms:g} vin={vin_v:g}")
    circuit.add_voltage_source("vdd", "vdd", "gnd", 1.0)
    circuit.add_voltage_source("vin", "g", "gnd", vin_v)
    circuit.add_resistor("rd", "vdd", "d", rd_ohms)
    circuit.add_mosfet("m1", "d", "g", "gnd", NMOS_28NM)
    circuit.add_capacitor("cl", "d", "gnd", 10e-15)
    return circuit


AMPLIFIER_GRID = ((20e3, 0.55), (20e3, 0.35), (5e3, 0.8),
                  (40e3, 0.75), (10e3, 0.45))


def amplifier_circuits():
    return [nmos_amplifier(rd, vin) for rd, vin in AMPLIFIER_GRID]


class TestChunkedCircuitBatches:
    """Row-blocked dc/transient batches == their unchunked runs."""

    def test_chunked_dc_is_bitwise(self):
        whole = dc_batch(amplifier_circuits(), condense=False)
        chunked = dc_batch(amplifier_circuits(), condense=False,
                           max_chunk_rows=2)
        assert len(chunked) == len(whole)
        for a, b in zip(chunked, whole):
            assert np.array_equal(a.solution, b.solution)
            assert a.iterations == b.iterations

    def test_budgeted_dc_matches_per_point(self):
        # A budget of two rows' worth of stacked matrices: the batch
        # must stream and still land on every solo operating point.
        chunked = dc_batch(amplifier_circuits(),
                           chunk_budget_bytes=2_000)
        for (rd, vin), solution in zip(AMPLIFIER_GRID, chunked):
            reference = dc_operating_point(nmos_amplifier(rd, vin))
            assert np.max(np.abs(solution.solution
                                 - reference.solution)) <= 1e-12

    def test_chunked_transient_is_bitwise(self):
        whole = transient_batch(amplifier_circuits(), stop_s=8e-9,
                                dt_s=0.4e-9, condense=False)
        chunked = transient_batch(amplifier_circuits(), stop_s=8e-9,
                                  dt_s=0.4e-9, condense=False,
                                  max_chunk_rows=2)
        assert len(chunked) == len(whole)
        for a, b in zip(chunked, whole):
            assert np.array_equal(a.times_s, b.times_s)
            assert np.array_equal(a.solutions, b.solutions)

    def test_chunked_transient_matches_solo_runs(self):
        chunked = transient_batch(amplifier_circuits(), stop_s=8e-9,
                                  dt_s=0.4e-9, condense=False,
                                  max_chunk_rows=3)
        for (rd, vin), result in zip(AMPLIFIER_GRID, chunked):
            reference = transient(nmos_amplifier(rd, vin), 8e-9,
                                  0.4e-9)
            assert np.array_equal(result.solutions,
                                  reference.solutions)

    def test_chunk_limits_validated(self):
        with pytest.raises(ValueError):
            dc_batch(amplifier_circuits(), max_chunk_rows=0)
        with pytest.raises(ValueError):
            transient_batch(amplifier_circuits(), stop_s=8e-9,
                            dt_s=0.4e-9, chunk_budget_bytes=0)


class TestChunkedEmSampler:
    """Wire-chunked PDE TTF sampling == the monolithic batch."""

    CONFIG = KorhonenConfig(n_nodes=101, max_dt_s=5e3)
    KWARGS = dict(
        wire=PAPER_TEST_WIRE,
        condition=dataclasses.replace(
            PAPER_EM_STRESS,
            current_density_a_m2=PAPER_EM_STRESS.current_density_a_m2
            * 0.05),
        j_sigma=0.1, seed=42)

    def sample(self, **overrides):
        kwargs = dict(self.KWARGS, config=self.CONFIG)
        kwargs.update(overrides)
        return sample_nucleation_ttfs_pde(24, 6e6, 2e5, **kwargs)

    def test_wire_chunks_are_bitwise(self):
        whole = self.sample()
        chunked = self.sample(max_chunk_wires=5)
        assert np.array_equal(whole, chunked)
        # The scenario must nucleate and spread, or equality is
        # vacuous.
        finite = np.isfinite(whole)
        assert finite.any()
        assert np.unique(whole[finite]).size > 1

    def test_byte_budget_chunks_are_bitwise(self):
        whole = self.sample()
        budget = 7 * batch_bytes_per_wire(self.CONFIG)
        chunked = self.sample(chunk_budget_bytes=budget)
        assert np.array_equal(whole, chunked)

    def test_chunk_limits_validated(self):
        with pytest.raises(SimulationError):
            self.sample(max_chunk_wires=0)
        with pytest.raises(SimulationError):
            self.sample(chunk_budget_bytes=8)
        with pytest.raises(SimulationError):
            self.sample(engine="serial", max_chunk_wires=5)
