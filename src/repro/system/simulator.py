"""Epoch-driven system-level lifetime simulator.

Each epoch the simulator:

1. asks the workload for the compute demand,
2. asks the policy which cores run, which heal, and how the demand is
   spread (migrating work away from healing cores),
3. solves the thermal network for per-core temperatures,
4. advances the vectorized BTI and EM fleet states under the resulting
   per-core stress/recovery conditions, and
5. records the fleet's performance envelope.

The output exposes the Fig. 12(b) observables directly: the worst-core
performance degradation over time with and without scheduled recovery,
the implied guardband, and EM failure times of the local grids.

The per-epoch hot path is fully array-native: per-core stress/recovery
accelerations come from the precomputed
:class:`~repro.bti.conditions.BtiConditionKernels` lookup tables, the
power vector and the recorded delay degradations are single vectorized
expressions, and the thermal steady state is memoized on the power
vector (:meth:`~repro.thermal.network.ThermalRCNetwork
.steady_state_cached`) so repeating schedules skip the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Protocol, Sequence, Union

import numpy as np

from repro import units
from repro.bti.calibration import BtiCalibration, default_calibration
from repro.bti.conditions import BtiConditionKernels
from repro.em.line import EmStressCondition
from repro.errors import SimulationError
from repro.solvers import FactorizationCache
from repro.system.aging import FleetBtiState, FleetEmState
from repro.system.chip import Chip
from repro.system.scheduler import CoreAssignment


@dataclass(frozen=True)
class ChipVariation:
    """Per-chip process-variation multipliers on the aging rates.

    A fleet study draws one of these per chip (see
    :class:`repro.system.fleet.FleetVariationSpec`); the scalar
    simulator accepts the same description so a fleet member can be
    re-simulated standalone for cross-checks.  The defaults are exact
    no-ops (multiplying by 1.0 is bitwise identity), so a simulator
    without variation reproduces the pre-variation trajectories
    bit-for-bit.

    Attributes:
        capture_scale: multiplier on the BTI capture acceleration
            (fast-aging corner > 1).
        recovery_scale: multiplier on the BTI de-trapping acceleration.
        em_current_scale: multiplier on the signed grid current
            density (local-grid IR/width variation).
    """

    capture_scale: float = 1.0
    recovery_scale: float = 1.0
    em_current_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("capture_scale", "recovery_scale",
                     "em_current_scale"):
            if getattr(self, name) <= 0.0:
                raise SimulationError(f"{name} must be positive")


def base_epoch_conditions(
        chip: Chip, kernels: BtiConditionKernels,
        assignment: Union[CoreAssignment, Sequence[CoreAssignment]]):
    """Variation-independent per-core conditions of one assignment.

    The shared heart of the scalar and fleet epoch loops: power
    vector, memoized thermal solve, BTI condition-kernel lookups and
    signed grid current for one :class:`CoreAssignment`.  Both
    simulators apply their (per-chip) variation scales *on top* of
    these arrays, so a fleet chip and a standalone simulator with the
    same :class:`ChipVariation` see bit-identical conditions.

    ``assignment`` may also be a sequence of assignments (one per
    fleet cohort).  Every returned array then gains a leading cohort
    axis: powers, kernel lookups and grid currents are evaluated once
    on the stacked ``(n_assignments, n_cores)`` arrays, while the
    thermal network solves each row in order (memoized), so it ends
    on the last row's solve.  Every step is elementwise, so row ``i``
    is bitwise what ``assignment[i]`` alone gives.

    Returns:
        ``(temps, active, capture, recovery, j)`` -- per-core
        temperatures (K), stressing mask, unscaled capture and
        recovery accelerations, and signed grid current density.
    """
    core = chip.core
    if isinstance(assignment, CoreAssignment):
        utilization = assignment.utilization
        recovering = assignment.bti_recovering
        em_recovering = assignment.em_recovering
    else:
        utilization = np.stack([a.utilization for a in assignment])
        recovering = np.stack([a.bti_recovering for a in assignment])
        em_recovering = np.stack([a.em_recovering for a in assignment])
    powers = np.where(
        recovering, core.recovery_power_w,
        core.idle_power_w + utilization
        * (core.active_power_w - core.idle_power_w))
    if powers.ndim == 1:
        temps = chip.thermal.steady_state_cached(powers)
    else:
        temps = np.stack([chip.thermal.steady_state_cached(row)
                          for row in powers])
    capture = kernels.capture_acceleration_array(temps, utilization)
    # Cores that are "stressing" but idle (zero utilization)
    # accumulate nothing and recover passively; model that by
    # marking them as recovering at bias 0.
    active = ~recovering & (utilization > 0.0)
    recovery = kernels.recovery_acceleration_array(temps, recovering)
    j = core.grid_current_density_a_m2 * utilization
    j = np.where(em_recovering, -j, j)
    return temps, active, capture, recovery, j


class SchedulingPolicy(Protocol):
    """Interface every scheduling policy implements."""

    def assign(self, epoch: int, demand: float,
               delta_vth_v: np.ndarray,
               previous_utilization: Optional[np.ndarray] = None
               ) -> CoreAssignment:
        """Produce the epoch's core assignment."""
        ...


class Workload(Protocol):
    """Interface every workload generator implements."""

    def demand(self, epoch: int) -> float:
        """Compute demand (core-equivalents) for an epoch."""
        ...


@dataclass(frozen=True)
class SystemResult:
    """Timeline and summary of one system simulation.

    Attributes:
        times_s: end-of-epoch time stamps.
        worst_degradation: per-epoch worst-core fractional delay
            degradation (the Fig. 12(b) performance envelope, flipped).
        mean_degradation: per-epoch fleet-average degradation.
        dropped_demand: per-epoch unplaced demand (core-equivalents).
        final_delta_vth_v: per-core BTI shift at the end.
        final_permanent_vth_v: per-core permanent component at the end.
        final_em_drift_ohm: per-core grid resistance drift at the end.
        em_failures: per-core hard-failure flags at the end.
        migration_events: number of core transitions into BTI recovery
            over the run; each one implies a state-retention or
            workload-migration action (Section IV-B: "certain states
            need to be in retention mode, alternatively, workload can
            be shifted to other redundant resources").
        n_epochs: simulated epoch count (for overhead normalization).
        total_demand: demanded core-epochs summed over *all* epochs
            (not just the recorded ones).
        total_dropped_demand: unplaced core-epochs over all epochs.
    """

    times_s: np.ndarray
    worst_degradation: np.ndarray
    mean_degradation: np.ndarray
    dropped_demand: np.ndarray
    final_delta_vth_v: np.ndarray
    final_permanent_vth_v: np.ndarray
    final_em_drift_ohm: np.ndarray
    em_failures: np.ndarray
    migration_events: int = 0
    n_epochs: int = 0
    total_demand: float = 0.0
    total_dropped_demand: float = 0.0

    @property
    def guardband(self) -> float:
        """Delay margin this run would require (peak worst-core
        degradation over the horizon)."""
        return float(self.worst_degradation.max(initial=0.0))

    @property
    def lost_demand_fraction(self) -> float:
        """Unplaced fraction of total demanded compute.

        ``total_dropped_demand / total_demand`` over every simulated
        epoch, so the value is independent of ``record_every`` (0 when
        nothing was demanded).
        """
        if self.total_demand <= 0.0:
            return 0.0
        return float(self.total_dropped_demand / self.total_demand)

    def migration_overhead(self, cost_epoch_fraction: float = 0.01
                           ) -> float:
        """Compute overhead of recovery-entry migrations.

        Each transition into BTI recovery costs
        ``cost_epoch_fraction`` of one core-epoch (state save +
        workload shift); returns the total as a fraction of the
        simulated core-epochs.  The paper expects this to be "a small
        switching overhead" -- typically well under a percent.
        """
        if cost_epoch_fraction < 0.0:
            raise SimulationError(
                "cost_epoch_fraction must be non-negative")
        core_epochs = max(self.n_epochs, 1) \
            * max(len(self.final_delta_vth_v), 1)
        return self.migration_events * cost_epoch_fraction \
            / core_epochs

    def describe(self) -> str:
        """One-line summary used by examples and benches."""
        return (f"guardband {self.guardband:.2%}, "
                f"final worst dVth "
                f"{self.final_delta_vth_v.max() * 1e3:.2f} mV "
                f"(permanent {self.final_permanent_vth_v.max() * 1e3:.2f}"
                f" mV), EM failures {int(self.em_failures.sum())}")


class SystemSimulator:
    """Drives a chip + workload + policy through its lifetime."""

    def __init__(self, chip: Chip,
                 calibration: Optional[BtiCalibration] = None,
                 em_reference: Optional[EmStressCondition] = None,
                 epoch_s: float = units.hours(1.0),
                 variation: Optional[ChipVariation] = None):
        if epoch_s <= 0.0:
            raise SimulationError("epoch_s must be positive")
        self.chip = chip
        self.calibration = calibration or default_calibration()
        self.epoch_s = epoch_s
        self.variation = variation or ChipVariation()
        n = chip.n_cores
        population = self.calibration.model_config.population
        # Fewer bins per core: system horizons don't need the full
        # Table-I resolution, and the dynamics are identical.
        self.bti = FleetBtiState(
            n, replace(population, n_bins=64))
        self.em_reference = em_reference or EmStressCondition(
            current_density_a_m2=chip.core.grid_current_density_a_m2,
            temperature_k=units.celsius_to_kelvin(85.0),
            name="grid reference")
        self.em = FleetEmState(n, self.em_reference)
        self._accel_params = self.calibration.model_config.acceleration
        self._reference_stress = \
            self.calibration.model_config.reference_stress
        self.kernels = BtiConditionKernels(
            self._accel_params, self._reference_stress,
            stress_voltage_v=chip.core.stress_voltage_v)
        # Scheduling loops cycle through a small set of assignments;
        # everything derived from one (power vector, thermal solve,
        # condition-kernel evaluations, signed grid current) is a pure
        # function of its content, so the whole bundle is memoized on
        # the assignment bytes.  Cached arrays are shared, never
        # mutated downstream.
        self._condition_cache = FactorizationCache(
            maxsize=64, name="system.conditions")

    def _epoch_conditions(self, assignment: CoreAssignment):
        key = assignment.cache_key()
        return self._condition_cache.get_or_build(
            key, lambda: self._build_epoch_conditions(assignment))

    def _build_epoch_conditions(self, assignment: CoreAssignment):
        temps, active, capture, recovery, j = base_epoch_conditions(
            self.chip, self.kernels, assignment)
        # Variation scales apply after the shared kernels; at the
        # default 1.0 every multiply is bitwise identity, so a
        # simulator without variation reproduces the historical
        # trajectories exactly.
        v = self.variation
        capture = capture * v.capture_scale
        capture_safe = np.where(capture > 0.0, capture, 1.0)
        recovery = recovery * v.recovery_scale
        j = j * v.em_current_scale
        return temps, active, capture_safe, recovery, j

    # -- main loop -------------------------------------------------------

    def run(self, n_epochs: int, workload: Workload,
            policy: SchedulingPolicy,
            record_every: int = 1) -> SystemResult:
        """Simulate ``n_epochs`` epochs and collect the timeline.

        Args:
            n_epochs: horizon in epochs.
            workload: demand generator.
            policy: scheduling policy.
            record_every: decimation factor of the recorded timeline.
        """
        if n_epochs < 1:
            raise SimulationError("n_epochs must be at least 1")
        if record_every < 1:
            raise SimulationError("record_every must be at least 1")
        core = self.chip.core
        thermal = self.chip.thermal
        oscillator = core.oscillator
        previous_utilization: Optional[np.ndarray] = None
        previous_recovering = np.zeros(self.chip.n_cores, dtype=bool)
        migration_events = 0
        total_demand = 0.0
        total_dropped = 0.0
        times: List[float] = []
        worst: List[float] = []
        mean: List[float] = []
        dropped: List[float] = []
        # The fleet BTI state only changes in bti.step, so the shift
        # vector computed for recording is still current at the next
        # epoch's assign.
        delta_vth = self.bti.delta_vth_v()
        for epoch in range(n_epochs):
            demand = workload.demand(epoch)
            assignment = policy.assign(
                epoch, demand, delta_vth, previous_utilization)
            recovering = assignment.bti_recovering
            temps, active, capture_safe, recovery, j = \
                self._epoch_conditions(assignment)
            self.bti.step(self.epoch_s, active, capture_safe, recovery)
            self.em.step(self.epoch_s, j, temps)
            migration_events += int(np.count_nonzero(
                recovering & ~previous_recovering))
            previous_recovering = recovering
            previous_utilization = assignment.utilization
            total_demand += demand
            total_dropped += assignment.dropped_demand
            delta_vth = self.bti.delta_vth_v()
            if (epoch + 1) % record_every == 0 or epoch == n_epochs - 1:
                degradation = oscillator.delay_degradation_array(
                    delta_vth)
                times.append((epoch + 1) * self.epoch_s)
                worst.append(float(degradation.max()))
                mean.append(float(degradation.mean()))
                dropped.append(assignment.dropped_demand)
        # A bundle hit skips steady_state_cached, so refresh the
        # network's read-out state from the last epoch's solve.
        thermal.temperatures_k = temps.copy()
        read_t = float(np.max(thermal.temperatures_k))
        return SystemResult(
            times_s=np.array(times),
            worst_degradation=np.array(worst),
            mean_degradation=np.array(mean),
            dropped_demand=np.array(dropped),
            final_delta_vth_v=self.bti.delta_vth_v(),
            final_permanent_vth_v=self.bti.permanent_v.copy(),
            final_em_drift_ohm=self.em.delta_resistance_ohm(),
            em_failures=self.em.failed(read_t),
            migration_events=migration_events,
            n_epochs=n_epochs,
            total_demand=total_demand,
            total_dropped_demand=total_dropped)
