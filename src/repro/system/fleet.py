"""Structure-of-arrays fleet engine: a population of chips per step.

The paper's headline results (Figs. 12-14) are population statements --
guardband reduction and EM lifetime gains across many chips -- but the
pooled sweep layer pays one Python simulator (and often one process
task) per chip.  This module advances every chip in lockstep instead:

* :class:`FleetState` owns the whole population's aging state as
  stacked arrays -- trap occupancies/ages/weights and permanent Vth in
  a :class:`~repro.bti.fleet.StackedTrapPopulations`, EM
  nucleation/void accumulators in one flat
  :class:`~repro.system.aging.FleetEmState` -- plus the per-chip
  process-variation scales drawn up front.
* :class:`FleetSimulator` runs the same epoch loop as
  :class:`~repro.system.simulator.SystemSimulator`, but evaluates the
  BTI condition kernels once per epoch over the stacked cohort
  assignments, expands them to the whole ``(n_chips, n_cores)``
  stack, and advances BTI and EM over it in single ufunc passes.
* :class:`FleetGroup` generalizes the engine beyond "one workload, one
  policy": a population is a sequence of groups, each with its own
  workload, scheduling policy, and optional per-chip *workload phase*
  offsets.  Internally each group splits into *cohorts* -- maximal
  runs of consecutive chips sharing one phase -- and every cohort gets
  its own fresh policy/workload copy and its own per-epoch scheduling
  decision, while the BTI/EM state still advances in one stacked
  sweep over all cohorts.  Chips in different timezones, racks with
  different healing policies, and a control group all batch into one
  tensor advance.
* :func:`run_fleet_lifetime_study` is the population entry point; for
  populations too large to hold in memory at once it streams the fleet
  in row chunks under a byte budget (``max_chunk_chips`` /
  ``state_budget_bytes``), re-using one chip (and one thermal memo)
  across every chunk.  Chunks are whole-lifetime and independent, so
  with ``max_workers > 1`` they dispatch across a process pool
  (:func:`repro.solvers.sweep.run_sweep`'s crash-safe machinery:
  bounded retries, chunk-level serial re-execution after worker
  death, :class:`~repro.solvers.SweepReport` telemetry with
  per-worker cache counters aggregated), shipping per-chip outputs
  back through one preallocated ``multiprocessing.shared_memory``
  slab instead of pickling multi-hundred-MB arrays.  Results merge
  by a deterministic row-ordered scatter, so the outcome is bitwise
  identical to the serial chunk stream for every worker count and
  completion order; ``state_budget_bytes`` is a *per-worker* budget
  (total residency is ``n_workers x budget`` by construction).

Exactness: chip ``i`` of a fleet advances bit-identically to a
standalone :class:`~repro.system.simulator.SystemSimulator` built with
``variation.chip(i)``, driven by the chip's (phase-shifted) workload
and a fresh copy of its group's policy -- both paths share
:func:`~repro.system.simulator.base_epoch_conditions`, apply the same
variation multiplies, and the stacked BTI/EM steps are elementwise in
the unit dimension (see :mod:`repro.bti.fleet`).  The one coupling is
the aging observable handed to the policy: a cohort's policy sees the
*cohort-worst* per-core shift.  With no variation the cohort's rows
are identical, so this equals every member's own observable and the
equivalence is exact for any policy; with variation it stays exact for
policies that ignore the shift values (the round-robin and
no-recovery policies) and for singleton cohorts.  The same contract
makes chunked execution invariant in the chunk size.

Reduced precision: ``state_dtype=np.float32`` halves the trap-state
memory.  Condition kernels and sub-step counts are still derived in
float64 and rounded once per epoch, so the float32 trajectory tracks
the float64 one within :data:`FLOAT32_MAX_RELATIVE_ERROR` (pinned by
the fleet tests); ``state_dtype=np.float64`` (the default) is bitwise
identical to the single-chip engine.
"""

from __future__ import annotations

import copy
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import units
from repro.bti.calibration import BtiCalibration, default_calibration
from repro.bti.conditions import BtiConditionKernels
from repro.bti.fleet import StackedTrapPopulations
from repro.em.line import EmStressCondition
from repro.errors import SimulationError
from repro.solvers import FactorizationCache, cache_counters, record_counters
from repro.solvers.sweep import (
    ChunkRecord,
    ChunkTask,
    SweepReport,
    _cache_delta,
    chunk_tasks,
    run_sweep,
    task_seed_sequence,
)
from repro.system.aging import FleetEmState
from repro.system.chip import Chip
from repro.system.simulator import (
    ChipVariation,
    SchedulingPolicy,
    SystemResult,
    Workload,
    base_epoch_conditions,
)
from repro.system.sweeps import ChipConfig
from repro.system.workload import PhasedWorkload

#: Measured accuracy budget of ``state_dtype=np.float32``: the maximum
#: relative error of any chip's final per-core threshold shift (and of
#: the recorded degradation timeline) against the bit-exact float64
#: engine.  Kernels are built in float64 and rounded once per epoch,
#: so the error does not compound through the transcendental factor
#: math; it is dominated by the ~1e-7 rounding of the state
#: accumulators and grows sub-linearly with the horizon (measured
#: ~1.7e-7 at 26 epochs, ~1e-6 at 720 epochs, on mixed-phase /
#: mixed-policy variated fleets).  The bound leaves two orders of
#: headroom for multi-year horizons; the fleet tests pin it.
FLOAT32_MAX_RELATIVE_ERROR = 1e-4

#: Trap-bin count of the system-level population (the fleet engine
#: always runs the 64-bin configuration, see :class:`FleetState`).
_FLEET_N_BINS = 64


# -- process variation ------------------------------------------------------


@dataclass(frozen=True)
class FleetVariation:
    """Drawn per-chip variation scales for a whole population.

    Attributes:
        capture_scale / recovery_scale / em_current_scale: positive
            ``(n_chips,)`` multipliers; see
            :class:`~repro.system.simulator.ChipVariation` for their
            meaning.
    """

    capture_scale: np.ndarray
    recovery_scale: np.ndarray
    em_current_scale: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.capture_scale)
        for name in ("capture_scale", "recovery_scale",
                     "em_current_scale"):
            array = getattr(self, name)
            if array.shape != (n,):
                raise SimulationError(
                    "variation arrays must share one (n_chips,) shape")
            if np.any(array <= 0.0):
                raise SimulationError(f"{name} must be positive")

    @property
    def n_chips(self) -> int:
        """Population size of the draw."""
        return len(self.capture_scale)

    @classmethod
    def none(cls, n_chips: int) -> "FleetVariation":
        """An exact no-op draw (every scale 1.0)."""
        if n_chips < 1:
            raise SimulationError("n_chips must be at least 1")
        ones = np.ones(n_chips)
        return cls(capture_scale=ones.copy(),
                   recovery_scale=ones.copy(),
                   em_current_scale=ones.copy())

    def chip(self, index: int) -> ChipVariation:
        """The scalar :class:`ChipVariation` of one fleet member."""
        return ChipVariation(
            capture_scale=float(self.capture_scale[index]),
            recovery_scale=float(self.recovery_scale[index]),
            em_current_scale=float(self.em_current_scale[index]))

    def slice_range(self, start: int, stop: int) -> "FleetVariation":
        """The draw restricted to chips ``[start, stop)``.

        Chunked execution slices a pre-drawn population so chip ``k``
        keeps exactly the scales it would have in the unchunked run.
        """
        if not 0 <= start < stop <= self.n_chips:
            raise SimulationError(
                "slice must satisfy 0 <= start < stop <= n_chips")
        return FleetVariation(
            capture_scale=self.capture_scale[start:stop].copy(),
            recovery_scale=self.recovery_scale[start:stop].copy(),
            em_current_scale=self.em_current_scale[start:stop].copy())

    @classmethod
    def concatenate(cls, parts: Sequence["FleetVariation"]
                    ) -> "FleetVariation":
        """Stitch chunked draws back into one population draw."""
        if not parts:
            raise SimulationError("need at least one part")
        return cls(
            capture_scale=np.concatenate(
                [p.capture_scale for p in parts]),
            recovery_scale=np.concatenate(
                [p.recovery_scale for p in parts]),
            em_current_scale=np.concatenate(
                [p.em_current_scale for p in parts]))


@dataclass(frozen=True)
class FleetVariationSpec:
    """Lognormal process-variation law for a fleet draw.

    Each chip's scales are ``exp(sigma * z)`` with independent
    standard-normal ``z`` per knob, so the medians stay at 1.0 and a
    sigma of 0 degenerates to *exactly* 1.0 (bitwise no-op).  Chip
    ``k`` draws from ``task_seed_sequence(seed, k)`` -- the same
    deterministic per-index stream the sweep runner uses -- so the
    draw of a chip never depends on the population size (or on how
    the population is chunked) and a fleet member can be reproduced
    standalone.

    Attributes:
        capture_sigma / recovery_sigma / em_current_sigma: log-space
            standard deviations of the three scales.
    """

    capture_sigma: float = 0.0
    recovery_sigma: float = 0.0
    em_current_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("capture_sigma", "recovery_sigma",
                     "em_current_sigma"):
            if getattr(self, name) < 0.0:
                raise SimulationError(f"{name} must be non-negative")

    def draw_chip(self, index: int, seed: int = 0) -> ChipVariation:
        """The variation of one chip (independent of fleet size)."""
        rng = np.random.default_rng(task_seed_sequence(seed, index))
        z = rng.standard_normal(3)
        return ChipVariation(
            capture_scale=float(np.exp(self.capture_sigma * z[0])),
            recovery_scale=float(np.exp(self.recovery_sigma * z[1])),
            em_current_scale=float(
                np.exp(self.em_current_sigma * z[2])))

    def draw_range(self, start: int, stop: int,
                   seed: int = 0) -> FleetVariation:
        """Draw chips ``[start, stop)`` by their global indices.

        Chunked execution draws each chunk's rows directly, so the
        concatenation over chunks is bit-identical to one
        :meth:`draw` of the whole population.
        """
        if start < 0 or stop <= start:
            raise SimulationError(
                "draw range must satisfy 0 <= start < stop")
        n = stop - start
        capture = np.empty(n)
        recovery = np.empty(n)
        em = np.empty(n)
        for offset, index in enumerate(range(start, stop)):
            chip = self.draw_chip(index, seed)
            capture[offset] = chip.capture_scale
            recovery[offset] = chip.recovery_scale
            em[offset] = chip.em_current_scale
        return FleetVariation(capture_scale=capture,
                              recovery_scale=recovery,
                              em_current_scale=em)

    def draw(self, n_chips: int, seed: int = 0) -> FleetVariation:
        """Draw a whole population (chip ``k`` == ``draw_chip(k)``)."""
        if n_chips < 1:
            raise SimulationError("n_chips must be at least 1")
        return self.draw_range(0, n_chips, seed)


# -- population structure ---------------------------------------------------


@dataclass(frozen=True)
class FleetGroup:
    """A contiguous slice of the population sharing workload and policy.

    A heterogeneous fleet is a sequence of groups laid out
    back-to-back in chip order.  Every chip of a group runs the same
    scheduling policy and draws demand from the same workload
    template, optionally shifted by a per-chip ``phases`` offset (the
    chip observes ``workload.demand(epoch + phase)`` while its policy
    still sees the unshifted epoch -- see
    :class:`~repro.system.workload.PhasedWorkload`).

    The engine treats ``workload`` and ``policy`` as *templates*: each
    internal cohort (a maximal run of chips sharing one phase) gets a
    fresh ``copy.deepcopy`` before the run, so stateful policies
    (rotation cursors) and workloads (AR(1) streams) start fresh and a
    group's trajectory never depends on how the population is chunked.
    A ``policy`` without an ``assign`` method is treated as a factory
    called with the chip, mirroring the sweep layer.

    Attributes:
        n_chips: chips in the group.
        workload: shared demand template.
        policy: shared scheduling policy template (or factory).
        phases: optional per-chip non-negative epoch offsets,
            ``len == n_chips``.  Consecutive equal phases batch into
            one cohort, so sorted/blocked phase layouts schedule in
            O(distinct phases) per epoch.
        name: optional label for reports.
    """

    n_chips: int
    workload: Workload
    policy: SchedulingPolicy
    phases: Optional[Tuple[int, ...]] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.n_chips < 1:
            raise SimulationError("group n_chips must be at least 1")
        if self.phases is not None:
            phases = tuple(int(p) for p in self.phases)
            object.__setattr__(self, "phases", phases)
            if len(phases) != self.n_chips:
                raise SimulationError(
                    "phases must provide one offset per chip")
            if any(p < 0 for p in phases):
                raise SimulationError(
                    "phases must be non-negative")


class _Cohort:
    """One run of consecutive chips sharing workload, phase, policy."""

    __slots__ = ("start", "stop", "workload", "policy",
                 "previous_utilization", "previous_recovering")

    def __init__(self, start: int, stop: int, workload, policy,
                 n_cores: int):
        self.start = start
        self.stop = stop
        self.workload = workload
        self.policy = policy
        self.previous_utilization: Optional[np.ndarray] = None
        self.previous_recovering = np.zeros(n_cores, dtype=bool)


# -- results ----------------------------------------------------------------


@dataclass(frozen=True)
class FleetResult:
    """Timeline and summary of one fleet simulation.

    Every observable carries a chip axis -- a heterogeneous fleet has
    per-chip schedules, so demand bookkeeping and migration counts are
    per-chip arrays (for a homogeneous fleet every column/entry is
    identical).

    Attributes:
        times_s: recorded end-of-epoch stamps, ``(n_records,)``.
        worst_degradation: worst-core delay degradation per record and
            chip, ``(n_records, n_chips)``.
        mean_degradation: chip-mean degradation, same shape.
        dropped_demand: unplaced demand per record and chip,
            ``(n_records, n_chips)``.
        final_delta_vth_v: ``(n_chips, n_cores)`` total shift at the
            end; ``final_permanent_vth_v`` / ``final_em_drift_ohm`` /
            ``em_failures`` likewise.
        variation: the per-chip scales the fleet ran with.
        migration_events: per-chip transitions into BTI recovery,
            ``(n_chips,)``.
        n_epochs: epochs simulated (shared).
        total_demand / total_dropped_demand: per-chip demand
            bookkeeping, ``(n_chips,)``.
    """

    times_s: np.ndarray
    worst_degradation: np.ndarray
    mean_degradation: np.ndarray
    dropped_demand: np.ndarray
    final_delta_vth_v: np.ndarray
    final_permanent_vth_v: np.ndarray
    final_em_drift_ohm: np.ndarray
    em_failures: np.ndarray
    variation: FleetVariation
    migration_events: np.ndarray
    n_epochs: int
    total_demand: np.ndarray
    total_dropped_demand: np.ndarray

    @property
    def n_chips(self) -> int:
        """Population size."""
        return self.final_delta_vth_v.shape[0]

    @property
    def guardbands(self) -> np.ndarray:
        """Per-chip required delay margin, ``(n_chips,)``."""
        return self.worst_degradation.max(axis=0, initial=0.0)

    def guardband_quantile(self, fraction: float) -> float:
        """Population quantile of the per-chip guardband."""
        if not 0.0 <= fraction <= 1.0:
            raise SimulationError("fraction must be in [0, 1]")
        return float(np.quantile(self.guardbands, fraction))

    @property
    def em_failure_fraction(self) -> float:
        """Fraction of chips with at least one failed local grid."""
        return float(self.em_failures.any(axis=1).mean())

    def chip_result(self, index: int) -> SystemResult:
        """The :class:`SystemResult` view of one fleet member.

        Field-for-field what a standalone
        :class:`~repro.system.simulator.SystemSimulator` with this
        chip's variation, (phase-shifted) workload and a fresh policy
        copy returns (the equivalence tests compare exactly this
        object).
        """
        if not 0 <= index < self.n_chips:
            raise SimulationError(
                f"chip index must be in [0, {self.n_chips})")
        return SystemResult(
            times_s=self.times_s.copy(),
            worst_degradation=self.worst_degradation[:, index].copy(),
            mean_degradation=self.mean_degradation[:, index].copy(),
            dropped_demand=self.dropped_demand[:, index].copy(),
            final_delta_vth_v=self.final_delta_vth_v[index].copy(),
            final_permanent_vth_v=self.final_permanent_vth_v[
                index].copy(),
            final_em_drift_ohm=self.final_em_drift_ohm[index].copy(),
            em_failures=self.em_failures[index].copy(),
            migration_events=int(self.migration_events[index]),
            n_epochs=self.n_epochs,
            total_demand=float(self.total_demand[index]),
            total_dropped_demand=float(
                self.total_dropped_demand[index]))

    def describe(self) -> str:
        """One-line population summary used by examples and benches."""
        bands = self.guardbands
        return (f"{self.n_chips} chips: guardband p50 "
                f"{np.quantile(bands, 0.50):.2%}, p99 "
                f"{np.quantile(bands, 0.99):.2%}, max "
                f"{bands.max():.2%}; EM-failed chips "
                f"{self.em_failure_fraction:.2%}")


def _merge_fleet_results(parts: List[FleetResult]) -> FleetResult:
    """Concatenate chunk results back into one population result."""
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    return FleetResult(
        times_s=first.times_s,
        worst_degradation=np.concatenate(
            [p.worst_degradation for p in parts], axis=1),
        mean_degradation=np.concatenate(
            [p.mean_degradation for p in parts], axis=1),
        dropped_demand=np.concatenate(
            [p.dropped_demand for p in parts], axis=1),
        final_delta_vth_v=np.concatenate(
            [p.final_delta_vth_v for p in parts], axis=0),
        final_permanent_vth_v=np.concatenate(
            [p.final_permanent_vth_v for p in parts], axis=0),
        final_em_drift_ohm=np.concatenate(
            [p.final_em_drift_ohm for p in parts], axis=0),
        em_failures=np.concatenate(
            [p.em_failures for p in parts], axis=0),
        variation=FleetVariation.concatenate(
            [p.variation for p in parts]),
        migration_events=np.concatenate(
            [p.migration_events for p in parts]),
        n_epochs=first.n_epochs,
        total_demand=np.concatenate(
            [p.total_demand for p in parts]),
        total_dropped_demand=np.concatenate(
            [p.total_dropped_demand for p in parts]))


# -- the engine -------------------------------------------------------------


class _EpochConditions:
    """One epoch's condition bundle for the whole stack.

    Holds the full ``(n_chips, n_cores)`` stress/capture/recovery
    stack plus the per-cohort base temperature vectors (needed for
    the end-of-run EM read-out, which evaluates each cohort at its
    own hottest core).
    """

    __slots__ = ("stressing", "capture_safe", "recovery", "j_flat",
                 "temps_flat", "cohort_temps", "token")

    def __init__(self, stressing, capture_safe, recovery, j_flat,
                 temps_flat, cohort_temps, token):
        self.stressing = stressing
        self.capture_safe = capture_safe
        self.recovery = recovery
        self.j_flat = j_flat
        self.temps_flat = temps_flat
        self.cohort_temps = cohort_temps
        self.token = token


def _budget_entries(budget_bytes: int, entry_bytes: int,
                    cap: int) -> int:
    """Cache capacity that keeps ``cap`` entries under a byte budget."""
    if entry_bytes <= 0:
        return cap
    return int(min(cap, max(0, budget_bytes // entry_bytes)))


def state_bytes_per_chip(n_cores: int,
                         state_dtype=np.float64) -> int:
    """Resident aging-state bytes one fleet chip costs.

    Counts the stacked trap arrays (three state ``(n_cores, n_bins)``
    blocks in ``state_dtype``, three more as headroom for each epoch's
    transient kernel tables, and two boolean masks' worth) and the
    flat float64 EM accumulators.  The chunked runner
    divides ``state_budget_bytes`` by this to pick its row-block
    height.
    """
    itemsize = np.dtype(state_dtype).itemsize
    trap = n_cores * _FLEET_N_BINS * (6 * itemsize + 2)
    em = n_cores * 5 * 8
    return trap + em


class FleetState:
    """Structure-of-arrays aging state of a chip population.

    Owns the stacked BTI trap populations, the flat per-core EM
    accumulators and the drawn per-chip variation scales.  The layout
    is chip-major: core ``c`` of chip ``k`` is flat unit
    ``k * n_cores + c``.
    """

    def __init__(self, chip: Chip, variation: FleetVariation,
                 calibration: BtiCalibration,
                 em_reference: EmStressCondition,
                 state_dtype=np.float64):
        self.n_chips = variation.n_chips
        self.n_cores = chip.n_cores
        self.variation = variation
        self.state_dtype = np.dtype(state_dtype)
        rows = self.n_chips * self.n_cores
        population = replace(
            calibration.model_config.population, n_bins=_FLEET_N_BINS)
        # BTI sub-step kernels are not memoized: each epoch builds one
        # over its distinct rows and drops it after the sweep.
        self.bti = StackedTrapPopulations(
            self.n_chips, self.n_cores, population,
            dtype=self.state_dtype)
        # EM rate entries are five (rows,) arrays -- far lighter.
        em_entries = max(1, _budget_entries(
            64 * 2 ** 20, 5 * rows * 8, cap=64))
        self.em = FleetEmState(rows, em_reference,
                               step_cache_size=em_entries)

    def delta_vth_v(self) -> np.ndarray:
        """Total per-core shift, ``(n_chips, n_cores)``, as float64.

        Evaluated afresh on each call, one pass over every trap row.
        In float32 mode the reduced-precision state is upcast once
        here so every downstream observable (policy inputs,
        degradation records, results) stays float64.
        """
        return np.asarray(self.bti.delta_vth_v(), dtype=np.float64)


class FleetSimulator:
    """Drives a whole chip population through its lifetime.

    The epoch loop mirrors
    :class:`~repro.system.simulator.SystemSimulator.run` -- demand,
    assignment, thermal solve, BTI/EM advance, recording -- with every
    per-core quantity carrying a chip axis.  :meth:`run` drives a
    homogeneous population (one workload, one policy, one cohort);
    :meth:`run_groups` drives a heterogeneous one, consulting each
    cohort's policy once per epoch and assembling the per-cohort
    conditions into one stacked advance.  Cohort policies see their
    cohort-worst per-core shift as the aging observable (see the
    module docstring for the exactness contract this preserves).

    Args:
        chip: the shared chip design (one thermal network, memoized
            across the whole fleet -- and, in chunked runs, across
            chunks).
        variation: per-chip scales, a spec to draw them from, or
            ``None`` for an identical population.
        seed: draw seed used when ``variation`` is a spec.
        state_dtype: trap-state dtype; ``np.float64`` (default,
            bit-exact) or ``np.float32`` (half the state memory,
            error within :data:`FLOAT32_MAX_RELATIVE_ERROR`).
    """

    def __init__(self, chip: Chip, n_chips: int,
                 calibration: Optional[BtiCalibration] = None,
                 em_reference: Optional[EmStressCondition] = None,
                 epoch_s: float = units.hours(1.0),
                 variation: Union[FleetVariation, FleetVariationSpec,
                                  None] = None,
                 seed: int = 0,
                 state_dtype=np.float64):
        if epoch_s <= 0.0:
            raise SimulationError("epoch_s must be positive")
        if n_chips < 1:
            raise SimulationError("n_chips must be at least 1")
        self.chip = chip
        self.epoch_s = epoch_s
        self.calibration = calibration or default_calibration()
        if variation is None:
            variation = FleetVariation.none(n_chips)
        elif isinstance(variation, FleetVariationSpec):
            variation = variation.draw(n_chips, seed)
        if variation.n_chips != n_chips:
            raise SimulationError(
                f"variation draw covers {variation.n_chips} chips, "
                f"fleet has {n_chips}")
        self.em_reference = em_reference or EmStressCondition(
            current_density_a_m2=chip.core.grid_current_density_a_m2,
            temperature_k=units.celsius_to_kelvin(85.0),
            name="grid reference")
        self.state = FleetState(chip, variation, self.calibration,
                                self.em_reference,
                                state_dtype=state_dtype)
        self.kernels = BtiConditionKernels(
            self.calibration.model_config.acceleration,
            self.calibration.model_config.reference_stress,
            stress_voltage_v=chip.core.stress_voltage_v)
        # One bundle per distinct epoch decision: the per-cohort base
        # conditions are computed once (shared thermal memo), the
        # variation scales broadcast once, and every repeat epoch is a
        # dictionary hit.  The token covers the cohort layout plus
        # every cohort's assignment bytes, so distinct schedules (or
        # layouts across run calls) never collide.
        rows = n_chips * chip.n_cores
        bundle_entries = max(1, _budget_entries(
            64 * 2 ** 20, 33 * rows, cap=64))
        self._condition_cache = FactorizationCache(
            maxsize=bundle_entries, name="fleet.conditions")

    @property
    def variation(self) -> FleetVariation:
        """The per-chip scales this fleet runs with."""
        return self.state.variation

    # -- cohorts -----------------------------------------------------------

    def _build_cohorts(self, groups: Sequence[FleetGroup]
                       ) -> List[_Cohort]:
        """Split groups into per-phase cohorts with fresh templates."""
        if not groups:
            raise SimulationError("need at least one group")
        cohorts: List[_Cohort] = []
        start = 0
        for group in groups:
            phases = group.phases or (0,) * group.n_chips
            run_start = 0
            while run_start < group.n_chips:
                run_stop = run_start + 1
                while (run_stop < group.n_chips
                       and phases[run_stop] == phases[run_start]):
                    run_stop += 1
                if hasattr(group.policy, "assign"):
                    policy = copy.deepcopy(group.policy)
                else:
                    policy = group.policy(self.chip)
                workload = copy.deepcopy(group.workload)
                phase = phases[run_start]
                if phase:
                    workload = PhasedWorkload(workload, phase)
                cohorts.append(_Cohort(
                    start + run_start, start + run_stop, workload,
                    policy, self.chip.n_cores))
                run_start = run_stop
            start += group.n_chips
        if start != self.state.n_chips:
            raise SimulationError(
                f"groups cover {start} chips, fleet has "
                f"{self.state.n_chips}")
        return cohorts

    # -- conditions --------------------------------------------------------

    def _build_group_conditions(self, keyed, token) -> _EpochConditions:
        """Assemble one full-stack bundle from per-cohort assignments.

        The cohorts' base conditions are evaluated once, stacked
        ``(n_cohorts, n_cores)`` (the thermal solves stay per cohort,
        in cohort order), and expanded to the chip rows by one gather
        on each chip's cohort index.  Element ``(k, c)`` of every
        array is then ``base[cohort(k), c] * scale[k]`` -- the same
        single multiply the scalar simulator applies, so each row
        matches its standalone chip bitwise.
        """
        v = self.variation
        temps, active, capture, recovery, j = base_epoch_conditions(
            self.chip, self.kernels,
            [assignment for _, _, assignment in keyed])
        cohort_of = np.repeat(np.arange(len(keyed)),
                              [stop - start for start, stop, _ in keyed])
        capture2d = capture[cohort_of] * v.capture_scale[:, None]
        return _EpochConditions(
            active[cohort_of],
            np.where(capture2d > 0.0, capture2d, 1.0),
            recovery[cohort_of] * v.recovery_scale[:, None],
            (j[cohort_of] * v.em_current_scale[:, None]).reshape(-1),
            temps[cohort_of].reshape(-1),
            [(start, stop, temps[index])
             for index, (start, stop, _) in enumerate(keyed)],
            token)

    # -- epoch loops -------------------------------------------------------

    def run(self, n_epochs: int, workload: Workload,
            policy: SchedulingPolicy,
            record_every: int = 1) -> FleetResult:
        """Simulate a homogeneous population: one workload, one policy.

        Equivalent to :meth:`run_groups` with a single all-chips
        group; the workload and policy are treated as templates
        (deep-copied before the run), so calling ``run`` never
        mutates the caller's objects.
        """
        group = FleetGroup(n_chips=self.state.n_chips,
                           workload=workload, policy=policy)
        return self.run_groups(n_epochs, (group,),
                               record_every=record_every)

    def run_groups(self, n_epochs: int,
                   groups: Sequence[FleetGroup],
                   record_every: int = 1) -> FleetResult:
        """Simulate a heterogeneous population of policy/phase groups.

        Each cohort's scheduler is consulted per epoch with its own
        demand and cohort-worst aging observable; the resulting
        per-cohort conditions are assembled into one stacked bundle
        and the whole population's BTI/EM state advances in single
        tensor passes.  Repeated epoch decisions (same cohort layout,
        same assignment bytes) hit the condition and kernel memos.
        """
        if n_epochs < 1:
            raise SimulationError("n_epochs must be at least 1")
        run = _FleetRun(self, groups, record_every=record_every,
                        n_epochs=n_epochs)
        run.advance(n_epochs)
        return run.result()


class _FleetRun:
    """Resumable epoch-loop state of one fleet simulation.

    Owns everything :meth:`FleetSimulator.run_groups` used to keep in
    loop locals -- the per-cohort policy/workload copies with their
    mutable cursors, the epoch cursor, the demand/migration
    accumulators and the recorded timeline -- so an advance can stop
    after any epoch and continue later (or in another process, via
    :mod:`repro.system.checkpoint`) with a trajectory bit-identical
    to an uninterrupted run: every cross-epoch input is either stored
    here or recomputed as the same pure function of the stored state.

    ``n_epochs=None`` leaves the horizon open (the incremental
    :class:`~repro.system.checkpoint.FleetSession` mode): records then
    follow the ``record_every`` modulo rule only, while a declared
    horizon additionally records its final epoch exactly like the
    one-shot loop.
    """

    def __init__(self, simulator: FleetSimulator,
                 groups: Sequence[FleetGroup],
                 record_every: int = 1,
                 n_epochs: Optional[int] = None):
        if record_every < 1:
            raise SimulationError("record_every must be at least 1")
        if n_epochs is not None and n_epochs < 1:
            raise SimulationError("n_epochs must be at least 1")
        self.simulator = simulator
        self.groups = tuple(groups)
        self.record_every = record_every
        self.n_epochs = n_epochs
        self.cohorts = simulator._build_cohorts(self.groups)
        n_chips = simulator.state.n_chips
        self.epoch = 0
        self.migration_events = np.zeros(n_chips, dtype=np.int64)
        self.total_demand = np.zeros(n_chips)
        self.total_dropped = np.zeros(n_chips)
        self.times: List[float] = []
        self.worst: List[np.ndarray] = []
        self.mean: List[np.ndarray] = []
        self.dropped: List[np.ndarray] = []
        self._dropped_epoch = np.empty(n_chips)
        # Per-cohort (start, stop, temps) of the last advanced epoch;
        # result() evaluates the EM read-out and the thermal refresh
        # from these, so they are part of the resumable state.
        self.cohort_temps: Optional[
            List[Tuple[int, int, np.ndarray]]] = None
        # The population's delta-Vth after the last advanced epoch,
        # which the epoch loop computes anyway; derived, not saved
        # (None until advanced, and again after a restore).
        self.delta_vth: Optional[np.ndarray] = None

    def current_delta_vth(self) -> np.ndarray:
        """The population's delta-Vth now, ``(n_chips, n_cores)``.

        The end-of-epoch value of the last advance, or one fresh
        evaluation of the state if there was none.  Callers must not
        write into it.
        """
        if self.delta_vth is None:
            self.delta_vth = self.simulator.state.delta_vth_v()
        return self.delta_vth

    def advance(self, n_epochs: int) -> None:
        """Advance the population by ``n_epochs`` more epochs."""
        if n_epochs < 1:
            raise SimulationError("n_epochs must be at least 1")
        if (self.n_epochs is not None
                and self.epoch + n_epochs > self.n_epochs):
            raise SimulationError(
                f"advance past the declared horizon: "
                f"{self.epoch} + {n_epochs} > {self.n_epochs}")
        simulator = self.simulator
        state = simulator.state
        epoch_s = simulator.epoch_s
        oscillator = simulator.chip.core.oscillator
        cohorts = self.cohorts
        record_every = self.record_every
        horizon = self.n_epochs
        migration_events = self.migration_events
        total_demand = self.total_demand
        total_dropped = self.total_dropped
        dropped_epoch = self._dropped_epoch
        delta_vth = self.current_delta_vth()
        # Stale once the state moves: an advance that raises must not
        # leave it behind for the next query.
        self.delta_vth = None
        cond = None
        for epoch in range(self.epoch, self.epoch + n_epochs):
            if _TEST_EPOCH_SLEEP_S > 0.0:
                time.sleep(_TEST_EPOCH_SLEEP_S)
            keyed = []
            key_parts = []
            for cohort in cohorts:
                demand = cohort.workload.demand(epoch)
                assignment = cohort.policy.assign(
                    epoch, demand,
                    delta_vth[cohort.start:cohort.stop].max(axis=0),
                    cohort.previous_utilization)
                recovering = assignment.bti_recovering
                migrated = int(np.count_nonzero(
                    recovering & ~cohort.previous_recovering))
                if migrated:
                    migration_events[cohort.start:cohort.stop] += \
                        migrated
                cohort.previous_recovering = recovering
                cohort.previous_utilization = assignment.utilization
                total_demand[cohort.start:cohort.stop] += demand
                total_dropped[cohort.start:cohort.stop] += \
                    assignment.dropped_demand
                dropped_epoch[cohort.start:cohort.stop] = \
                    assignment.dropped_demand
                keyed.append((cohort.start, cohort.stop, assignment))
                key_parts.append((cohort.start, cohort.stop)
                                 + assignment.cache_key())
            token = tuple(key_parts)
            cond = simulator._condition_cache.get_or_build(
                token,
                lambda: simulator._build_group_conditions(keyed,
                                                          token))
            state.bti.step(epoch_s, cond.stressing,
                           cond.capture_safe, cond.recovery)
            state.em.step(epoch_s, cond.j_flat, cond.temps_flat,
                          key=(epoch_s, token))
            delta_vth = state.delta_vth_v()
            if ((epoch + 1) % record_every == 0
                    or (horizon is not None and epoch == horizon - 1)):
                degradation = oscillator.delay_degradation_array(
                    delta_vth)
                self.times.append((epoch + 1) * epoch_s)
                self.worst.append(degradation.max(axis=1))
                self.mean.append(degradation.mean(axis=1))
                self.dropped.append(dropped_epoch.copy())
        self.epoch += n_epochs
        self.delta_vth = delta_vth
        self.cohort_temps = [(start, stop, temps.copy())
                             for start, stop, temps
                             in cond.cohort_temps]

    def result(self) -> FleetResult:
        """The :class:`FleetResult` of everything advanced so far."""
        if self.epoch < 1 or self.cohort_temps is None:
            raise SimulationError(
                "advance at least one epoch before taking a result")
        simulator = self.simulator
        state = simulator.state
        # Same read-out refresh as the scalar simulator, per cohort:
        # each cohort's EM failure check evaluates the reference
        # resistance at that cohort's own hottest core.  The shared
        # thermal network is left reflecting the last cohort's solve.
        simulator.chip.thermal.temperatures_k = \
            self.cohort_temps[-1][2].copy()
        shape = (state.n_chips, state.n_cores)
        em_failures = np.empty(shape, dtype=bool)
        for start, stop, temps in self.cohort_temps:
            read_t = float(np.max(temps))
            em_failures[start:stop] = \
                state.em.failed(read_t).reshape(shape)[start:stop]
        record_counters("fleet.engine", chips=state.n_chips,
                        epochs=self.epoch, cohorts=len(self.cohorts))
        return FleetResult(
            times_s=np.array(self.times),
            worst_degradation=np.array(self.worst),
            mean_degradation=np.array(self.mean),
            dropped_demand=np.array(self.dropped),
            final_delta_vth_v=self.current_delta_vth().copy(),
            final_permanent_vth_v=np.asarray(
                state.bti.permanent_vth_v(),
                dtype=np.float64).copy(),
            final_em_drift_ohm=state.em.delta_resistance_ohm()
            .reshape(shape),
            em_failures=em_failures,
            variation=simulator.variation,
            migration_events=self.migration_events.copy(),
            n_epochs=self.epoch,
            total_demand=self.total_demand.copy(),
            total_dropped_demand=self.total_dropped.copy())


# -- population entry point -------------------------------------------------


def _slice_groups(groups: Sequence[FleetGroup], start: int,
                  stop: int) -> Tuple[FleetGroup, ...]:
    """The groups restricted to global chips ``[start, stop)``."""
    out = []
    g0 = 0
    for group in groups:
        g1 = g0 + group.n_chips
        lo, hi = max(g0, start), min(g1, stop)
        if lo < hi:
            phases = None
            if group.phases is not None:
                phases = group.phases[lo - g0:hi - g0]
            out.append(FleetGroup(
                n_chips=hi - lo, workload=group.workload,
                policy=group.policy, phases=phases, name=group.name))
        g0 = g1
    return tuple(out)


def _chunk_size(n_chips: int, n_cores: int, state_dtype,
                max_chunk_chips: Optional[int],
                state_budget_bytes: Optional[int]) -> int:
    """Chips per chunk under the caller's row and byte limits."""
    limit = n_chips
    if max_chunk_chips is not None:
        if max_chunk_chips < 1:
            raise SimulationError(
                "max_chunk_chips must be at least 1")
        limit = min(limit, max_chunk_chips)
    if state_budget_bytes is not None:
        if state_budget_bytes < 1:
            raise SimulationError(
                "state_budget_bytes must be positive")
        per_chip = state_bytes_per_chip(n_cores, state_dtype)
        limit = min(limit, max(1, state_budget_bytes // per_chip))
    return max(1, limit)


# -- parallel chunk execution -----------------------------------------------


#: Below this much stacked work (``n_chips * n_cores * n_epochs``) the
#: chunked runner never starts a process pool: pool spawn plus chip
#: pickling costs tens of milliseconds, which dominates small fleets
#: the way tiny task lists dominate
#: :data:`repro.solvers.sweep.DEFAULT_MIN_TASKS_FOR_POOL`.  Callers
#: with heavier (or lighter) per-chunk work override the gate with an
#: explicit ``min_chunks_for_pool``.
MIN_CORE_EPOCHS_FOR_POOL = 1 << 20

# Fault-injection hooks, mirroring tests/test_sweep_faults.py: pool
# workers are forked on Linux, so a test that monkeypatches these
# module globals reaches the children too.  ``_TEST_STAGGER_S`` delays
# chunk k by ``stagger * (n_chunks - 1 - k)`` so later chunks finish
# *first* (exercising out-of-order completion); ``_TEST_DIE_UNLESS_PID``
# hard-kills any process but the named one (exercising worker-death
# recovery -- the parent survives and re-runs the chunks serially).
_TEST_STAGGER_S = 0.0
_TEST_DIE_UNLESS_PID: Optional[int] = None

#: Per-epoch sleep injected into :meth:`_FleetRun.advance` -- slows a
#: run down so a kill-and-resume test can SIGKILL it mid-lifetime at a
#: controlled epoch.  Forked workers inherit the setting.
_TEST_EPOCH_SLEEP_S = 0.0


def _n_records(n_epochs: int, record_every: int) -> int:
    """Timeline rows :meth:`FleetSimulator.run_groups` will record."""
    return (n_epochs // record_every
            + (1 if n_epochs % record_every else 0))


def _slab_fields(n_chips: int, n_cores: int, n_records: int
                 ) -> Tuple[Tuple[str, Tuple[int, ...], type], ...]:
    """Ordered ``(name, shape, dtype)`` layout of one result slab.

    One entry per :class:`FleetResult` array field; the slab is their
    dense back-to-back packing.  Timeline fields carry the chip axis
    last so a chunk's scatter is a column slice; summary fields are
    chip-major so it is a row slice.
    """
    return (
        ("times_s", (n_records,), np.float64),
        ("worst_degradation", (n_records, n_chips), np.float64),
        ("mean_degradation", (n_records, n_chips), np.float64),
        ("dropped_demand", (n_records, n_chips), np.float64),
        ("final_delta_vth_v", (n_chips, n_cores), np.float64),
        ("final_permanent_vth_v", (n_chips, n_cores), np.float64),
        ("final_em_drift_ohm", (n_chips, n_cores), np.float64),
        ("em_failures", (n_chips, n_cores), np.bool_),
        ("capture_scale", (n_chips,), np.float64),
        ("recovery_scale", (n_chips,), np.float64),
        ("em_current_scale", (n_chips,), np.float64),
        ("migration_events", (n_chips,), np.int64),
        ("total_demand", (n_chips,), np.float64),
        ("total_dropped_demand", (n_chips,), np.float64),
    )


def _slab_nbytes(n_chips: int, n_cores: int, n_records: int) -> int:
    """Total bytes of the packed slab layout."""
    return sum(int(np.prod(shape)) * np.dtype(dtype).itemsize
               for _, shape, dtype
               in _slab_fields(n_chips, n_cores, n_records))


def _slab_views(handle: "_FleetSlabHandle", buf) -> dict:
    """Zero-copy array views of every slab field over ``buf``."""
    views = {}
    offset = 0
    for name, shape, dtype in _slab_fields(
            handle.n_chips, handle.n_cores, handle.n_records):
        views[name] = np.ndarray(shape, dtype=dtype, buffer=buf,
                                 offset=offset)
        offset += int(np.prod(shape)) * np.dtype(dtype).itemsize
    return views


#: Serializes the <3.13 ``resource_tracker.register`` patch below:
#: the patch is process-global, so two threads attaching at once must
#: not install/restore it over each other.
_TRACKER_PATCH_LOCK = threading.Lock()


def _attach_shared_memory(name: str):
    """Attach to an existing slab without adopting its lifetime.

    The parent owns the slab (it created it and unlinks it after the
    gather); an attaching worker must not register the segment with a
    resource tracker, or the tracker would schedule a second unlink
    (and, under fork, workers *share* the parent's tracker, so an
    unregister-after-attach would erase the parent's own
    registration).  Python 3.13+ exposes ``track=False`` for exactly
    this; on older versions the registration is suppressed for the
    duration of the attach.

    The suppression is *surgical*: ``resource_tracker.register`` is a
    process-global hook, so a blanket no-op would silently drop the
    registration of any other ``SharedMemory`` created concurrently
    on another thread and leak that segment.  Instead the patch is
    serialized behind :data:`_TRACKER_PATCH_LOCK` and only swallows
    registrations of *this* segment name, delegating everything else
    to the real tracker.
    """
    from multiprocessing import shared_memory
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker
        # POSIX segment names reach the tracker with a leading slash
        # ("/psm_..."), while SharedMemory.name strips it; compare the
        # final path component so both spellings match.
        ours = name.split("/")[-1]
        with _TRACKER_PATCH_LOCK:
            original = resource_tracker.register

            def register_skipping_ours(res_name, rtype,
                                       *args, **kwargs):
                if (rtype == "shared_memory"
                        and str(res_name).split("/")[-1] == ours):
                    return None
                return original(res_name, rtype, *args, **kwargs)

            resource_tracker.register = register_skipping_ours
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original


@dataclass(frozen=True)
class _FleetSlabHandle:
    """Picklable name-plus-layout reference to a result slab.

    Workers receive this (a few dozen bytes) instead of shipping
    multi-hundred-MB :class:`FleetResult` arrays back through the
    pool's pickle pipe: each worker attaches to the named segment,
    scatters its chunk's rows in place, and returns only the chunk
    index as an acknowledgement.
    """

    shm_name: str
    n_chips: int
    n_cores: int
    n_records: int

    def scatter(self, result: FleetResult, start: int,
                stop: int) -> None:
        """Write one chunk's rows ``[start, stop)`` into the slab.

        Row ranges of distinct chunks are disjoint, so concurrent
        scatters never race; ``times_s`` is the shared epoch grid,
        identical for every chunk, so its overlapping writes are
        byte-equal.  The views must be dropped before ``close`` --
        an mmap with live exports refuses to close.
        """
        shm = _attach_shared_memory(self.shm_name)
        views = None
        try:
            views = _slab_views(self, shm.buf)
            views["times_s"][:] = result.times_s
            for name in ("worst_degradation", "mean_degradation",
                         "dropped_demand"):
                views[name][:, start:stop] = getattr(result, name)
            for name in ("final_delta_vth_v",
                         "final_permanent_vth_v",
                         "final_em_drift_ohm", "em_failures",
                         "migration_events", "total_demand",
                         "total_dropped_demand"):
                views[name][start:stop] = getattr(result, name)
            for name in ("capture_scale", "recovery_scale",
                         "em_current_scale"):
                views[name][start:stop] = getattr(result.variation,
                                                  name)
        finally:
            views = None
            shm.close()


class _FleetSlab:
    """Parent-side owner of one shared-memory result slab."""

    def __init__(self, n_chips: int, n_cores: int, n_records: int):
        from multiprocessing import shared_memory
        self._shm = shared_memory.SharedMemory(
            create=True,
            size=max(1, _slab_nbytes(n_chips, n_cores, n_records)))
        self.handle = _FleetSlabHandle(
            shm_name=self._shm.name, n_chips=n_chips,
            n_cores=n_cores, n_records=n_records)

    def gather(self, n_epochs: int) -> FleetResult:
        """Copy the fully scattered slab out into an owned result."""
        views = _slab_views(self.handle, self._shm.buf)
        try:
            return FleetResult(
                times_s=views["times_s"].copy(),
                worst_degradation=views["worst_degradation"].copy(),
                mean_degradation=views["mean_degradation"].copy(),
                dropped_demand=views["dropped_demand"].copy(),
                final_delta_vth_v=views["final_delta_vth_v"].copy(),
                final_permanent_vth_v=views[
                    "final_permanent_vth_v"].copy(),
                final_em_drift_ohm=views[
                    "final_em_drift_ohm"].copy(),
                em_failures=views["em_failures"].copy(),
                variation=FleetVariation(
                    capture_scale=views["capture_scale"].copy(),
                    recovery_scale=views["recovery_scale"].copy(),
                    em_current_scale=views[
                        "em_current_scale"].copy()),
                migration_events=views["migration_events"].copy(),
                n_epochs=n_epochs,
                total_demand=views["total_demand"].copy(),
                total_dropped_demand=views[
                    "total_dropped_demand"].copy())
        finally:
            views = None

    def close(self) -> None:
        """Release the parent mapping and unlink the segment."""
        try:
            self._shm.close()
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass


@dataclass(frozen=True)
class _ChunkCheckpoint:
    """Picklable per-chunk checkpoint configuration.

    ``directory`` is the study's checkpoint directory, ``every`` the
    progress-snapshot cadence in epochs (``None`` writes only the
    final chunk result), ``digest`` the study fingerprint every file
    carries (see :func:`repro.system.checkpoint.study_digest`).
    """

    directory: str
    every: Optional[int]
    digest: str


@dataclass(frozen=True)
class _FleetChunkTask:
    """Everything a pool worker needs for one whole-lifetime chunk.

    The chip travels as a :class:`ChipConfig` (live chips hold an
    unpicklable thermal factorization), the variation as either a
    pre-sliced draw or the spec itself (workers draw their rows by
    global index, so the chunk draw is bit-identical to the
    corresponding slice of an unchunked draw), and the output path as
    an optional slab handle (``None`` falls back to pickling the
    chunk's :class:`FleetResult` through the pool pipe).  With a
    ``checkpoint`` attached the chunk is crash-durable: it restores
    itself from its newest snapshot before advancing and writes
    progress at the configured cadence.
    """

    chunk: ChunkTask
    n_chunks: int
    chip: ChipConfig
    groups: Tuple[FleetGroup, ...]
    n_epochs: int
    epoch_s: float
    record_every: int
    variation: Union[FleetVariation, FleetVariationSpec, None]
    seed: int
    calibration: Optional[BtiCalibration]
    em_reference: Optional[EmStressCondition]
    state_dtype: str
    slab: Optional[_FleetSlabHandle]
    checkpoint: Optional[_ChunkCheckpoint] = None


def _execute_chunk(built: Chip, task: _FleetChunkTask
                   ) -> Tuple[FleetResult, bool]:
    """Run (or restore) one whole-lifetime row chunk on ``built``.

    The shared chunk executor of the serial stream and the pool
    workers.  Resolves the chunk's variation rows by global index,
    honors the chunk's checkpoint configuration -- a complete result
    file short-circuits the run entirely, a progress snapshot
    restores the epoch cursor, and cadenced progress snapshots are
    written while advancing -- and returns ``(result, from_cache)``.
    Splitting the advance at checkpoint boundaries is bitwise
    invariant: every epoch sees the same state, conditions and record
    decisions as one uninterrupted advance.
    """
    ckpt = task.checkpoint
    if ckpt is not None:
        from repro.system import checkpoint as checkpoint_mod
        cached = checkpoint_mod.load_chunk_result(
            ckpt, task.chunk.index)
        if cached is not None:
            return cached, True
    start, stop = task.chunk.start, task.chunk.stop
    variation = task.variation
    if isinstance(variation, FleetVariationSpec):
        variation = variation.draw_range(start, stop, task.seed)
    simulator = FleetSimulator(
        built, stop - start,
        calibration=task.calibration,
        em_reference=task.em_reference, epoch_s=task.epoch_s,
        variation=variation, seed=task.seed,
        state_dtype=np.dtype(task.state_dtype))
    run = _FleetRun(simulator, task.groups,
                    record_every=task.record_every,
                    n_epochs=task.n_epochs)
    every = None
    if ckpt is not None:
        checkpoint_mod.resume_chunk_run(ckpt, task.chunk.index, run)
        every = ckpt.every
    while run.epoch < task.n_epochs:
        if every:
            step = min(every - run.epoch % every,
                       task.n_epochs - run.epoch)
        else:
            step = task.n_epochs - run.epoch
        run.advance(step)
        if every and run.epoch < task.n_epochs:
            checkpoint_mod.save_chunk_progress(
                ckpt, task.chunk.index, run)
    result = run.result()
    if ckpt is not None:
        checkpoint_mod.save_chunk_result(
            ckpt, task.chunk.index, result)
    return result, False


def _run_fleet_chunk(task: _FleetChunkTask):
    """Run one row chunk (inside a pool worker, or the parent on
    serial fallback).

    Returns the chunk's :class:`FleetResult` when no slab is attached;
    with a slab, the rows are scattered in place and only the chunk
    index travels back.
    """
    if (_TEST_DIE_UNLESS_PID is not None
            and os.getpid() != _TEST_DIE_UNLESS_PID):
        os._exit(1)
    if _TEST_STAGGER_S > 0.0:
        time.sleep(_TEST_STAGGER_S
                   * (task.n_chunks - 1 - task.chunk.index))
    result, _ = _execute_chunk(task.chip.build(), task)
    if task.slab is None:
        return result
    task.slab.scatter(result, task.chunk.start, task.chunk.stop)
    return task.chunk.index


def _pool_serial_reason(n_chips: int, n_cores: int, n_epochs: int,
                        n_chunks: int, workers: int,
                        min_chunks_for_pool: Optional[int]
                        ) -> Optional[str]:
    """Why the chunk stream should stay serial (``None`` to pool)."""
    if workers <= 1:
        return "max_workers <= 1"
    if n_chunks < 2:
        return "single chunk"
    if min_chunks_for_pool is not None:
        if min_chunks_for_pool < 1:
            raise SimulationError(
                "min_chunks_for_pool must be at least 1")
        if n_chunks < min_chunks_for_pool:
            return (f"{n_chunks} chunks below "
                    f"min_chunks_for_pool={min_chunks_for_pool}")
        return None
    work = n_chips * n_cores * n_epochs
    if work < MIN_CORE_EPOCHS_FOR_POOL:
        return (f"{work} core-epochs below pool threshold "
                f"{MIN_CORE_EPOCHS_FOR_POOL}")
    return None


def run_fleet_lifetime_study(
        chip: Union[Chip, ChipConfig, Tuple[int, int]],
        n_chips: Optional[int] = None,
        workload: Optional[Workload] = None,
        policy: Optional[SchedulingPolicy] = None,
        *,
        n_epochs: int,
        epoch_s: float = units.hours(1.0),
        record_every: int = 1,
        variation: Union[FleetVariation, FleetVariationSpec,
                         None] = None,
        seed: int = 0,
        calibration: Optional[BtiCalibration] = None,
        em_reference: Optional[EmStressCondition] = None,
        groups: Optional[Sequence[FleetGroup]] = None,
        max_chunk_chips: Optional[int] = None,
        state_budget_bytes: Optional[int] = None,
        state_dtype=np.float64,
        max_workers: Optional[int] = None,
        min_chunks_for_pool: Optional[int] = None,
        retries: int = 0,
        on_report: Optional[Callable[[SweepReport], None]] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None
        ) -> FleetResult:
    """Monte Carlo lifetime study of a chip population.

    The in-process replacement for fanning identical (or
    policy/phase-grouped) cells through ``run_lifetime_sweep``: one
    :class:`FleetSimulator` advances the whole population as stacked
    arrays, with per-chip diversity coming from the ``variation``
    draw, the per-chip workload ``phases`` and the per-group
    policies.  Populations larger than memory stream through in row
    chunks: each chunk re-runs its groups' fresh policy/workload
    copies from epoch 0 against the same shared chip (so the thermal
    memo is warm after the first chunk), and results concatenate --
    the outcome is invariant in the chunk size.

    Chunks are whole-lifetime and independent, so with
    ``max_workers > 1`` (and enough work to clear the serial gate)
    they dispatch across :func:`repro.solvers.sweep.run_sweep`'s
    crash-safe process pool: a worker killed mid-fleet degrades the
    study to chunk-level serial re-execution instead of aborting it,
    bounded ``retries`` re-run flaky chunks, and the
    :class:`~repro.solvers.SweepReport` delivered via ``on_report``
    aggregates every worker's named-cache counters.  Workers scatter
    their rows into one preallocated
    ``multiprocessing.shared_memory`` slab (pickling only a tiny
    acknowledgement back), and chunk boundaries are the identical
    :func:`repro.solvers.sweep.chunk_tasks` partition on both paths,
    so a pooled run merges **bit-identically** to the serial chunk
    stream for every worker count and completion order.  Note that
    ``state_budget_bytes`` bounds one *chunk* and each worker holds
    one chunk resident: with pooling the budget is per worker, and
    total residency is ``n_workers x state_budget_bytes`` by
    construction.

    Args:
        chip: the shared design -- a live :class:`Chip`, a
            :class:`ChipConfig`, or a bare ``(rows, cols)`` tuple.
        n_chips: population size (omit when ``groups`` is given).
        workload / policy: shared demand generator and scheduling
            policy of a homogeneous population (omit with
            ``groups``).
        n_epochs / epoch_s / record_every: as in
            :meth:`SystemSimulator.run`.
        variation: per-chip process variation -- a
            :class:`FleetVariationSpec` to draw from ``seed``, a
            pre-drawn :class:`FleetVariation`, or ``None`` for an
            identical population.  Draws are by global chip index,
            so chunking never reshuffles them.
        seed: variation draw seed (chip ``k`` draws from
            ``task_seed_sequence(seed, k)``).
        calibration / em_reference: forwarded to the simulator.
        groups: heterogeneous population layout, a sequence of
            :class:`FleetGroup` laid out back-to-back in chip order;
            mutually exclusive with ``workload`` / ``policy``.
        max_chunk_chips: upper bound on chips resident at once (per
            worker, when pooled).
        state_budget_bytes: byte budget for the resident aging state;
            the chunk height is ``budget // state_bytes_per_chip``.
            A *per-worker* budget under pooling: total residency is
            ``n_workers x budget``.
        state_dtype: trap-state dtype (``np.float64`` bit-exact, or
            ``np.float32`` at half the state memory within
            :data:`FLOAT32_MAX_RELATIVE_ERROR`).
        max_workers: process count for parallel chunk execution;
            ``None`` picks the CPU count, ``0``/``1`` forces the
            serial chunk stream.  Results are bitwise identical
            either way.
        min_chunks_for_pool: explicit pooling threshold -- fewer
            chunks than this run serially.  ``None`` (default)
            applies the work-aware gate: pool only when the stacked
            work ``n_chips * n_cores * n_epochs`` reaches
            :data:`MIN_CORE_EPOCHS_FOR_POOL` (mirroring
            ``min_tasks_for_pool`` in
            :func:`~repro.solvers.sweep.run_sweep`).
        retries: bounded per-chunk re-executions before the study
            fails (chunk results are deterministic, so a retry
            reproduces the identical rows).
        on_report: optional callback receiving the run's
            :class:`~repro.solvers.SweepReport` -- mode ``"fleet"``
            for the serial stream, ``"fleet+pool"`` /
            ``"fleet+pool+serial-fallback"`` for pooled runs, with
            per-chunk wall times and cache counters aggregated
            across workers.  A run that dies before producing any
            sweep report still emits one, under mode
            ``"fleet+failed"``, so failed runs leave telemetry.
        checkpoint_every / checkpoint_dir: crash durability.  With a
            ``checkpoint_dir``, every chunk writes its finished
            :class:`FleetResult` there, and (with a
            ``checkpoint_every`` cadence) an in-progress snapshot
            every that many epochs; re-invoking the identical study
            against the same directory restores complete chunks
            (``executed_in == "cached"`` in the report) and resumes
            incomplete ones from their newest snapshot.  The resumed
            result is **bitwise-equal** to an uninterrupted run, for
            serial and pooled execution alike.  See
            :mod:`repro.system.checkpoint` (and
            :func:`~repro.system.checkpoint
            .resume_fleet_lifetime_study` for resuming without
            restating the study).

    Returns:
        A :class:`FleetResult`; ``chip_result(i)`` recovers any
        member's full :class:`SystemResult`.
    """
    if isinstance(chip, Chip):
        built = chip
    elif isinstance(chip, ChipConfig):
        built = chip.build()
    else:
        rows, cols = chip
        built = Chip(int(rows), int(cols))
    if groups is None:
        if n_chips is None or workload is None or policy is None:
            raise SimulationError(
                "provide n_chips, workload and policy, or groups")
        groups = (FleetGroup(n_chips=n_chips, workload=workload,
                             policy=policy),)
    else:
        if workload is not None or policy is not None:
            raise SimulationError(
                "groups and workload/policy are mutually exclusive")
        groups = tuple(groups)
        total = sum(group.n_chips for group in groups)
        if n_chips is not None and n_chips != total:
            raise SimulationError(
                f"groups cover {total} chips, n_chips says {n_chips}")
        n_chips = total
    chunk = _chunk_size(n_chips, built.n_cores, state_dtype,
                        max_chunk_chips, state_budget_bytes)
    bounds = chunk_tasks(n_chips, chunk)
    n_chunks = len(bounds)
    workers = (max_workers if max_workers is not None
               else (os.cpu_count() or 1))
    if workers < 0:
        raise SimulationError("max_workers must be non-negative")
    if retries < 0:
        raise SimulationError("retries must be non-negative")
    reason = _pool_serial_reason(n_chips, built.n_cores, n_epochs,
                                 n_chunks, workers,
                                 min_chunks_for_pool)
    if isinstance(chip, ChipConfig):
        config = chip
    else:
        config = ChipConfig(rows=built.rows, cols=built.cols,
                            core=built.core,
                            thermal=built.thermal.config)
    dtype_str = np.dtype(state_dtype).str
    ckpt: Optional[_ChunkCheckpoint] = None
    if checkpoint_dir is not None:
        from repro.system import checkpoint as checkpoint_mod
        ckpt = checkpoint_mod.prepare_study_directory(
            checkpoint_dir, every=checkpoint_every, chip=config,
            groups=groups, n_epochs=n_epochs, epoch_s=epoch_s,
            record_every=record_every, variation=variation,
            seed=seed, calibration=calibration,
            em_reference=em_reference, state_dtype=dtype_str,
            bounds=bounds, max_chunk_chips=max_chunk_chips,
            state_budget_bytes=state_budget_bytes)
    elif checkpoint_every is not None:
        raise SimulationError(
            "checkpoint_every requires checkpoint_dir")
    # One task list feeds both paths: the serial stream executes the
    # tasks in-process against the shared chip, the pooled path ships
    # them to workers.  Chunk boundaries, variation draws and group
    # slices are identical either way, so the merged result is
    # bitwise identical for every worker count.
    sweep_tasks: List[_FleetChunkTask] = []
    for task in bounds:
        if variation is None or isinstance(variation,
                                           FleetVariationSpec):
            chunk_variation = variation
        else:
            chunk_variation = variation.slice_range(task.start,
                                                    task.stop)
        sweep_tasks.append(_FleetChunkTask(
            chunk=task, n_chunks=n_chunks, chip=config,
            groups=_slice_groups(groups, task.start, task.stop),
            n_epochs=n_epochs, epoch_s=epoch_s,
            record_every=record_every, variation=chunk_variation,
            seed=seed, calibration=calibration,
            em_reference=em_reference, state_dtype=dtype_str,
            slab=None, checkpoint=ckpt))
    started = time.perf_counter()

    if reason is not None:
        # Serial chunk stream: one shared chip (warm thermal memo
        # after the first chunk), chunks advanced in order.  The
        # report is emitted from the finally block so a chunk that
        # raises still leaves telemetry (mode "fleet+failed" with the
        # chunks that did complete).
        before = cache_counters() if on_report is not None else None
        parts: List[FleetResult] = []
        records: List[ChunkRecord] = []
        failed = True
        try:
            for task in sweep_tasks:
                chunk_started = time.perf_counter()
                part, from_cache = _execute_chunk(built, task)
                parts.append(part)
                records.append(ChunkRecord(
                    index=task.chunk.index, start=task.chunk.index,
                    stop=task.chunk.index + 1,
                    executed_in="cached" if from_cache else "serial",
                    wall_time_s=time.perf_counter() - chunk_started,
                    retries=0, n_failures=0))
            failed = False
        finally:
            if not failed:
                record_counters("fleet.engine", chunks=n_chunks)
            if on_report is not None:
                counters = _cache_delta(before, cache_counters())
                if failed:
                    entry = counters.setdefault(
                        "fleet.engine", {"hits": 0, "misses": 0})
                    entry["chunks"] = (entry.get("chunks", 0)
                                       + len(records))
                on_report(SweepReport(
                    n_tasks=n_chunks, n_chunks=n_chunks,
                    max_workers=workers,
                    mode="fleet+failed" if failed else "fleet",
                    serial_reason=reason, fallback_reasons=(),
                    wall_time_s=time.perf_counter() - started,
                    chunks=tuple(records), retries=0, failures=(),
                    cache_counters=counters))
        return _merge_fleet_results(parts)

    # Pooled chunk execution: ship each chunk as one sweep task and
    # scatter the rows into a shared-memory slab.
    slab: Optional[_FleetSlab] = None
    try:
        slab = _FleetSlab(n_chips, built.n_cores,
                          _n_records(n_epochs, record_every))
    except Exception:
        # No shared memory available (exotic sandboxes): fall back to
        # pickling chunk results through the pool pipe.
        slab = None
    handle = slab.handle if slab is not None else None
    if handle is not None:
        sweep_tasks = [replace(task, slab=handle)
                       for task in sweep_tasks]
    inner: List[SweepReport] = []
    cached_records: List[ChunkRecord] = []
    cached_results: Dict[int, FleetResult] = {}
    pending = sweep_tasks
    before = cache_counters() if on_report is not None else None
    completed = False
    try:
        if ckpt is not None:
            # Resume: restore complete chunks in the parent and
            # dispatch only the incomplete ones through run_sweep's
            # crash-safe machinery.
            from repro.system import checkpoint as checkpoint_mod
            pending = []
            for task in sweep_tasks:
                load_started = time.perf_counter()
                loaded = checkpoint_mod.load_chunk_result(
                    ckpt, task.chunk.index)
                if loaded is None:
                    pending.append(task)
                    continue
                cached_results[task.chunk.index] = loaded
                if handle is not None:
                    handle.scatter(loaded, task.chunk.start,
                                   task.chunk.stop)
                cached_records.append(ChunkRecord(
                    index=task.chunk.index, start=task.chunk.index,
                    stop=task.chunk.index + 1, executed_in="cached",
                    wall_time_s=(time.perf_counter()
                                 - load_started),
                    retries=0, n_failures=0))
        returned: Sequence = ()
        if pending:
            returned = run_sweep(
                _run_fleet_chunk, pending, max_workers=workers,
                chunk_size=1, min_tasks_for_pool=1,
                on_error="raise", retries=retries,
                on_report=inner.append if on_report is not None
                else None)
        record_counters("fleet.engine", chunks=n_chunks)
        if slab is not None:
            result = slab.gather(n_epochs)
        else:
            by_index = dict(cached_results)
            for task, value in zip(pending, returned):
                by_index[task.chunk.index] = value
            result = _merge_fleet_results(
                [by_index[index] for index in range(n_chunks)])
        completed = True
    finally:
        if slab is not None:
            slab.close()
        if on_report is not None:
            elapsed = time.perf_counter() - started
            if inner:
                # Re-emit the sweep's report under fleet mode names,
                # with the parent's chunk counter folded into the
                # aggregated worker cache deltas and run_sweep's
                # local chunk indices remapped to global ones.
                # Delivered even when a chunk exhausted its retries
                # (run_sweep reports before it raises), so telemetry
                # survives failure.
                report = inner[0]
                mode = {"pool": "fleet+pool",
                        "pool+serial-fallback":
                            "fleet+pool+serial-fallback",
                        "serial": "fleet"}.get(report.mode,
                                               report.mode)
                counters = {name: dict(values) for name, values
                            in report.cache_counters.items()}
                entry = counters.setdefault(
                    "fleet.engine", {"hits": 0, "misses": 0})
                entry["chunks"] = entry.get("chunks", 0) + n_chunks
                chunks = [replace(
                    record,
                    index=pending[record.index].chunk.index,
                    start=pending[record.index].chunk.index,
                    stop=pending[record.index].chunk.index + 1)
                    for record in report.chunks]
                chunks = tuple(sorted(
                    chunks + cached_records,
                    key=lambda record: record.index))
                on_report(replace(
                    report, mode=mode, n_tasks=n_chunks,
                    n_chunks=n_chunks, chunks=chunks,
                    wall_time_s=elapsed, cache_counters=counters))
            else:
                # run_sweep died before reporting (or never ran):
                # emit the failure-mode report -- or, when every
                # chunk was restored from checkpoint, the all-cached
                # success report.
                counters = _cache_delta(before, cache_counters())
                entry = counters.setdefault(
                    "fleet.engine", {"hits": 0, "misses": 0})
                if not completed:
                    entry["chunks"] = (entry.get("chunks", 0)
                                       + len(cached_records))
                on_report(SweepReport(
                    n_tasks=n_chunks, n_chunks=n_chunks,
                    max_workers=workers,
                    mode="fleet" if completed else "fleet+failed",
                    serial_reason=(
                        "every chunk restored from checkpoint"
                        if completed else None),
                    fallback_reasons=(),
                    wall_time_s=elapsed,
                    chunks=tuple(cached_records), retries=0,
                    failures=(), cache_counters=counters))
    return result
