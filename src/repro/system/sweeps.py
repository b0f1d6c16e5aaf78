"""Policy x workload x chip lifetime sweeps.

The Fig. 12(b) experiments compare a handful of scheduling policies on
one chip; design-space work multiplies that by workload mixes and chip
configurations.  :func:`run_lifetime_sweep` simulates the full
Cartesian grid with deterministic per-cell seeding and returns a
structured :class:`SweepResult` table (guardband, permanent Vth, EM
failures, migration overhead per cell).

Such a grid is the heterogeneous-population shape the
structure-of-arrays fleet engine batches.  ``engine="auto"`` (the
default) runs one fleet per distinct chip design, advanced in stacked
tensor sweeps: one :class:`~repro.system.fleet.FleetGroup` per
(policy, workload) pair with one chip per cell, or one single-chip
group per cell when the cell's workload is reseeded.  Results are
identical to the per-cell path because the cohort policy observable
degenerates to the cell's own aging state when the cohort's chips
are identical.

The per-cell path (``engine="pooled"``, and grids that set pool
fault-tolerance knobs) fans the cells out through
:func:`repro.solvers.sweep.run_sweep`, one fresh
:class:`~repro.system.simulator.SystemSimulator` per cell.  Cells are
independent by construction: the worker deep-copies stateful
policies/workloads (or builds them fresh from factories) and builds
the chip inside the worker, so no mutable state crosses cell
boundaries and serial and pooled runs are identical.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import units
from repro.errors import SimulationError
from repro.solvers.sweep import (
    ChunkRecord,
    SweepReport,
    _merge_cache_deltas,
    run_sweep,
    task_seed_sequence,
)
from repro.system.chip import Chip, CoreSpec
from repro.system.simulator import SystemSimulator
from repro.thermal.network import ThermalNetworkConfig


@dataclass(frozen=True)
class ChipConfig:
    """A buildable chip description (picklable, unlike a live Chip).

    Attributes:
        rows / cols: core-grid dimensions.
        core: core specification (default :class:`CoreSpec`).
        thermal: thermal network parameters (defaults apply).
        name: label used in the result table; defaults to
            ``"{rows}x{cols}"``.
    """

    rows: int
    cols: int
    core: Optional[CoreSpec] = None
    thermal: Optional[ThermalNetworkConfig] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise SimulationError("chip needs at least one core")

    @property
    def label(self) -> str:
        """Table label of this configuration."""
        return self.name or f"{self.rows}x{self.cols}"

    def build(self) -> Chip:
        """A fresh :class:`Chip` (thermal state included)."""
        return Chip(self.rows, self.cols, core=self.core,
                    thermal=self.thermal)


@dataclass(frozen=True)
class _SweepCell:
    """One task of the sweep grid (everything the worker needs)."""

    policy_label: str
    workload_label: str
    chip_label: str
    policy: Any
    workload: Any
    chip: ChipConfig
    n_epochs: int
    epoch_s: float
    record_every: int


@dataclass(frozen=True)
class SweepCellResult:
    """Summary observables of one (policy, workload, chip) cell.

    Attributes:
        policy / workload / chip: the grid labels of this cell.
        guardband: peak worst-core delay degradation over the horizon.
        final_delta_vth_v: worst-core total Vth shift at the end.
        final_permanent_vth_v: worst-core permanent Vth at the end.
        em_failures: hard-failed local grids at the end.
        migration_events: transitions into BTI recovery over the run.
        migration_overhead: those transitions as a fraction of the
            simulated core-epochs (at the default per-migration cost).
        lost_demand_fraction: unplaced fraction of demanded compute.
    """

    policy: str
    workload: str
    chip: str
    guardband: float
    final_delta_vth_v: float
    final_permanent_vth_v: float
    em_failures: int
    migration_events: int
    migration_overhead: float
    lost_demand_fraction: float


@dataclass(frozen=True)
class SweepResult:
    """The full sweep grid with tabular accessors."""

    cells: Tuple[SweepCellResult, ...]
    n_epochs: int
    epoch_s: float

    _SCHEMA = ("policy", "workload", "chip", "guardband",
               "final_delta_vth_v", "final_permanent_vth_v",
               "em_failures", "migration_events",
               "migration_overhead", "lost_demand_fraction")

    def __len__(self) -> int:
        return len(self.cells)

    def column(self, name: str) -> np.ndarray:
        """One result field across all cells, in grid order."""
        if name not in self._SCHEMA:
            raise SimulationError(
                f"unknown column {name!r}; one of {self._SCHEMA}")
        return np.array([getattr(cell, name) for cell in self.cells])

    def cell(self, policy: str, workload: str,
             chip: str) -> SweepCellResult:
        """The cell with the given grid labels."""
        for candidate in self.cells:
            if (candidate.policy, candidate.workload,
                    candidate.chip) == (policy, workload, chip):
                return candidate
        raise KeyError(f"no cell ({policy!r}, {workload!r}, {chip!r})")

    def best_policy(self, metric: str = "guardband") -> str:
        """Policy label with the lowest worst-case ``metric``."""
        values: Dict[str, float] = {}
        for cell in self.cells:
            current = values.get(cell.policy, -np.inf)
            values[cell.policy] = max(current, getattr(cell, metric))
        return min(values, key=lambda label: values[label])

    def table(self) -> str:
        """A fixed-width text table of every cell."""
        header = ("policy", "workload", "chip", "guardband",
                  "perm dVth", "EM fails", "migr ovh", "lost")
        rows = [(cell.policy, cell.workload, cell.chip,
                 f"{cell.guardband:.2%}",
                 f"{cell.final_permanent_vth_v * 1e3:.2f} mV",
                 str(cell.em_failures),
                 f"{cell.migration_overhead:.4%}",
                 f"{cell.lost_demand_fraction:.2%}")
                for cell in self.cells]
        widths = [max(len(header[i]), *(len(row[i]) for row in rows))
                  for i in range(len(header))]
        def fmt(row: Sequence[str]) -> str:
            return "  ".join(cell.ljust(width)
                             for cell, width in zip(row, widths))
        lines = [fmt(header), fmt(["-" * width for width in widths])]
        lines.extend(fmt(row) for row in rows)
        return "\n".join(lines)


def _labelled(items: Union[Mapping[str, Any], Sequence[Any]],
              kind: str) -> List[Tuple[str, Any]]:
    """Normalize a mapping or sequence into unique (label, item) pairs."""
    if isinstance(items, Mapping):
        pairs = list(items.items())
    else:
        pairs = []
        for index, item in enumerate(items):
            name = getattr(item, "name", "") or type(item).__name__
            pairs.append((f"{name}#{index}" if len(items) > 1
                          else str(name), item))
    if not pairs:
        raise SimulationError(f"at least one {kind} is required")
    labels = [label for label, _ in pairs]
    if len(set(labels)) != len(labels):
        raise SimulationError(f"{kind} labels must be unique")
    return pairs


def _as_chip_config(chip: Union[ChipConfig, Tuple[int, int]]
                    ) -> ChipConfig:
    if isinstance(chip, ChipConfig):
        return chip
    rows, cols = chip
    return ChipConfig(rows=int(rows), cols=int(cols))


def _cell_summary(policy_label: str, workload_label: str,
                  chip_label: str, result) -> SweepCellResult:
    """Condense one cell's SystemResult into the sweep table row."""
    return SweepCellResult(
        policy=policy_label,
        workload=workload_label,
        chip=chip_label,
        guardband=result.guardband,
        final_delta_vth_v=float(result.final_delta_vth_v.max()),
        final_permanent_vth_v=float(result.final_permanent_vth_v.max()),
        em_failures=int(result.em_failures.sum()),
        migration_events=result.migration_events,
        migration_overhead=result.migration_overhead(),
        lost_demand_fraction=result.lost_demand_fraction)


def _design_key(config: ChipConfig) -> tuple:
    """What makes two chip configurations one design (labels aside)."""
    return (config.rows, config.cols, config.core, config.thermal)


def _has_seed_field(workload) -> bool:
    """Whether a seeded sweep reseeds ``workload`` in every cell."""
    return dataclasses.is_dataclass(workload) and hasattr(workload,
                                                          "seed")


def _run_cell(cell: _SweepCell,
              seed_sequence: Optional[np.random.SeedSequence] = None
              ) -> SweepCellResult:
    """Simulate one grid cell (runs inside a pool worker)."""
    chip = cell.chip.build()
    policy = cell.policy
    if not hasattr(policy, "assign"):
        # A factory: build the policy against this cell's chip (the
        # dark-silicon policy needs the floorplan for neighbour heat).
        policy = policy(chip)
    else:
        policy = copy.deepcopy(policy)
    workload = copy.deepcopy(cell.workload)
    if seed_sequence is not None and _has_seed_field(workload):
        workload = dataclasses.replace(
            workload, seed=int(seed_sequence.generate_state(1)[0]))
    simulator = SystemSimulator(chip, epoch_s=cell.epoch_s)
    result = simulator.run(cell.n_epochs, workload, policy,
                           record_every=cell.record_every)
    return _cell_summary(cell.policy_label, cell.workload_label,
                         cell.chip_label, result)


def _fleet_incompatibility(chip_configs: Sequence[ChipConfig],
                           wants_checkpoint: bool,
                           min_tasks_for_pool: Optional[int],
                           on_error: str, retries: int,
                           progress) -> Optional[str]:
    """Why this grid cannot run on the fleet engine (None if it can).

    Two things force the pooled path: any pool fault-tolerance or
    scheduling knob (the fleet runs no per-cell pool to configure),
    and checkpointing a grid of several chip designs (each design is
    its own fleet, and a checkpoint directory holds one study).
    Mixed designs and per-cell workload reseeding run on the fleet:
    one fleet per design, and one single-chip group per reseeded
    cell.  ``on_report`` is *not* a pool knob (the fleet path
    synthesizes its own report), and neither is ``max_workers``: the
    fleet engine has its own parallel chunk executor, so worker
    counts forward to it.
    """
    knobs = [name for name, off in (
        ("min_tasks_for_pool", min_tasks_for_pool is None),
        ("on_error", on_error == "raise"),
        ("retries", retries == 0),
        ("progress", progress is None)) if not off]
    if knobs:
        return "pool knobs set: " + ", ".join(knobs)
    if wants_checkpoint and len(
            {_design_key(config) for config in chip_configs}) > 1:
        return ("checkpointing a grid that mixes distinct chip "
                "designs (one fleet per design)")
    return None


#: Fleet report modes, least to most eventful; a grid of several
#: designs reports the most eventful mode of its fleets.
_FLEET_MODES = ("fleet", "fleet+pool", "fleet+pool+serial-fallback",
                "fleet+failed")


def _merge_reports(reports: Sequence[SweepReport],
                   n_cells: int) -> SweepReport:
    """One grid report from the per-design fleet reports.

    Counters and retries sum, chunk records are renumbered
    back-to-back in design order, and ``n_tasks`` is the grid's
    cell count.
    """
    counters: Dict[str, Dict[str, int]] = {}
    chunks: List[ChunkRecord] = []
    for report in reports:
        _merge_cache_deltas(counters, report.cache_counters)
        offset = len(chunks)
        chunks.extend(dataclasses.replace(
            record, index=record.index + offset,
            start=record.start + offset, stop=record.stop + offset)
            for record in report.chunks)
    reasons = sorted({report.serial_reason for report in reports
                      if report.serial_reason})
    return SweepReport(
        n_tasks=n_cells, n_chunks=len(chunks),
        max_workers=max(report.max_workers for report in reports),
        mode=max((report.mode for report in reports),
                 key=_FLEET_MODES.index),
        serial_reason="; ".join(reasons) or None,
        fallback_reasons=tuple(reason for report in reports
                               for reason in report.fallback_reasons),
        wall_time_s=sum(report.wall_time_s for report in reports),
        chunks=tuple(chunks),
        retries=sum(report.retries for report in reports),
        failures=tuple(failure for report in reports
                       for failure in report.failures),
        cache_counters=counters)


def _run_fleet_grid(cells: Sequence[_SweepCell],
                    seed: Optional[int], max_workers: Optional[int],
                    on_report, checkpoint_every: Optional[int] = None,
                    checkpoint_dir=None
                    ) -> Tuple[SweepCellResult, ...]:
    """Evaluate the grid as one stacked fleet advance per chip design.

    Each distinct design runs one fleet over its cells, in cell
    order.  Cells of one (policy, workload) pair with a workload the
    sweep does not reseed share one
    :class:`~repro.system.fleet.FleetGroup`, one fleet chip per cell:
    the chips of such a group are identical (no variation), so the
    cohort's policy observable equals every member cell's own and
    the per-cell results match the pooled path bit for bit.  A
    reseeded workload gets one single-chip group per cell, carrying
    the workload reseeded from ``task_seed_sequence(seed,
    cell_index)`` -- the stream the pooled path hands that cell.

    ``max_workers`` forwards to the fleet engine's parallel chunk
    executor: with more than one worker each design's stacked rows
    split into one whole-lifetime chunk per worker (results are
    invariant in the chunk size, so this is purely a scheduling
    decision, and the engine's work-aware serial gate still keeps
    small grids in one in-process advance).
    """
    from repro.system.fleet import FleetGroup, run_fleet_lifetime_study
    designs: Dict[tuple, List[int]] = {}
    for index, cell in enumerate(cells):
        designs.setdefault(_design_key(cell.chip), []).append(index)
    results: List[Optional[SweepCellResult]] = [None] * len(cells)
    captured: List[SweepReport] = []
    try:
        for members in designs.values():
            groups: List[FleetGroup] = []
            shared = None  # (policy, workload) labels of groups[-1]
            for index in members:
                cell = cells[index]
                labels = (cell.policy_label, cell.workload_label)
                workload = cell.workload
                if seed is not None and _has_seed_field(workload):
                    stream = task_seed_sequence(seed, index)
                    workload = dataclasses.replace(
                        workload,
                        seed=int(stream.generate_state(1)[0]))
                    shared = None
                elif labels == shared:
                    groups[-1] = dataclasses.replace(
                        groups[-1], n_chips=groups[-1].n_chips + 1)
                    continue
                else:
                    shared = labels
                groups.append(FleetGroup(
                    n_chips=1, workload=workload, policy=cell.policy,
                    name="/".join(labels)))
            max_chunk_chips = None
            if max_workers is not None and max_workers > 1:
                max_chunk_chips = max(1, -(-len(members) // max_workers))
            first = cells[members[0]]
            fleet = run_fleet_lifetime_study(
                first.chip, groups=groups, n_epochs=first.n_epochs,
                epoch_s=first.epoch_s, record_every=first.record_every,
                max_chunk_chips=max_chunk_chips,
                max_workers=max_workers,
                on_report=captured.append if on_report is not None
                else None,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=checkpoint_dir)
            for chip_index, index in enumerate(members):
                cell = cells[index]
                results[index] = _cell_summary(
                    cell.policy_label, cell.workload_label,
                    cell.chip_label, fleet.chip_result(chip_index))
    finally:
        if captured:
            # The fleet reports count chunks as their tasks; grid
            # callers read n_tasks as the cell count, so restate it.
            on_report(_merge_reports(captured, len(cells)))
    return tuple(results)


#: Below this many simulated core-epochs (summed over every cell of
#: the grid) the sweep runs serially by default: the vectorized
#: simulator clears a 9-core epoch in ~1 ms, so a sub-threshold grid
#: finishes in well under the ~hundreds of ms of pool startup plus
#: per-cell pickling (BENCH_system.json measured the 32-cell, 48k
#: core-epoch grid at only 1.13x pooled -- barely past break-even).
#: Cell *count* is the wrong gate: what decides pool profitability is
#: the work inside the cells.
_MIN_POOL_CORE_EPOCHS = 32_000


def run_lifetime_sweep(
        policies: Union[Mapping[str, Any], Sequence[Any]],
        workloads: Union[Mapping[str, Any], Sequence[Any]],
        chips: Sequence[Union[ChipConfig, Tuple[int, int]]],
        *,
        n_epochs: int,
        epoch_s: float = units.hours(1.0),
        record_every: int = 1,
        seed: Optional[int] = 0,
        engine: str = "auto",
        max_workers: Optional[int] = None,
        min_tasks_for_pool: Optional[int] = None,
        on_error: str = "raise",
        retries: int = 0,
        progress=None,
        on_report=None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None) -> SweepResult:
    """Simulate every policy x workload x chip cell of a design grid.

    Args:
        policies: scheduling policies, as a ``{label: policy}`` mapping
            or a plain sequence (labelled by class name).  An entry
            without an ``assign`` method is treated as a *factory*
            called with the cell's freshly built :class:`Chip` --
            use that for chip-bound policies like
            :class:`~repro.system.dark_silicon
            .DarkSiliconRotationPolicy` on heterogeneous chip grids.
            Stateful policies are deep-copied per cell.
        workloads: demand generators, mapping or sequence as above;
            deep-copied per cell.  When ``seed`` is given, workloads
            with a ``seed`` field (e.g.
            :class:`~repro.system.workload.RandomWorkload`) are
            re-seeded per cell from the sweep's deterministic
            per-task stream.
        chips: chip configurations (:class:`ChipConfig` or bare
            ``(rows, cols)`` tuples).
        n_epochs: horizon of every cell, in epochs.
        epoch_s: epoch length in seconds.
        record_every: timeline decimation inside each cell (guardband
            is computed from the recorded timeline, so keep 1 unless
            the horizon is very long).
        seed: root seed of the per-cell workload reseeding; ``None``
            runs every cell with the workloads' own seeds.
        engine: ``"auto"`` (default) runs the grid on the
            structure-of-arrays fleet engine -- one fleet per
            distinct chip design, with one single-chip group per
            cell whose workload is reseeded -- unless a per-cell
            pool knob is set or a mixed-design grid asks for
            checkpointing, which fall back to the pooled path;
            ``"fleet"`` forces the fleet engine (raising
            :class:`~repro.errors.SimulationError` with the blocking
            reason when the grid is incompatible); ``"pooled"``
            forces the per-cell path, one independent
            :class:`SystemSimulator` per cell.  Results are
            identical either way; the fleet path delivers one
            :class:`~repro.solvers.SweepReport` per grid on
            ``on_report`` (``mode="fleet"``, or ``"fleet+pool"``
            when chunks pooled; ``n_tasks`` is the cell count), with
            the fleet engines' chip/cohort/kernel-dedup counters
            summed over designs in ``cache_counters``.
        max_workers: process count.  On the pooled path it is
            forwarded to :func:`repro.solvers.sweep.run_sweep`; on
            the fleet path it forwards to the fleet engine's
            parallel chunk executor (the stacked rows split into one
            whole-lifetime chunk per worker -- results stay
            bitwise identical, and small grids remain one serial
            in-process advance behind the engine's work gate).
        min_tasks_for_pool: forwarded to
            :func:`repro.solvers.sweep.run_sweep` (setting it forces
            the pooled path); results are identical whichever path
            runs.  When left at ``None``, a work-aware gate keeps
            sub-threshold grids serial: the pool only starts once
            the total simulated core-epochs reach
            :data:`_MIN_POOL_CORE_EPOCHS` (pass an explicit value to
            override).
        on_error / retries / progress / on_report: fault-tolerance
            and telemetry knobs forwarded to
            :func:`repro.solvers.sweep.run_sweep`.  Under ``"skip"``
            / ``"collect"`` failed grid cells are omitted from the
            returned table (their
            :class:`~repro.solvers.TaskFailure` records arrive on the
            ``on_report`` :class:`~repro.solvers.SweepReport`), so a
            multi-day design sweep survives one pathological cell.
        checkpoint_every / checkpoint_dir: crash-durable execution,
            fleet route only: forwarded to
            :func:`~repro.system.fleet.run_fleet_lifetime_study`, so
            every chunk of the stacked grid persists its result (and
            in-flight progress every ``checkpoint_every`` epochs)
            under ``checkpoint_dir``, and re-invoking the identical
            sweep resumes instead of recomputing -- see
            :mod:`repro.system.checkpoint`.  Requesting
            checkpointing on a grid the fleet engine cannot run (or
            with ``engine="pooled"``) raises
            :class:`~repro.errors.SimulationError` naming the
            blocking reason: the per-cell pooled path has no durable
            chunk state.

    Returns:
        A :class:`SweepResult` with one cell per grid point, ordered
        policy-major, then workload, then chip.
    """
    if n_epochs < 1:
        raise SimulationError("n_epochs must be at least 1")
    if epoch_s <= 0.0:
        raise SimulationError("epoch_s must be positive")
    if record_every < 1:
        raise SimulationError("record_every must be at least 1")
    policy_pairs = _labelled(policies, "policy")
    workload_pairs = _labelled(workloads, "workload")
    chip_configs = [_as_chip_config(chip) for chip in chips]
    if not chip_configs:
        raise SimulationError("at least one chip is required")
    chip_labels = [config.label for config in chip_configs]
    if len(set(chip_labels)) != len(chip_labels):
        raise SimulationError("chip labels must be unique")
    cells = [
        _SweepCell(
            policy_label=policy_label,
            workload_label=workload_label,
            chip_label=config.label,
            policy=policy,
            workload=workload,
            chip=config,
            n_epochs=n_epochs,
            epoch_s=epoch_s,
            record_every=record_every)
        for policy_label, policy in policy_pairs
        for workload_label, workload in workload_pairs
        for config in chip_configs]
    if engine not in ("auto", "fleet", "pooled"):
        raise SimulationError(
            f"engine must be 'auto', 'fleet' or 'pooled', "
            f"got {engine!r}")
    wants_checkpoint = (checkpoint_dir is not None
                        or checkpoint_every is not None)
    if wants_checkpoint and engine == "pooled":
        raise SimulationError(
            "checkpointing requires the fleet engine; the per-cell "
            "pooled path has no durable chunk state "
            "(drop engine='pooled')")
    if engine != "pooled":
        reason = _fleet_incompatibility(
            chip_configs, wants_checkpoint, min_tasks_for_pool,
            on_error, retries, progress)
        if reason is None:
            survivors = _run_fleet_grid(
                cells, seed, max_workers, on_report,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=checkpoint_dir)
            return SweepResult(cells=survivors, n_epochs=n_epochs,
                               epoch_s=epoch_s)
        if engine == "fleet":
            raise SimulationError(
                f"engine='fleet' cannot run this grid: {reason}")
        if wants_checkpoint:
            raise SimulationError(
                "checkpointing requires the fleet engine, but this "
                f"grid cannot run on it: {reason}")
    if min_tasks_for_pool is None:
        total_core_epochs = n_epochs * len(policy_pairs) \
            * len(workload_pairs) \
            * sum(config.rows * config.cols for config in chip_configs)
        if total_core_epochs < _MIN_POOL_CORE_EPOCHS:
            # Serial and pooled runs are identical, so the gate is
            # purely a performance decision (see _MIN_POOL_CORE_EPOCHS).
            min_tasks_for_pool = len(cells) + 1
    results = run_sweep(_run_cell, cells, max_workers=max_workers,
                        seed=seed,
                        min_tasks_for_pool=min_tasks_for_pool,
                        on_error=on_error, retries=retries,
                        progress=progress, on_report=on_report)
    survivors = tuple(result for result in results
                      if isinstance(result, SweepCellResult))
    return SweepResult(cells=survivors, n_epochs=n_epochs,
                       epoch_s=epoch_s)
