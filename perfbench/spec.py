"""Every metric the benchmark reports: unit, direction, bound, mapping.

This module is the single source of the metric names.
``BENCHMARK.json`` lists the *headline* end-to-end metrics (the ones
every workload reports) and every per-layer metric; the benchmark's
tests check that the two agree.

End-to-end metrics come from untraced runs.  Each carries the bound
by which its median may worsen before a change counts as a
regression.  The four headline metrics are defined on every
workload; the others belong to the workloads named with them.

Per-layer metrics come from the traced run.  Each names the
end-to-end metric it should move, and on which workload.  Self
times and call counts are given per pass, where one pass is one
repetition of the workload's fixed unit of work (see
:mod:`perfbench.workloads`), so they do not depend on how many
passes fit into a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

STREAM = "fleet-stream"
STUDY = "fleet-study"
SWEEP = "design-sweep"
WORKLOADS = (STREAM, STUDY, SWEEP)

#: Bound ``compare.py`` applies to per-layer metrics, which have none
#: of their own: a layer that worsens by more than this shows as
#: "worse" even when no end-to-end metric moves.
LAYER_COMPARE_BOUND = 0.10


@dataclass(frozen=True)
class EndToEnd:
    """An end-to-end metric a user of the library sees."""

    name: str
    unit: str
    better: str
    bound: float
    workloads: Tuple[str, ...]
    doc: str


@dataclass(frozen=True)
class Layer:
    """A per-layer metric and the end-to-end metrics it should move.

    ``moves`` pairs an end-to-end metric name with the workload on
    which the layer should move it.
    """

    name: str
    unit: str
    better: str
    moves: Tuple[Tuple[str, str], ...]
    doc: str


_ALL = WORKLOADS

END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, _ALL,
             "median time a fresh interpreter takes to import the "
             "workloads' modules, plus the median of the workload's "
             "repeated builds (calibration, chips, session or "
             "simulator) before its first timed op"),
    EndToEnd("wall_s", "s", "lower", 0.25, _ALL,
             "timed wall per pass: all timed ops of the run over the "
             "number of passes"),
    EndToEnd("chip_epochs_per_s", "1/s", "higher", 0.25, _ALL,
             "simulated chip-epochs per second of the ops that "
             "advance chips (design-sweep: lifetime-sweep cells x "
             "epochs)"),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.15, _ALL,
             "peak resident set of the benchmark process plus the "
             "largest child it waited for"),
    EndToEnd("error_rate", "ratio", "lower", 0.0, _ALL,
             "failed ops and failed checks over ops and checks "
             "attempted"),
    EndToEnd("epoch_p50_ms", "ms", "lower", 0.25, (STREAM,),
             "median latency of one advance(1) + guardband query"),
    EndToEnd("epoch_p90_ms", "ms", "lower", 0.25, (STREAM,),
             "90th percentile of the same op"),
    EndToEnd("snapshot_save_s", "s", "lower", 0.25, (STREAM,),
             "median FleetSession.save of the advanced session"),
    EndToEnd("snapshot_load_s", "s", "lower", 0.25, (STREAM,),
             "median FleetSession.load of that snapshot"),
    EndToEnd("study_s", "s", "lower", 0.25, (STUDY,),
             "median checkpointed pooled study call"),
    EndToEnd("replay_s", "s", "lower", 0.25, (STUDY,),
             "median replay of the completed checkpoint directory"),
    EndToEnd("cells_per_s", "1/s", "higher", 0.25, (SWEEP,),
             "lifetime-sweep cells per second"),
    EndToEnd("grid_points_per_s", "1/s", "higher", 0.25, (SWEEP,),
             "Fig. 10 load-grid points per second"),
    EndToEnd("wires_per_s", "1/s", "higher", 0.25, (SWEEP,),
             "Korhonen TTF wires sampled per second"),
)

#: End-to-end metrics every workload reports; these are the ones in
#: ``BENCHMARK.json``, which asks every workload for the same keys,
#: each never zero.  ``error_rate`` stays out: a run's result line
#: carries it as ``attempted`` / ``failed``.
HEADLINE = ("setup_s", "wall_s", "chip_epochs_per_s", "peak_rss_mib")


def _self(name: str, moves, doc: str) -> Layer:
    return Layer(f"{name}.self_s", "s", "lower", tuple(moves), doc)


LAYERS: Tuple[Layer, ...] = (
    # repro.bti.fleet
    _self("bti.fleet.step",
          [("chip_epochs_per_s", STREAM), ("epoch_p50_ms", STREAM),
           ("study_s", STUDY)],
          "StackedTrapPopulations.step: sub-step advance"),
    Layer("bti.fleet.step.calls", "count", "lower",
          (("chip_epochs_per_s", STREAM), ("study_s", STUDY)),
          "StackedTrapPopulations.step calls"),
    _self("bti.fleet.kernel_build",
          [("epoch_p90_ms", STREAM), ("chip_epochs_per_s", STREAM)],
          "StackedTrapPopulations._build_step_kernel"),
    Layer("bti.fleet.kernel_build.calls", "count", "lower",
          (("epoch_p90_ms", STREAM), ("chip_epochs_per_s", STREAM)),
          "kernel builds (cache misses plus uncached groups)"),
    Layer("bti.fleet.kernels.hit_ratio", "ratio", "higher",
          (("epoch_p90_ms", STREAM), ("chip_epochs_per_s", STREAM)),
          "bti.fleet.kernels cache hits / lookups"),
    Layer("bti.fleet.kernels.lookups", "count", "higher",
          (("epoch_p90_ms", STREAM),),
          "base of the hit ratio: kernel cache lookups"),
    Layer("bti.fleet.kernels.dedup_ratio", "ratio", "higher",
          (("epoch_p90_ms", STREAM), ("chip_epochs_per_s", STREAM)),
          "rows removed by kernel row dedup / rows in"),
    Layer("bti.fleet.kernels.rows_in", "count", "lower",
          (("chip_epochs_per_s", STREAM),),
          "base of the dedup ratio: rows entering kernel builds"),
    # repro.system.fleet
    _self("system.fleet.epoch_loop",
          [("epoch_p50_ms", STREAM)],
          "_FleetRun.advance time not covered by child spans"),
    _self("system.fleet.chunk",
          [("study_s", STUDY)],
          "_execute_chunk: per-chunk build and result time"),
    _self("system.fleet.study",
          [("study_s", STUDY), ("replay_s", STUDY)],
          "run_fleet_lifetime_study outside the sweep runner: "
          "planning, slab set-up and gather"),
    _self("system.fleet.simulator_init",
          [("snapshot_load_s", STREAM), ("study_s", STUDY)],
          "FleetSimulator construction"),
    _self("system.fleet.conditions",
          [("epoch_p50_ms", STREAM)],
          "base_epoch_conditions as the fleet engine calls it"),
    Layer("system.fleet.conditions.hit_ratio", "ratio", "higher",
          (("epoch_p50_ms", STREAM),),
          "fleet.conditions cache hits / lookups"),
    Layer("system.fleet.conditions.lookups", "count", "higher",
          (("epoch_p50_ms", STREAM),),
          "base of the hit ratio: condition-bundle lookups"),
    # repro.system.checkpoint
    _self("system.checkpoint.write",
          [("study_s", STUDY), ("snapshot_save_s", STREAM)],
          "write_snapshot: hash and write one snapshot file"),
    Layer("system.checkpoint.write.bytes", "bytes", "lower",
          (("study_s", STUDY), ("snapshot_save_s", STREAM)),
          "bytes of snapshot files written"),
    Layer("system.checkpoint.write.calls", "count", "lower",
          (("study_s", STUDY), ("snapshot_save_s", STREAM)),
          "snapshot files written"),
    _self("system.checkpoint.capture",
          [("snapshot_save_s", STREAM), ("study_s", STUDY)],
          "_snapshot_run: copy the run state into a snapshot"),
    _self("system.checkpoint.read",
          [("snapshot_load_s", STREAM), ("replay_s", STUDY)],
          "read_snapshot: read and verify one snapshot file"),
    _self("system.checkpoint.restore",
          [("snapshot_load_s", STREAM), ("replay_s", STUDY)],
          "_restore_run: overwrite a fresh run from a snapshot"),
    _self("system.checkpoint.query",
          [("epoch_p50_ms", STREAM)],
          "FleetSession.guardband_quantile"),
    # repro.solvers.sweep (the SweepReport of each study call)
    _self("solvers.sweep.run",
          [("study_s", STUDY)],
          "run_sweep as the fleet engine calls it: pool start, "
          "dispatch and waiting not covered by in-process chunks"),
    Layer("solvers.sweep.chunk_wall_s", "s", "lower",
          (("study_s", STUDY),),
          "summed chunk wall times of the SweepReport"),
    Layer("solvers.sweep.pool_utilization", "ratio", "higher",
          (("study_s", STUDY),),
          "summed chunk wall / (workers x study wall)"),
    Layer("solvers.sweep.retries", "count", "lower",
          (("study_s", STUDY),), "task retries"),
    Layer("solvers.sweep.fallbacks", "count", "lower",
          (("study_s", STUDY),), "chunks re-run serially"),
    Layer("solvers.sweep.chunks_cached", "count", "higher",
          (("replay_s", STUDY),), "chunks restored from checkpoint"),
    # repro.system.simulator / aging / scheduler
    _self("system.simulator.run",
          [("cells_per_s", SWEEP)], "SystemSimulator.run epoch loop"),
    _self("system.simulator.conditions",
          [("cells_per_s", SWEEP)],
          "base_epoch_conditions as SystemSimulator calls it"),
    _self("system.aging.bti_step",
          [("cells_per_s", SWEEP)], "FleetBtiState.step"),
    _self("system.aging.em_step",
          [("chip_epochs_per_s", STREAM),
           ("chip_epochs_per_s", STUDY), ("cells_per_s", SWEEP)],
          "FleetEmState.step"),
    _self("system.scheduler.assign",
          [("cells_per_s", SWEEP)],
          "RoundRobinRecoveryPolicy / NoRecoveryPolicy .assign"),
    Layer("system.scheduler.assign.calls", "count", "lower",
          (("cells_per_s", SWEEP),), "policy assign calls"),
    _self("system.sweeps.lifetime_sweep",
          [("cells_per_s", SWEEP)],
          "run_lifetime_sweep routing, per-cell chip and simulator "
          "builds"),
    # repro.thermal.network / repro.sensors.ring_oscillator
    _self("thermal.steady",
          [("epoch_p50_ms", STREAM)],
          "ThermalRCNetwork.steady_state_cached"),
    Layer("thermal.steady.hit_ratio", "ratio", "higher",
          (("epoch_p50_ms", STREAM),),
          "thermal.steady cache hits / lookups"),
    Layer("thermal.steady.lookups", "count", "higher",
          (("epoch_p50_ms", STREAM),),
          "base of the hit ratio: steady-state lookups"),
    _self("sensors.ring_oscillator.record",
          [("epoch_p50_ms", STREAM)],
          "RingOscillator.delay_degradation_array (timeline record)"),
    # repro.em.korhonen / repro.em.statistics / repro.solvers
    _self("solvers.tridiagonal.solve_many",
          [("wires_per_s", SWEEP)], "TridiagonalOperator.solve_many"),
    _self("em.korhonen.batch_advance",
          [("wires_per_s", SWEEP)], "KorhonenBatch.advance"),
    _self("em.statistics.ttf_pde",
          [("wires_per_s", SWEEP)], "sample_nucleation_ttfs_pde"),
    Layer("em.korhonen.lu.batched.rows_per_solve", "rows", "higher",
          (("wires_per_s", SWEEP),),
          "batched_rows / batched_solves of em.korhonen.lu.batched"),
    Layer("em.korhonen.lu.batched.solves", "count", "lower",
          (("wires_per_s", SWEEP),),
          "base of rows_per_solve: stacked Korhonen solves"),
    # repro.circuit.batched / repro.assist.sweeps
    _self("circuit.batched.transient",
          [("grid_points_per_s", SWEEP)], "transient_batch"),
    _self("circuit.batched.dc",
          [("grid_points_per_s", SWEEP)], "dc_batch"),
    _self("assist.sweeps.load_grid",
          [("grid_points_per_s", SWEEP)], "sweep_load_size_pooled"),
    Layer("circuit.lu.batched.rows_per_solve", "rows", "higher",
          (("grid_points_per_s", SWEEP),),
          "batched_rows / batched_solves of circuit.lu.batched"),
    Layer("circuit.lu.batched.solves", "count", "lower",
          (("grid_points_per_s", SWEEP),),
          "base of rows_per_solve: stacked circuit solves"),
    # the trace itself
    Layer("trace.remainder_s", "s", "lower",
          (("wall_s", STREAM), ("wall_s", STUDY), ("wall_s", SWEEP)),
          "timed wall not covered by any layer span, per pass"),
    Layer("trace.coverage", "ratio", "higher",
          (("wall_s", STREAM), ("wall_s", STUDY), ("wall_s", SWEEP)),
          "share of the timed wall covered by layer spans"),
    Layer("trace.accounted", "ratio", "higher",
          (("wall_s", STREAM), ("wall_s", STUDY), ("wall_s", SWEEP)),
          "(layer self times + remainder) / timed wall; 1 when the "
          "spans nest correctly"),
)


def end_to_end(name: str) -> EndToEnd:
    """The end-to-end metric called ``name``."""
    return _E2E_BY_NAME[name]


def workload_metrics(workload: str) -> Tuple[EndToEnd, ...]:
    """The end-to-end metrics ``workload`` reports, headline first."""
    return tuple(metric for metric in END_TO_END
                 if workload in metric.workloads)


def bound_of(name: str) -> float:
    """The regression bound of any metric (layers: the compare one)."""
    if name in _E2E_BY_NAME:
        return _E2E_BY_NAME[name].bound
    return LAYER_COMPARE_BOUND


def better_of(name: str) -> str:
    """``"higher"`` or ``"lower"`` for any metric name."""
    metric = _E2E_BY_NAME.get(name) or _LAYER_BY_NAME[name]
    return metric.better


def benchmark_json(run_seconds: int, whys: Dict[str, str]) -> dict:
    """The ``BENCHMARK.json`` document these specs describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": whys[name]}
                      for name in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END if m.name in HEADLINE],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in LAYERS],
    }


_E2E_BY_NAME = {metric.name: metric for metric in END_TO_END}
_LAYER_BY_NAME = {metric.name: metric for metric in LAYERS}
