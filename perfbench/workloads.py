"""The benchmark's three workloads.

Each workload is a closed loop: one client in one process issues each
op after the previous one returns, with no think time.  Its unit of
work is a *pass*, a fixed sequence of timed ops; a run repeats passes
until its time is up.  Every pass starts from a fresh build (timed as
set-up, never as an op), so every pass does the same work and a
faster program simply fits more passes into a run.

* ``fleet-stream``: a long-lived :class:`FleetSession` over a varied
  fleet, advanced and queried one epoch per op, then saved, loaded
  and continued.  Variation defeats kernel row dedup, so
  ``repro.bti.fleet`` dominates.
* ``fleet-study``: a checkpointed, pooled
  :func:`run_fleet_lifetime_study` over an identical fleet, then a
  replay of its completed directory.  BTI runs its cached one-group
  path; the chunk executor, pool and checkpoint writes carry the time.
* ``design-sweep``: the per-design engines in one process: a mixed
  design lifetime sweep, the Fig. 10 load grid and Korhonen TTF
  sampling.  It touches no fleet, checkpoint or pool layer.

The seed feeds the fleet variation draw, the lifetime-sweep and
Korhonen seeds; the program receives only the generated inputs.
Correctness checks run between ops, outside the timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.assist import sweeps as assist_sweeps
from repro.bti.calibration import default_calibration
from repro.em import statistics as em_statistics
from repro.em.korhonen import KorhonenConfig
from repro.em.line import PAPER_EM_STRESS
from repro.solvers import task_seed_sequence
from repro.system import checkpoint as checkpoint_mod
from repro.system import fleet as fleet_mod
from repro.system import sweeps as system_sweeps
from repro.system.chip import Chip
from repro.system.scheduler import NoRecoveryPolicy, RoundRobinRecoveryPolicy
from repro.system.workload import (
    ConstantWorkload,
    DiurnalWorkload,
    RandomWorkload,
)

from perfbench import spec

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: runs the same code paths in about a second, for the tests.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        spec.STREAM: dict(n_chips=2048, epochs=128, tail=8,
                          record_every=4),
        spec.STUDY: dict(n_chips=16384, n_epochs=16, record_every=4,
                         budget=64 * 2 ** 20, every=4),
        spec.SWEEP: dict(designs=((2, 2), (3, 3), (4, 4), (2, 8)),
                         n_epochs=480, grid=64, wires=2048,
                         ref_designs=((2, 2), (2, 3)), ref_epochs=48,
                         ref_grid=8, ref_wires=32),
    },
    "tiny": {
        spec.STREAM: dict(n_chips=64, epochs=8, tail=2,
                          record_every=4),
        spec.STUDY: dict(n_chips=512, n_epochs=4, record_every=2,
                         budget=4 * 2 ** 20, every=2),
        spec.SWEEP: dict(designs=((2, 2), (2, 3)), n_epochs=24,
                         grid=4, wires=16, ref_designs=((2, 2),),
                         ref_epochs=12, ref_grid=3, ref_wires=8),
    },
}

WHY = {
    spec.STREAM: "varied 2048-chip FleetSession advanced and queried "
                 "per epoch, then saved and loaded: kernel dedup and "
                 "caches miss, so BTI sub-steps and kernel builds "
                 "dominate",
    spec.STUDY: "identical 16384-chip checkpointed study on a "
                "2-worker pool, then a replay: caches hit, so chunk "
                "execution, pool transport and snapshot writes carry "
                "the time",
    spec.SWEEP: "mixed-design lifetime sweep, Fig. 10 load grid and "
                "Korhonen TTF sampling: the per-design engines, with "
                "no fleet, pool or checkpoint layer",
}

_REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())

#: Workers of the fleet-study pool; the benchmark asks for two.
REQUESTED_WORKERS = 2


def pool_workers() -> int:
    """Workers the fleet study uses: ``min(2, available CPUs)``."""
    return min(REQUESTED_WORKERS, len(os.sched_getaffinity(0)))


class Checks:
    """Counts correctness checks and keeps the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail(self, what: str) -> None:
        self.check(False, what)


class Clock:
    """Times every op; with a tracer, each op is also a root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = defaultdict(list)

    @contextmanager
    def op(self, name: str):
        with (self.tracer.op(name) if self.tracer is not None
              else nullcontext()):
            started = time.perf_counter()
            try:
                yield
            finally:
                self.samples[name].append(time.perf_counter() - started)

    @property
    def n_ops(self) -> int:
        return sum(len(values) for values in self.samples.values())


@dataclass
class PassResult:
    """What one pass did: its output digest, work and timed wall."""

    digest: str
    chip_epochs: int
    advance_s: float
    wall_s: float
    reports: list = field(default_factory=list)


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def _fresh_calibration() -> None:
    """Refit the BTI calibration, as a fresh process would on first use."""
    default_calibration.cache_clear()
    default_calibration()


def _pass_wall(clock: Clock, marks: Dict[str, int]) -> float:
    """Timed wall of the ops recorded since ``marks`` was taken."""
    return sum(sum(values[marks.get(name, 0):])
               for name, values in clock.samples.items())


def _marks(clock: Clock) -> Dict[str, int]:
    return {name: len(values) for name, values in clock.samples.items()}


class Workload:
    """One workload: ``build`` a pass's inputs, ``run_pass`` them."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.params = SIZES[size][self.name]
        self.workdir = Path(workdir)
        self.passes = 0

    def build(self):
        raise NotImplementedError

    def run_pass(self, state, clock: Clock,
                 checks: Checks) -> PassResult:
        raise NotImplementedError

    def reference_checks(self, checks: Checks) -> None:
        """Small same-seed instances checked against reference routes."""

    def metrics(self, clock: Clock, passes: List[PassResult]) -> dict:
        """Workload-specific end-to-end values: ``{name: (v, n)}``."""
        return {}


class FleetStream(Workload):
    """Advance-and-query ops on a varied FleetSession, then save/load."""

    name = spec.STREAM

    def _groups(self):
        per = self.params["n_chips"] // 4
        policies = (RoundRobinRecoveryPolicy(recovery_slots=3),
                    NoRecoveryPolicy())
        return tuple(
            fleet_mod.FleetGroup(
                n_chips=per, workload=DiurnalWorkload(n_cores=9),
                policy=policy, phases=(phase,) * per)
            for policy in policies for phase in (0, 12))

    def build(self):
        _fresh_calibration()
        return checkpoint_mod.FleetSession(
            Chip(3, 3), groups=self._groups(),
            variation=fleet_mod.FleetVariationSpec(
                capture_sigma=0.06, recovery_sigma=0.08,
                em_current_sigma=0.05),
            seed=self.seed, record_every=self.params["record_every"])

    def run_pass(self, session, clock, checks):
        p = self.params
        marks = _marks(clock)
        quantiles = []
        previous_permanent = None
        for epoch in range(p["epochs"]):
            with clock.op("epoch"):
                session.advance(1)
                quantiles.append(session.guardband_quantile(0.99))
            result = session.result()
            checks.check(bool(np.all(session.delta_vth_v() >= 0.0)),
                         f"negative delta Vth at epoch {epoch + 1}")
            permanent = result.final_permanent_vth_v
            checks.check(previous_permanent is None or bool(
                np.all(permanent >= previous_permanent)),
                f"permanent Vth decreased at epoch {epoch + 1}")
            checks.check(bool(np.all(np.isfinite(
                result.final_em_drift_ohm))),
                f"non-finite EM drift at epoch {epoch + 1}")
            previous_permanent = permanent
        path = self.workdir / f"stream-{self.passes}.npz"
        with clock.op("save"):
            session.save(path)
        with clock.op("load"):
            loaded = checkpoint_mod.FleetSession.load(path)
        with clock.op("continue"):
            session.advance(p["tail"])
            loaded.advance(p["tail"])
        os.remove(path)
        final = session.delta_vth_v()
        checks.check(np.array_equal(final, loaded.delta_vth_v()),
                     "save -> load -> advance is not bitwise equal to "
                     "the session that continued")
        self.passes += 1
        advance_s = (sum(clock.samples["epoch"][-p["epochs"]:])
                     + clock.samples["continue"][-1])
        return PassResult(
            digest=_digest(np.array(quantiles), final),
            chip_epochs=p["n_chips"] * (p["epochs"] + 2 * p["tail"]),
            advance_s=advance_s, wall_s=_pass_wall(clock, marks))

    def metrics(self, clock, passes):
        epochs = np.array(clock.samples["epoch"]) * 1e3
        return {
            "epoch_p50_ms": (float(np.percentile(epochs, 50)),
                             epochs.size),
            "epoch_p90_ms": (float(np.percentile(epochs, 90)),
                             epochs.size),
            "snapshot_save_s": (float(np.median(clock.samples["save"])),
                                len(clock.samples["save"])),
            "snapshot_load_s": (float(np.median(clock.samples["load"])),
                                len(clock.samples["load"])),
        }


class FleetStudy(Workload):
    """A checkpointed pooled study into a fresh directory, then a replay."""

    name = spec.STUDY

    def build(self):
        _fresh_calibration()
        return Chip(3, 3)

    def run_pass(self, chip, clock, checks):
        p = self.params
        marks = _marks(clock)
        directory = self.workdir / f"study-{self.passes}"
        workers = pool_workers()
        reports: list = []
        with clock.op("study"):
            result = fleet_mod.run_fleet_lifetime_study(
                chip, p["n_chips"],
                ConstantWorkload(n_cores=9, utilization=0.6),
                RoundRobinRecoveryPolicy(recovery_slots=3),
                n_epochs=p["n_epochs"], record_every=p["record_every"],
                state_budget_bytes=p["budget"], max_workers=workers,
                checkpoint_every=p["every"], checkpoint_dir=directory,
                seed=self.seed, on_report=reports.append)
        with clock.op("replay"):
            replay = checkpoint_mod.resume_fleet_lifetime_study(
                directory, max_workers=workers,
                on_report=reports.append)
        shutil.rmtree(directory)
        for name in ("final_delta_vth_v", "final_permanent_vth_v",
                     "worst_degradation", "final_em_drift_ohm",
                     "em_failures"):
            checks.check(np.array_equal(getattr(result, name),
                                        getattr(replay, name)),
                         f"replay {name} differs from the fresh run")
        p99 = result.guardband_quantile(0.99)
        reference = _REFERENCE.get(self.size, {}).get(self.name)
        if reference is not None:
            # The fleet is identical (no variation draw), so the
            # seed does not enter the result and one reference holds
            # for every seed.
            checks.check(
                abs(p99 - reference["guardband_p99"])
                <= 1e-12 * abs(reference["guardband_p99"]),
                f"guardband p99 {p99!r} != reference "
                f"{reference['guardband_p99']!r}")
        self.passes += 1
        return PassResult(
            digest=_digest(result.final_delta_vth_v,
                           result.worst_degradation, np.array([p99])),
            chip_epochs=p["n_chips"] * p["n_epochs"],
            advance_s=clock.samples["study"][-1],
            wall_s=_pass_wall(clock, marks), reports=reports)

    def metrics(self, clock, passes):
        return {
            "study_s": (float(np.median(clock.samples["study"])),
                        len(clock.samples["study"])),
            "replay_s": (float(np.median(clock.samples["replay"])),
                         len(clock.samples["replay"])),
        }


def _sweep_grid(n_cores: int = 4):
    policies = {"none": NoRecoveryPolicy(),
                "rr1": RoundRobinRecoveryPolicy(recovery_slots=1),
                "rr2": RoundRobinRecoveryPolicy(recovery_slots=2)}
    workloads = {"diurnal": DiurnalWorkload(n_cores=n_cores),
                 "random": RandomWorkload(n_cores=n_cores)}
    return policies, workloads


_TTF_CONDITION = dataclasses.replace(
    PAPER_EM_STRESS,
    current_density_a_m2=PAPER_EM_STRESS.current_density_a_m2 * 0.05)
_TTF_CONFIG = KorhonenConfig(n_nodes=301, max_dt_s=1e4)


def _ttfs(n_wires: int, seed: int, engine: str) -> np.ndarray:
    return em_statistics.sample_nucleation_ttfs_pde(
        n_wires, 6e6, 1e5, condition=_TTF_CONDITION, j_sigma=0.05,
        seed=seed, config=_TTF_CONFIG, engine=engine)


class DesignSweep(Workload):
    """Lifetime sweep, Fig. 10 grid and Korhonen TTFs, one round per pass."""

    name = spec.SWEEP

    def build(self):
        _fresh_calibration()
        return _sweep_grid()

    def run_pass(self, grid, clock, checks):
        p = self.params
        marks = _marks(clock)
        policies, workloads = grid
        with clock.op("lifetime_sweep"):
            table = system_sweeps.run_lifetime_sweep(
                policies, workloads, list(p["designs"]),
                n_epochs=p["n_epochs"], seed=self.seed, max_workers=1)
        with clock.op("load_grid"):
            points = assist_sweeps.sweep_load_size_pooled(
                range(1, p["grid"] + 1), engine="batched")
        with clock.op("ttf"):
            ttfs = _ttfs(p["wires"], self.seed, "batched")
        n_cells = len(policies) * len(workloads) * len(p["designs"])
        checks.check(len(table) == n_cells,
                     f"lifetime sweep returned {len(table)} cells")
        checks.check(bool(np.all(table.column("guardband") > 0.0)),
                     "non-positive guardband in the lifetime sweep")
        checks.check(len(points) == p["grid"],
                     f"load grid returned {len(points)} points")
        checks.check(bool(np.all(ttfs > 0.0)), "non-positive TTF")
        point_values = np.array([dataclasses.astuple(point)
                                 for point in points], dtype=float)
        self.passes += 1
        return PassResult(
            digest=_digest(
                *(table.column(name) for name in
                  ("guardband", "final_delta_vth_v",
                   "final_permanent_vth_v", "em_failures")),
                point_values, ttfs),
            chip_epochs=n_cells * p["n_epochs"],
            advance_s=clock.samples["lifetime_sweep"][-1],
            wall_s=_pass_wall(clock, marks))

    def reference_checks(self, checks):
        """Each call on a small instance against its reference route.

        The lifetime sweep's per-cell ``SystemSimulator`` cells are
        checked against the fleet engine run on one chip, with the
        random workload re-seeded from the sweep's per-cell stream;
        the batched Fig. 10 grid against the pooled one; the batched
        Korhonen sampler against the serial one, bitwise.
        """
        p = self.params
        policies, workloads = _sweep_grid()
        designs = list(p["ref_designs"])
        table = system_sweeps.run_lifetime_sweep(
            policies, workloads, designs, n_epochs=p["ref_epochs"],
            seed=self.seed, max_workers=1)
        index = 0
        for policy in policies.values():
            for workload in workloads.values():
                for rows, cols in designs:
                    if dataclasses.is_dataclass(workload) and hasattr(
                            workload, "seed"):
                        stream = task_seed_sequence(self.seed, index)
                        workload = dataclasses.replace(
                            workload,
                            seed=int(stream.generate_state(1)[0]))
                    fleet = fleet_mod.FleetSimulator(
                        Chip(rows, cols), 1).run(
                            p["ref_epochs"], workload, policy)
                    cell = table.cells[index]
                    expected = (fleet.guardbands[0],
                                fleet.final_delta_vth_v.max(),
                                fleet.final_permanent_vth_v.max())
                    got = (cell.guardband, cell.final_delta_vth_v,
                           cell.final_permanent_vth_v)
                    checks.check(
                        np.allclose(got, expected, rtol=1e-10, atol=0.0)
                        and cell.em_failures
                        == int(fleet.em_failures.sum())
                        and cell.migration_events
                        == int(fleet.migration_events[0]),
                        f"lifetime cell {index} differs from the fleet "
                        "engine")
                    index += 1
        values = range(1, p["ref_grid"] + 1)
        batched = assist_sweeps.sweep_load_size_pooled(
            values, engine="batched")
        pooled = assist_sweeps.sweep_load_size_pooled(
            values, engine="pooled", max_workers=1)
        checks.check(np.allclose(
            [dataclasses.astuple(point) for point in batched],
            [dataclasses.astuple(point) for point in pooled],
            rtol=1e-10, atol=0.0),
            "batched load grid differs from the pooled grid")
        checks.check(np.array_equal(
            _ttfs(p["ref_wires"], self.seed, "batched"),
            _ttfs(p["ref_wires"], self.seed, "serial")),
            "batched Korhonen TTFs differ from the serial engine")

    def metrics(self, clock, passes):
        p = self.params
        policies, workloads = _sweep_grid()
        n_cells = len(policies) * len(workloads) * len(p["designs"])
        return {
            "cells_per_s": (n_cells * len(clock.samples["lifetime_sweep"])
                            / sum(clock.samples["lifetime_sweep"]),
                            len(clock.samples["lifetime_sweep"])),
            "grid_points_per_s": (
                p["grid"] * len(clock.samples["load_grid"])
                / sum(clock.samples["load_grid"]),
                len(clock.samples["load_grid"])),
            "wires_per_s": (p["wires"] * len(clock.samples["ttf"])
                            / sum(clock.samples["ttf"]),
                            len(clock.samples["ttf"])),
        }


WORKLOADS = {cls.name: cls for cls in (FleetStream, FleetStudy,
                                       DesignSweep)}
