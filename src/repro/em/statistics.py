"""EM lifetime statistics: wire populations and weakest-link failure.

EM sign-off is statistical: a chip contains thousands of EM-exposed
segments whose geometry and temperature vary, and the chip fails when
its *weakest* wire fails.  The classical treatment models individual
wire TTFs as lognormal around Black's median and combines them with
weakest-link (series-system) statistics.

This module extends the paper's single-wire experiments to that
population view -- the form in which a deep-healing deployment decision
would actually be made: how much does a recovery schedule move the
chip-level t_0.1% point, not just one wire's median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

from repro.em.blacks import BlacksModel
from repro.em.korhonen import (
    KorhonenBatch,
    KorhonenConfig,
    KorhonenSolver,
    batch_bytes_per_wire,
)
from repro.em.line import EmStressCondition, PAPER_EM_STRESS
from repro.em.wire import Wire, PAPER_TEST_WIRE
from repro.errors import SimulationError
from repro.solvers import run_sweep


@dataclass(frozen=True)
class WirePopulationSpec:
    """Statistical description of a population of EM-exposed wires.

    Attributes:
        n_wires: number of independent EM-critical segments on a chip.
        median_ttf_s: lognormal median TTF of one wire at the
            operating point.
        sigma: lognormal shape parameter (log-space standard
            deviation); damascene Cu populations are typically 0.2-0.6.
    """

    n_wires: int
    median_ttf_s: float
    sigma: float

    def __post_init__(self) -> None:
        if self.n_wires < 1:
            raise SimulationError("n_wires must be at least 1")
        if self.median_ttf_s <= 0.0:
            raise SimulationError("median_ttf_s must be positive")
        if self.sigma <= 0.0:
            raise SimulationError("sigma must be positive")

    # -- single-wire distribution -----------------------------------------

    def wire_failure_probability(self, time_s: float) -> float:
        """CDF of one wire's lognormal TTF at ``time_s``."""
        if time_s < 0.0:
            raise SimulationError("time must be non-negative")
        ratio = time_s / self.median_ttf_s
        if ratio == 0.0:  # time zero, or so small the ratio underflows
            return 0.0
        z = math.log(ratio) / self.sigma
        return float(ndtr(z))

    def wire_quantile(self, fraction: float) -> float:
        """Time by which ``fraction`` of single wires have failed."""
        if not 0.0 < fraction < 1.0:
            raise SimulationError("fraction must be in (0, 1)")
        return self.median_ttf_s * math.exp(
            self.sigma * float(ndtri(fraction)))

    # -- chip-level (weakest link) -----------------------------------------

    def chip_failure_probability(self, time_s: float) -> float:
        """Probability that at least one of the wires has failed.

        Series system: ``1 - (1 - F_wire(t)) ** n``.
        """
        survival = 1.0 - self.wire_failure_probability(time_s)
        if survival <= 0.0:
            return 1.0
        # log-space for numerical robustness at large n.
        return 1.0 - math.exp(self.n_wires * math.log(survival))

    def chip_quantile(self, fraction: float,
                      tolerance: float = 1e-6) -> float:
        """Time by which ``fraction`` of chips have failed.

        Found with Brent's method on the monotone chip CDF in
        log-time (superlinear convergence; the former fixed-step
        bisection burned up to 200 CDF evaluations per call).
        ``tolerance`` is the relative accuracy of the returned time.
        """
        from scipy.optimize import brentq
        if not 0.0 < fraction < 1.0:
            raise SimulationError("fraction must be in (0, 1)")
        # The chip CDF at the single-wire q-quantile is roughly
        # n * q, so bracket well below fraction / n_wires.
        low_q = min(1e-12, max(fraction / self.n_wires * 1e-3, 1e-300))
        low = self.wire_quantile(low_q)
        high = self.wire_quantile(1.0 - 1e-12)

        def excess(log_time: float) -> float:
            return self.chip_failure_probability(
                math.exp(log_time)) - fraction

        log_low, log_high = math.log(low), math.log(high)
        if excess(log_low) >= 0.0:
            return low
        if excess(log_high) <= 0.0:
            return high
        return math.exp(brentq(excess, log_low, log_high,
                               xtol=math.log1p(tolerance)))

    def chip_median_ttf_s(self) -> float:
        """Median chip lifetime (t50 of the weakest-link system)."""
        return self.chip_quantile(0.5)

    def scaled(self, ttf_factor: float) -> "WirePopulationSpec":
        """The same population with every TTF scaled by a factor.

        A deep-healing schedule that multiplies every wire's TTF by
        ``ttf_factor`` (e.g. the Fig. 7 nucleation-delay factor)
        shifts the whole lognormal without changing its shape.
        """
        if ttf_factor <= 0.0:
            raise SimulationError("ttf_factor must be positive")
        return WirePopulationSpec(self.n_wires,
                                  self.median_ttf_s * ttf_factor,
                                  self.sigma)


def population_from_blacks(blacks: BlacksModel, n_wires: int,
                           current_density_a_m2: float,
                           temperature_k: float,
                           sigma: float = 0.4) -> WirePopulationSpec:
    """Build a population around a Black's-equation median."""
    return WirePopulationSpec(
        n_wires=n_wires,
        median_ttf_s=blacks.ttf_s(current_density_a_m2, temperature_k),
        sigma=sigma)


def sample_population_ttf_matrix(spec: WirePopulationSpec,
                                 n_chips: int = 100,
                                 seed: int = 0) -> np.ndarray:
    """Monte Carlo per-wire TTFs for a whole fleet, in one draw.

    Returns the full ``(n_chips, n_wires)`` lognormal sample matrix --
    the batched form the fleet engine consumes when it needs wire-level
    detail (e.g. attributing a chip failure to a wire group), drawn as
    a single vectorized pass.  Row ``k`` is chip ``k``'s wire
    population; ``matrix.min(axis=1)`` recovers the weakest-link chip
    TTFs of :func:`sample_population_ttfs` bit-for-bit (same RNG
    stream, and ``exp`` is monotone so the min commutes with it).
    """
    if n_chips < 1:
        raise SimulationError("n_chips must be at least 1")
    rng = np.random.default_rng(seed)
    samples = rng.normal(math.log(spec.median_ttf_s), spec.sigma,
                         size=(n_chips, spec.n_wires))
    return np.exp(samples)


def sample_population_ttfs(spec: WirePopulationSpec,
                           n_chips: int = 100,
                           seed: int = 0) -> np.ndarray:
    """Monte Carlo chip TTFs (min over each chip's wire samples).

    Cross-checks the closed-form weakest-link quantiles; also useful
    when per-wire medians vary (pass a spec per group and combine, or
    use :func:`sample_mixed_population_ttfs` directly).
    """
    return sample_population_ttf_matrix(spec, n_chips, seed).min(axis=1)


def sample_mixed_population_ttfs(specs: Sequence[WirePopulationSpec],
                                 n_chips: int = 100,
                                 seed: int = 0) -> np.ndarray:
    """Chip TTFs for chips carrying several distinct wire groups.

    Real chips mix wire populations -- long power rails, short signal
    stubs, vias -- each with its own median and sigma.  This draws all
    groups of all chips as *one* ``(n_chips, total_wires)`` matrix
    (per-wire means/sigmas broadcast into a single vectorized normal
    draw) and takes the weakest link across every group, which is the
    series-system combination of the specs' individual chip CDFs.
    """
    if not specs:
        raise SimulationError("at least one wire group is required")
    if n_chips < 1:
        raise SimulationError("n_chips must be at least 1")
    log_medians = np.concatenate(
        [np.full(spec.n_wires, math.log(spec.median_ttf_s))
         for spec in specs])
    sigmas = np.concatenate(
        [np.full(spec.n_wires, spec.sigma) for spec in specs])
    rng = np.random.default_rng(seed)
    samples = rng.normal(log_medians, sigmas,
                         size=(n_chips, len(log_medians)))
    return np.exp(samples.min(axis=1))


def _sample_chip_chunk(task: "Tuple[WirePopulationSpec, int]",
                       seed_sequence: np.random.SeedSequence
                       ) -> np.ndarray:
    """Sweep worker: Monte Carlo TTFs for one chunk of chips."""
    spec, n_chips = task
    rng = np.random.default_rng(seed_sequence)
    samples = rng.normal(math.log(spec.median_ttf_s), spec.sigma,
                         size=(n_chips, spec.n_wires))
    return np.exp(samples.min(axis=1))


#: Below this many total lognormal draws (``n_chips * n_wires``) the
#: population sampler runs serially: vectorized numpy sampling clears
#: ~100M draws/s in-process, so under ~8e6 draws the ~100 ms of
#: process-pool startup and result pickling can only lose
#: (BENCH_solvers.json measured a pooled 10k x 64 sweep at 0.37x
#: serial).  Chunk *count* is the wrong gate here -- a sign-off sweep
#: always has many chunks; what decides pool profitability is the
#: work inside them.
_MIN_POOL_SAMPLES = 8_000_000


def sample_population_ttfs_parallel(spec: WirePopulationSpec,
                                    n_chips: int = 10000,
                                    seed: int = 0,
                                    max_workers: Optional[int] = None,
                                    chunk_chips: int = 256,
                                    min_tasks_for_pool: Optional[int]
                                    = None,
                                    on_error: str = "raise",
                                    retries: int = 0,
                                    progress=None,
                                    on_report=None) -> np.ndarray:
    """Monte Carlo chip TTFs over a process-pool sweep.

    The population is split into fixed ``chunk_chips``-sized chunks,
    each seeded from ``(seed, chunk index)`` via
    :func:`repro.solvers.run_sweep` -- so the returned array is
    byte-identical for a fixed seed *regardless of worker count*
    (``chunk_chips`` itself is part of the stream definition, which is
    also why the serial fallback keeps the same chunking).  By default
    the pool is only started once the total sample count
    (``n_chips * n_wires``) is large enough to amortize process
    startup (:data:`_MIN_POOL_SAMPLES`); pass ``min_tasks_for_pool``
    to override that work-aware gate with an explicit chunk-count
    threshold.

    Fault tolerance (``on_error``, ``retries``) and telemetry
    (``progress``, ``on_report``) are forwarded to
    :func:`repro.solvers.run_sweep`.  Under ``"skip"`` /
    ``"collect"`` the chips of failed chunks are *dropped* from the
    returned population (the per-chunk failure records live on the
    delivered :class:`~repro.solvers.SweepReport`), so quantiles of a
    degraded run are computed over the surviving chips only.
    """
    if n_chips < 1:
        raise SimulationError("n_chips must be at least 1")
    if chunk_chips < 1:
        raise SimulationError("chunk_chips must be at least 1")
    tasks = [(spec, min(chunk_chips, n_chips - start))
             for start in range(0, n_chips, chunk_chips)]
    if min_tasks_for_pool is None \
            and n_chips * spec.n_wires < _MIN_POOL_SAMPLES:
        # Serial and pooled runs are byte-identical, so the gate is
        # purely a performance decision.
        min_tasks_for_pool = len(tasks) + 1
    chunks = run_sweep(_sample_chip_chunk, tasks,
                       max_workers=max_workers, seed=seed,
                       min_tasks_for_pool=min_tasks_for_pool,
                       on_error=on_error, retries=retries,
                       progress=progress, on_report=on_report)
    arrays = [chunk for chunk in chunks
              if isinstance(chunk, np.ndarray)]
    if not arrays:
        return np.empty(0)
    return np.concatenate(arrays)


def healing_gain_at_quantile(baseline: WirePopulationSpec,
                             healed: WirePopulationSpec,
                             fraction: float = 0.001) -> float:
    """Lifetime gain at a sign-off quantile (default t_0.1%)."""
    return healed.chip_quantile(fraction) \
        / baseline.chip_quantile(fraction)


def sample_nucleation_ttfs_pde(
        n_wires: int,
        max_time_s: float,
        probe_step_s: float,
        *,
        wire: Wire = PAPER_TEST_WIRE,
        condition: EmStressCondition = PAPER_EM_STRESS,
        j_sigma: float = 0.1,
        seed: int = 0,
        config: Optional[KorhonenConfig] = None,
        engine: str = "batched",
        max_chunk_wires: Optional[int] = None,
        chunk_budget_bytes: Optional[int] = None) -> np.ndarray:
    """Per-wire void-nucleation times from the stress PDE itself.

    Where :class:`WirePopulationSpec` *assumes* a lognormal TTF
    distribution around Black's median, this sampler derives the
    spread mechanistically: each wire draws a lognormal current
    density ``j = j_nom * exp(j_sigma * z)`` (process variation in
    effective cross-section), its Korhonen stress field is integrated
    forward, and the nucleation time is the first probe instant at
    which the cathode stress reaches the material's critical stress.

    All wires share geometry and temperature, so they share one
    backward-Euler factorization; ``engine="batched"`` advances the
    whole population through a single multi-RHS back-substitution per
    step (:class:`~repro.em.korhonen.KorhonenBatch`), while
    ``engine="serial"`` loops a scalar
    :class:`~repro.em.korhonen.KorhonenSolver` over wires.  The two
    engines return bit-identical samples.

    Args:
        n_wires: population size.
        max_time_s: horizon; wires that have not nucleated by then
            report ``inf``.
        probe_step_s: interval between nucleation checks (the
            returned times are quantized to this grid, exactly as
            :meth:`repro.em.line.EmLine.time_to_nucleation` quantizes
            to its probe step).
        wire: shared geometry/material.
        condition: nominal stress condition (current, temperature).
        j_sigma: log-space sigma of the per-wire current densities.
        seed: RNG seed for the population draw.
        config: PDE discretization (default :class:`KorhonenConfig`).
        engine: ``"batched"`` (default) or ``"serial"``.
        max_chunk_wires: cap on wires resident in one
            :class:`KorhonenBatch` at a time.  The population draw
            still covers every wire up front (the RNG stream is
            unchanged), then contiguous wire slices run as separate
            batches.  Columns are independent, so chunked samples are
            bit-identical to the unchunked batch.  Batched engine only.
        chunk_budget_bytes: alternative cap expressed as a byte budget
            for the resident stress state; converted via
            :func:`repro.em.korhonen.batch_bytes_per_wire`.  When both
            caps are given the smaller chunk wins.

    Returns:
        ``(n_wires,)`` array of nucleation times in seconds.
    """
    if n_wires < 1:
        raise SimulationError("n_wires must be at least 1")
    if max_time_s <= 0.0:
        raise SimulationError("max_time_s must be positive")
    if probe_step_s <= 0.0 or probe_step_s > max_time_s:
        raise SimulationError(
            "probe_step_s must be positive and at most max_time_s")
    if j_sigma < 0.0:
        raise SimulationError("j_sigma must be non-negative")
    if engine not in ("batched", "serial"):
        raise ValueError("engine must be 'batched' or 'serial'")
    chunk = n_wires
    if max_chunk_wires is not None:
        if max_chunk_wires < 1:
            raise SimulationError("max_chunk_wires must be at least 1")
        chunk = min(chunk, int(max_chunk_wires))
    if chunk_budget_bytes is not None:
        per_wire = batch_bytes_per_wire(config)
        if chunk_budget_bytes < per_wire:
            raise SimulationError(
                f"chunk_budget_bytes={chunk_budget_bytes} is below the "
                f"{per_wire}-byte resident cost of a single wire")
        chunk = min(chunk, chunk_budget_bytes // per_wire)
    if chunk < n_wires and engine == "serial":
        raise SimulationError(
            "wire chunking applies to the batched engine only")

    rng = np.random.default_rng(seed)
    densities = condition.current_density_a_m2 \
        * np.exp(j_sigma * rng.standard_normal(n_wires))
    material = wire.material
    temp = condition.temperature_k
    kappa = material.stress_diffusivity_at(temp)
    gradients = np.array([material.wind_stress_gradient(j, temp)
                          for j in densities])
    critical = material.critical_stress_pa
    n_probes = int(math.ceil(max_time_s / probe_step_s - 1e-12))
    ttfs = np.full(n_wires, np.inf)

    if engine == "batched":
        def _run_slice(start: int, stop: int) -> None:
            # Columns never interact, so a wire slice in its own batch
            # retraces the exact trajectory it would in the full one.
            batch = KorhonenBatch(wire.length_m, stop - start, config)
            alive = np.arange(start, stop)
            alive_gradients = gradients[start:stop]
            for probe in range(1, n_probes + 1):
                batch.advance(probe_step_s, kappa, alive_gradients)
                crossed = batch.stress_at_start >= critical
                if np.any(crossed):
                    ttfs[alive[crossed]] = probe * probe_step_s
                    keep = ~crossed
                    if not np.any(keep):
                        return
                    # Compacting nucleated wires out keeps the batch
                    # doing exactly the work the serial loop's
                    # per-wire early exit would.
                    batch.retain(np.nonzero(keep)[0])
                    alive = alive[keep]
                    alive_gradients = alive_gradients[keep]

        for start in range(0, n_wires, chunk):
            _run_slice(start, min(start + chunk, n_wires))
        return ttfs

    solver = KorhonenSolver(wire.length_m, config)
    for index in range(n_wires):
        solver.reset()
        gradient = float(gradients[index])
        for probe in range(1, n_probes + 1):
            solver.advance(probe_step_s, kappa, gradient)
            if solver.stress[0] >= critical:
                ttfs[index] = probe * probe_step_s
                break
    return ttfs
