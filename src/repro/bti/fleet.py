"""Stacked trap-population dynamics for whole chip populations.

:class:`repro.system.aging.FleetBtiState` batches the Table-I trap
dynamics over the cores of *one* chip.  A fleet study needs the same
dynamics for every core of every chip of a population, so this module
stacks the chip dimension as well: a
:class:`StackedTrapPopulations` holds ``n_chips * n_units`` rows of
trap state in one structure-of-arrays block and advances them with the
same sub-step kernels.

One epoch is one kernel build and one sweep.  The build derives each
row's sub-step count and length from its chip and evaluates the
sub-step factors once per *distinct* row (see
:meth:`StackedTrapPopulations._build_step_kernel`); the sweep then
walks the stack in cache-sized row blocks, gathers each block's
factors from the deduplicated tables and runs its sub-steps in place.

Exactness contract: every per-row update below is elementwise in the
row (unit) dimension -- fills, drains, age bookkeeping and lock-in all
read and write only their own row -- so stacking chips does not change
any chip's trajectory.  The only cross-row coupling in the scalar
engine is the *sub-step count*, which
:meth:`repro.system.aging.FleetBtiState.step` derives from the chip's
peak capture acceleration.  The stacked step derives that count per
chip and gives each row exactly its chip's number of sub-steps: a
block runs its smallest count in place, and the rows whose chips need
more continue in a compacted copy that is written back.  Every row
therefore sees the op sequence of its standalone
:class:`~repro.system.aging.FleetBtiState`, bit for bit (the fleet
equivalence tests assert exactly this).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.bti.traps import TrapPopulationConfig
from repro.errors import SimulationError
from repro.solvers import record_counters

#: Row-block height of the sub-step sweep.  One block touches about
#: ten ``(block, n_bins)`` arrays (state, gathered kernel rows,
#: scratch), so 256 rows x 64 bins keeps the working set around
#: 1 MiB -- small enough to survive in a per-core L2 across every
#: sub-step of the block, which is what turns the ~15 elementwise
#: passes per sub-step from DRAM streams into cache hits.
_SUBSTEP_BLOCK_ROWS = 256


class StackedTrapPopulations:
    """Trap-population state for ``n_chips`` chips of ``n_units`` cores.

    The state lives in flat ``(n_chips * n_units, n_bins)`` arrays
    (chip-major) and is advanced in place, block by block; the only
    other arrays it keeps are block-sized scratch.

    Args:
        n_chips: population size.
        n_units: cores per chip.
        config: trap-population parameters (defaults to the 64-bin
            system configuration).
        dtype: dtype of the trap-state arrays, ``np.float64``
            (default, bit-exact vs the single-chip engine) or
            ``np.float32`` (halves state memory; kernels are still
            built in float64 and rounded once, sub-step counts are
            still derived in float64, so the float32 trajectory
            tracks the float64 one within the documented budget --
            see ``repro.system.fleet.FLOAT32_MAX_RELATIVE_ERROR``).
    """

    def __init__(self, n_chips: int, n_units: int,
                 config: Optional[TrapPopulationConfig] = None,
                 dtype=np.float64):
        if n_chips < 1:
            raise SimulationError("n_chips must be at least 1")
        if n_units < 1:
            raise SimulationError("n_units must be at least 1")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise SimulationError(
                "dtype must be float64 or float32")
        self.n_chips = n_chips
        self.n_units = n_units
        self.dtype = dtype
        self.config = config or TrapPopulationConfig(n_bins=64)
        cfg = self.config
        rows = n_chips * n_units
        self.tau_c = np.logspace(math.log10(cfg.tau_min_s),
                                 math.log10(cfg.tau_max_s), cfg.n_bins)
        fresh_weight = cfg.vth_full_shift_v / cfg.n_bins
        shape = (rows, cfg.n_bins)
        self.weights = np.full(shape, fresh_weight, dtype=dtype)
        self.occupancy = np.zeros(shape, dtype=dtype)
        self.age_s = np.zeros(shape, dtype=dtype)
        self.permanent_v = np.zeros(rows, dtype=dtype)
        self.time_s = 0.0
        block = (min(rows, _SUBSTEP_BLOCK_ROWS), cfg.n_bins)
        self._decay = np.empty(block, dtype=dtype)
        self._inflow = np.empty(block, dtype=dtype)
        self._buf_a = np.empty(block, dtype=dtype)
        self._buf_b = np.empty(block, dtype=dtype)
        self._buf_c = np.empty(block, dtype=dtype)
        self._mask = np.empty(block, dtype=bool)
        self._mask_b = np.empty(block, dtype=bool)

    # -- observables ----------------------------------------------------

    def delta_vth_v(self) -> np.ndarray:
        """Total threshold shift, shaped ``(n_chips, n_units)``."""
        return self.recoverable_vth_v() + self.permanent_vth_v()

    def recoverable_vth_v(self) -> np.ndarray:
        """Recoverable shift, shaped ``(n_chips, n_units)``."""
        flat = np.einsum("ij,ij->i", self.occupancy, self.weights)
        return flat.reshape(self.n_chips, self.n_units)

    def permanent_vth_v(self) -> np.ndarray:
        """Permanent shift, shaped ``(n_chips, n_units)`` (a view)."""
        return self.permanent_v.reshape(self.n_chips, self.n_units)

    # -- advance --------------------------------------------------------

    def step(self, dt_s: float, stressing: np.ndarray,
             capture_acceleration: np.ndarray,
             recovery_acceleration: np.ndarray) -> None:
        """Advance every chip by ``dt_s``.

        Args:
            dt_s: epoch length.
            stressing: boolean ``(n_chips, n_units)`` stress mask.
            capture_acceleration: ``(n_chips, n_units)`` capture-rate
                multipliers for the stressing units.
            recovery_acceleration: ``(n_chips, n_units)`` de-trapping
                multipliers for the recovering units.
        """
        if dt_s < 0.0:
            raise SimulationError("dt_s must be non-negative")
        shape = (self.n_chips, self.n_units)
        stressing = np.asarray(stressing, dtype=bool)
        capture = np.asarray(capture_acceleration, dtype=float)
        recovery = np.asarray(recovery_acceleration, dtype=float)
        for array in (stressing, capture, recovery):
            if array.shape != shape:
                raise SimulationError(
                    f"per-unit arrays must have shape {shape}")
        counts, inverse, eq, stress, decay, inflow, fraction = \
            self._build_step_kernel(dt_s, stressing, capture, recovery)
        # Every op below is elementwise per row, so block order and
        # the compaction of the rows that need extra sub-steps change
        # nothing: each row sees the exact op sequence of the
        # single-chip engine, bit for bit.
        rows = counts.size
        for start in range(0, rows, _SUBSTEP_BLOCK_ROWS):
            stop = min(start + _SUBSTEP_BLOCK_ROWS, rows)
            m = stop - start
            index = inverse[start:stop]
            block_counts = counts[start:stop]
            kernel = (
                eq[index], stress[index],
                np.take(decay, index, axis=0, out=self._decay[:m],
                        mode="clip"),
                np.take(inflow, index, axis=0, out=self._inflow[:m],
                        mode="clip"),
                None if fraction is None else fraction[index])
            state = (self.occupancy[start:stop], self.age_s[start:stop],
                     self.weights[start:stop],
                     self.permanent_v[start:stop])
            done = int(block_counts.min())
            self._advance_block(*state, *kernel, done)
            last = int(block_counts.max())
            while done < last:
                more = np.flatnonzero(block_counts > done)
                level = int(block_counts[more].min())
                compact = tuple(array[more] for array in state)
                self._advance_block(
                    *compact,
                    *(None if array is None else array[more]
                      for array in kernel),
                    level - done)
                for array, rows_more in zip(state, compact):
                    array[more] = rows_more
                done = level
        self.time_s += dt_s

    def _advance_block(self, occupancy, age, weights, permanent,
                       eq_col, stress_col, decay, inflow, fraction,
                       n_steps: int) -> None:
        """``n_steps`` sub-steps of one cache-sized row block, in place.

        Same in-place masked passes as
        :meth:`repro.system.aging.FleetBtiState.step` -- every op is
        elementwise in the row dimension, so each chip's trajectory
        matches its standalone single-chip advance bit for bit.  The
        per-row-constant factors (``eq_col``, ``stress_col``,
        ``fraction``) stay ``(m, 1)`` columns and broadcast inside the
        ufuncs: same values per element, a fraction of the memory
        traffic.
        """
        cfg = self.config
        m = occupancy.shape[0]
        buf_a = self._buf_a[:m]
        buf_b = self._buf_b[:m]
        buf_c = self._buf_c[:m]
        mask = self._mask[:m]
        lock = fraction is not None and bool(stress_col.any())
        for _ in range(n_steps):
            np.multiply(occupancy, decay, out=occupancy)
            np.add(occupancy, inflow, out=occupancy)
            np.greater_equal(occupancy, cfg.age_on_occupancy, out=mask)
            np.add(age, eq_col, out=age, where=mask)
            np.less_equal(occupancy, cfg.age_off_occupancy, out=mask)
            np.copyto(age, 0.0, where=mask)
            if lock:
                np.greater(age, cfg.lock_age_s, out=mask)
                np.logical_and(mask, stress_col, out=mask)
                if mask.any():
                    aged = mask
                    np.multiply(weights, occupancy, out=buf_a)
                    np.multiply(buf_a, fraction, out=buf_b)
                    permanent += np.einsum("ij,ij->i", buf_b, aged)
                    np.multiply(occupancy, fraction, out=buf_c)
                    np.subtract(1.0, buf_c, out=buf_c)
                    np.multiply(weights, buf_c, out=weights,
                                where=aged)
                    positive = self._mask_b[:m]
                    np.greater(weights, 0.0, out=positive)
                    np.logical_and(positive, aged, out=positive)
                    np.subtract(buf_a, buf_b, out=buf_a)
                    np.maximum(weights, 1e-300, out=buf_c)
                    np.divide(buf_a, buf_c, out=occupancy,
                              where=positive)

    def _build_step_kernel(self, dt_s: float, stressing: np.ndarray,
                           capture: np.ndarray, recovery: np.ndarray):
        """Per-row sub-step counts and the deduplicated step factors.

        Each chip's sub-step count follows
        :meth:`repro.system.aging.FleetBtiState.step`'s scalar
        derivation (same operation order, so the same floats and the
        same ceil), and its sub-step is ``dt_s / count`` in float64,
        which is the scalar engine's ``dt_s / int(count)``.

        A row's factors are a function of its stress flag and one
        scalar: ``capture * step`` on a stressing row, ``(-step) *
        recovery`` on a resting one.  Rows are deduplicated on the
        flag and the scalar's raw int64 bits -- never through float
        comparisons, so even ``-0.0`` vs ``0.0`` rows keep their own
        factors -- and the factor expressions of
        :meth:`repro.system.aging.FleetBtiState._build_step_kernel`
        run on the unique rows only.  Gathering a unique row back
        reproduces each row's value bit for bit.

        Returns ``(counts, inverse, eq, stress, decay, inflow,
        fraction)``: the per-row sub-step counts, the per-row index
        into the unique tables, ``(unique, 1)`` columns of the
        equivalent stress time, stress flag and lock-in fraction
        (``None`` without lock-in), and the ``(unique, n_bins)``
        affine sub-step factors.
        """
        cfg = self.config
        # Per-chip sub-step count, matching FleetBtiState.step's
        # scalar derivation chip by chip.
        any_stress = stressing.any(axis=1)
        if any_stress.any():
            peak = np.max(capture, axis=1, initial=-np.inf,
                          where=stressing)
            peak = np.where(any_stress, peak, 1.0)
        else:
            peak = np.ones(self.n_chips)
        raw = np.ceil(dt_s * np.maximum(peak, 1e-12)
                      / max(cfg.lock_age_s / 8.0, 1e-9))
        chip_counts = np.clip(raw.astype(np.int64), 1, 64)
        counts = np.repeat(chip_counts, self.n_units)
        step = np.repeat(dt_s / chip_counts, self.n_units)
        flat_stress = stressing.reshape(-1)
        scalar = np.multiply(capture.reshape(-1), step)
        np.multiply(-step, recovery.reshape(-1), out=scalar,
                    where=~flat_stress)
        bits = scalar.view(np.int64)
        order = np.argsort(bits)
        # Resting rows first; each half stays sorted on its bits.
        order = order[np.argsort(flat_stress[order], kind="stable")]
        keys, flags = bits[order], flat_stress[order]
        head = np.empty(order.size, dtype=bool)
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        head[1:] |= flags[1:] != flags[:-1]
        first = order[head]
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(head) - 1
        record_counters("bti.fleet.kernels",
                        kernel_builds=1,
                        dedup_rows_in=order.size,
                        dedup_rows_unique=first.size)
        u_stress = flags[head]
        u_scalar = scalar[first]
        n_rest = first.size - np.count_nonzero(u_stress)
        equivalent = np.where(u_stress, u_scalar, 0.0)
        # The scalar engine's factors: fill = -expm1(-eq / tau_c),
        # drain = exp(-step * recovery / tau_e) on resting rows and
        # 1 on stressing ones, decay = (1 - fill) * drain and
        # inflow = fill * drain.  A resting row has eq = 0, so its
        # fill is one shared row; a stressing row's products with a
        # drain of exactly 1 are the factors themselves.
        decay = np.empty((first.size, cfg.n_bins))
        inflow = np.empty_like(decay)
        rest_fill = -np.expm1(-0.0 / self.tau_c)
        drain = decay[:n_rest]
        np.divide(u_scalar[:n_rest, None],
                  cfg.emission_scale * self.tau_c, out=drain)
        np.exp(drain, out=drain)
        np.multiply(rest_fill, drain, out=inflow[:n_rest])
        np.multiply(1.0 - rest_fill, drain, out=drain)
        fill = inflow[n_rest:]
        np.divide(-equivalent[n_rest:, None], self.tau_c, out=fill)
        np.expm1(fill, out=fill)
        np.negative(fill, out=fill)
        np.subtract(1.0, fill, out=decay[n_rest:])
        eq = equivalent[:, None]
        fraction = None
        if cfg.lock_rate_per_s > 0.0:
            fraction = -np.expm1(
                -cfg.lock_rate_per_s * equivalent)[:, None]
        if self.dtype != np.float64:
            # Kernels are derived in float64 above and rounded once
            # here, so reduced-precision state never compounds errors
            # through the transcendental factor math itself.
            eq = eq.astype(self.dtype)
            decay = decay.astype(self.dtype)
            inflow = inflow.astype(self.dtype)
            if fraction is not None:
                fraction = fraction.astype(self.dtype)
        return (counts, inverse, eq, u_stress[:, None], decay, inflow,
                fraction)
