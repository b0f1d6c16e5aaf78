"""Prefactored linear operators with fingerprint-keyed reuse.

Every hot solver in this reproduction -- the PDN nodal system, the
thermal RC network, the Korhonen stress PDE and the circuit MNA loops
-- repeatedly solves ``A x = b`` with the *same* matrix and a changing
right-hand side.  Factoring ``A`` once (LU / sparse LU / tridiagonal
LU) and back-substituting per step turns an O(n^3)-per-step loop into
O(n^2) (dense), or an O(n)-assembly-plus-factor loop into a single
O(n) back-substitution (banded).

Three operator flavours cover the call sites:

* :class:`DenseLuOperator` -- LAPACK ``getrf``/``getrs``, numerically
  identical to ``np.linalg.solve`` (which is ``gesv`` = the same two
  calls).
* :class:`SparseLuOperator` -- SuperLU via
  ``scipy.sparse.linalg.splu`` for large sparse systems (PDN grids).
* :class:`TridiagonalOperator` -- LAPACK ``gttrf``/``gttrs`` for the
  Korhonen backward-Euler system.

All operators accept a single RHS vector ``(n,)`` or a batch of RHS
columns ``(n, k)`` so fleet-style callers advance every unit in one
back-substitution.

:class:`FactorizationCache` is a small LRU keyed by an explicit
*fingerprint* of everything the matrix depends on (grid topology,
``dt``, ``kappa``, boundary kinds, or the raw matrix bytes).  A key
change -- new topology, new time step, new diffusivity -- simply
misses and refactors, which is the whole invalidation story: no
stale-factor bugs are possible because the key *is* the matrix
content.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs


def fingerprint(*parts: Any) -> Tuple[Hashable, ...]:
    """A hashable fingerprint of matrix-defining data.

    Arrays are digested by shape + SHA-1 of their bytes; scalars,
    strings, enums and nested tuples pass through.  Use the result as
    a :class:`FactorizationCache` key.
    """
    digested = []
    for part in parts:
        if isinstance(part, np.ndarray):
            contiguous = np.ascontiguousarray(part)
            digest = hashlib.sha1(contiguous.view(np.uint8)).hexdigest()
            digested.append((contiguous.shape, str(contiguous.dtype),
                             digest))
        elif isinstance(part, (tuple, list)):
            digested.append(fingerprint(*part))
        else:
            digested.append(part)
    return tuple(digested)


class FactorizedOperator:
    """A factorized matrix ``A``; :meth:`solve` back-substitutes.

    Subclasses store only the factors, never the original matrix, so
    callers are free to mutate or discard their assembly buffers.
    """

    #: Unknown count (matrix is n x n).
    n: int

    def solve(self, rhs: np.ndarray,
              overwrite_rhs: bool = False) -> np.ndarray:
        """Solve ``A x = rhs``.

        Args:
            rhs: one RHS vector ``(n,)`` or a batch ``(n, k)``.
            overwrite_rhs: allow the solve to reuse ``rhs`` as the
                output buffer (the hot-loop path; the returned array
                may then *be* ``rhs``).
        """
        raise NotImplementedError


class DenseLuOperator(FactorizedOperator):
    """Dense LU via direct LAPACK ``getrf`` with cached pivots.

    Goes straight to ``getrf``/``getrs`` -- the same two routines
    ``scipy.linalg.lu_factor``/``lu_solve`` wrap (and that
    ``np.linalg.solve`` = ``gesv`` calls internally), minus the
    per-call wrapper overhead that dominates at MNA sizes, where this
    operator is hit thousands of times per transient.  Raises
    ``np.linalg.LinAlgError`` on an exactly singular matrix, mirroring
    ``np.linalg.solve`` so existing Newton fallbacks keep working.
    """

    def __init__(self, matrix: np.ndarray,
                 overwrite_matrix: bool = False):
        """Factor ``matrix``.

        Args:
            matrix: the square system matrix.
            overwrite_matrix: allow LAPACK to factor ``matrix`` in
                place (the compiled-circuit path hands over a scratch
                assembly buffer, saving one n^2 copy per factor).
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.n = matrix.shape[0]
        getrf, self._getrs = get_lapack_funcs(("getrf", "getrs"),
                                              (matrix,))
        lu, piv, info = getrf(matrix, overwrite_a=overwrite_matrix)
        if info != 0:
            # info > 0 flags an exact zero pivot (singular); info < 0
            # cannot happen for a well-formed square float array.
            raise np.linalg.LinAlgError("singular matrix")
        self._lu = lu
        self._piv = piv

    def solve(self, rhs: np.ndarray,
              overwrite_rhs: bool = False) -> np.ndarray:
        """Back-substitute one ``(n,)`` RHS or an ``(n, k)`` batch."""
        x, info = self._getrs(self._lu, self._piv, rhs,
                              overwrite_b=overwrite_rhs)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"LU back-substitution failed (info={info})")
        return x


class SparseLuOperator(FactorizedOperator):
    """Sparse LU (SuperLU) of a CSC/CSR/COO matrix."""

    def __init__(self, matrix: "scipy.sparse.spmatrix"):
        import scipy.sparse.linalg
        matrix = scipy.sparse.csc_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.n = matrix.shape[0]
        self._splu = scipy.sparse.linalg.splu(matrix)

    def solve(self, rhs: np.ndarray,
              overwrite_rhs: bool = False) -> np.ndarray:
        """Back-substitute one ``(n,)`` RHS or an ``(n, k)`` batch."""
        return self._splu.solve(np.asarray(rhs, dtype=float))


#: Column count above which the numpy column-vectorized LU sweeps of
#: :meth:`TridiagonalOperator.solve_many` beat LAPACK's per-column
#: ``gttrs`` loop.  The vectorized sweeps cost ~5 numpy calls per
#: matrix row regardless of width, while ``gttrs`` costs O(rows) per
#: column, so the crossover is nearly independent of the matrix size
#: (measured ~300 columns on one core).
VECTORIZED_MIN_COLUMNS = 320


class TridiagonalOperator(FactorizedOperator):
    """Tridiagonal LU (``gttrf``) with O(n) back-substitution.

    Built from the three diagonals of ``A`` (``lower`` and ``upper``
    have ``n - 1`` entries).  Equivalent to
    ``scipy.linalg.solve_banded((1, 1), ...)`` but the factorization
    is done once, and :meth:`solve` with ``overwrite_rhs=True`` is
    allocation-free.  :meth:`solve_many` back-substitutes a wide block
    of right-hand sides with the LU sweeps vectorized *across
    columns*, which is how the batched Korhonen engine advances whole
    wire populations per step.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray,
                 upper: np.ndarray):
        diag = np.asarray(diag, dtype=float)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        self.n = diag.shape[0]
        if lower.shape != (self.n - 1,) or upper.shape != (self.n - 1,):
            raise ValueError("off-diagonals must have n - 1 entries")
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (diag,))
        self._gttrs = gttrs
        dl, d, du, du2, ipiv, info = gttrf(lower, diag, upper)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"tridiagonal factorization failed (info={info})")
        self._factors = (dl, d, du, du2, ipiv)
        # Partial pivoting is a per-*row* decision recorded in ipiv,
        # identical for every RHS column, so the factored sweeps can
        # run as numpy column-vector operations (one op per matrix
        # row) with the pivoted rows handled by the same swap LAPACK's
        # ``gtts2`` performs per column.
        self._pivoted_rows = ipiv != np.arange(1, self.n + 1)

    def solve(self, rhs: np.ndarray,
              overwrite_rhs: bool = False) -> np.ndarray:
        """Back-substitute; with ``overwrite_rhs`` it is allocation-free."""
        dl, d, du, du2, ipiv = self._factors
        x, info = self._gttrs(dl, d, du, du2, ipiv, rhs,
                              overwrite_b=overwrite_rhs)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"tridiagonal solve failed (info={info})")
        return x

    def solve_many(self, block: np.ndarray,
                   overwrite_rhs: bool = False) -> np.ndarray:
        """Back-substitute an ``(n, k)`` block of RHS columns at once.

        Bit-identical to calling :meth:`solve` on every column: for
        wide C-ordered blocks the forward/backward LU sweeps run as
        one numpy operation per matrix row over all ``k`` columns
        (mirroring LAPACK ``gtts2``'s arithmetic exactly, including
        its per-row pivot swaps, which are column-independent),
        turning O(k) LAPACK calls' worth of per-column work into ~5
        vector ops per row.  Narrow blocks fall back to ``gttrs``.
        With ``overwrite_rhs=True`` the solution is written into
        ``block`` (when its layout permits) and ``block`` is
        returned.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self.n:
            raise ValueError(
                f"block must have shape ({self.n}, k), got {block.shape}")
        n, k = block.shape
        if k < VECTORIZED_MIN_COLUMNS or n < 3:
            fblock = np.asfortranarray(block)
            if fblock is block:
                return self.solve(block, overwrite_rhs=overwrite_rhs)
            x = self.solve(fblock, overwrite_rhs=True)
            if overwrite_rhs:
                np.copyto(block, x)
                return block
            return x
        dl, d, du, du2, _ = self._factors
        pivoted = self._pivoted_rows
        x = block if (overwrite_rhs and block.flags.c_contiguous) \
            else np.ascontiguousarray(block)
        scratch = np.empty(k)
        # Forward sweep (L has unit diagonal).  A pivoted row swaps
        # with its successor before eliminating, exactly as gtts2.
        for i in range(n - 1):
            if pivoted[i]:
                np.copyto(scratch, x[i])
                np.copyto(x[i], x[i + 1])
                np.multiply(dl[i], x[i], out=x[i + 1])
                np.subtract(scratch, x[i + 1], out=x[i + 1])
            else:
                np.multiply(dl[i], x[i], out=scratch)
                np.subtract(x[i + 1], scratch, out=x[i + 1])
        # Backward sweep: x[i] = (b[i] - du[i] x[i+1] - du2[i] x[i+2])
        # / d[i]; ``du2`` entries are nonzero only below pivoted rows.
        np.divide(x[n - 1], d[n - 1], out=x[n - 1])
        np.multiply(du[n - 2], x[n - 1], out=scratch)
        np.subtract(x[n - 2], scratch, out=x[n - 2])
        np.divide(x[n - 2], d[n - 2], out=x[n - 2])
        for i in range(n - 3, -1, -1):
            np.multiply(du[i], x[i + 1], out=scratch)
            np.subtract(x[i], scratch, out=x[i])
            if du2[i] != 0.0:
                np.multiply(du2[i], x[i + 2], out=scratch)
                np.subtract(x[i], scratch, out=x[i])
            np.divide(x[i], d[i], out=x[i])
        if overwrite_rhs and x is not block:
            np.copyto(block, x)
            return block
        return x


#: Every live cache, named or not; :func:`cache_counters` aggregates
#: the named ones.  Weak references keep the registry from pinning
#: caches (and their factors) past their owners' lifetimes.
_CACHE_REGISTRY: "weakref.WeakSet[FactorizationCache]" = weakref.WeakSet()

#: Durable per-name counter totals.  Named caches increment these at
#: record time, so the aggregate survives the cache itself -- a
#: batched engine built inside one sweep task (and collected with it)
#: still shows up in the chunk's telemetry delta, and
#: :func:`cache_counters` keeps its only-ever-grows contract.
_COUNTER_TOTALS: Dict[str, Dict[str, int]] = {}


def _named_totals(name: str) -> Dict[str, int]:
    return _COUNTER_TOTALS.setdefault(
        name, {"hits": 0, "misses": 0,
               "batched_solves": 0, "batched_rows": 0})


class FactorizationCache:
    """A small fingerprint-keyed LRU of expensive derived entries.

    Built for :class:`FactorizedOperator` reuse, but the cache never
    inspects the entry, so any costly key-determined artifact fits
    (steady-state temperature vectors, precomputed step kernels):
    invalidation is purely key-driven.  Callers key on everything the
    entry depends on (:func:`fingerprint` helps digest arrays), so a
    topology / ``dt`` / ``kappa`` change produces a new key, misses,
    and rebuilds.  ``hits`` / ``misses`` counters make reuse
    observable in tests; give the cache a ``name`` and those counters
    also surface in :func:`cache_counters` (and from there in sweep
    telemetry, :class:`repro.solvers.sweep.SweepReport`).

    Batched engines (:class:`repro.circuit.batched.CircuitBatch`,
    :class:`repro.em.korhonen.KorhonenBatch`) additionally call
    :meth:`record_batched_solve` whenever they back-substitute a block
    of RHS rows against one cached factor, so grouped multi-RHS solves
    are observable next to the hit/miss traffic
    (``batched_rows / batched_solves`` is the average batch width).
    """

    def __init__(self, maxsize: int = 16, name: Optional[str] = None):
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.name = name
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.batched_solves = 0
        self.batched_rows = 0
        self._totals = _named_totals(name) if name is not None \
            else None
        _CACHE_REGISTRY.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(self, key: Hashable,
                     factory: Callable[[], Any]) -> Any:
        """The cached entry for ``key``, building it on a miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            if self._totals is not None:
                self._totals["hits"] += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        if self._totals is not None:
            self._totals["misses"] += 1
        entry = factory()
        self._entries[key] = entry
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def record_batched_solve(self, n_rows: int) -> None:
        """Count one grouped back-substitution advancing ``n_rows``.

        Called by batched engines after solving a block of RHS rows
        against one cached factor; the totals surface through
        :func:`cache_counters` and sweep telemetry.
        """
        self.batched_solves += 1
        self.batched_rows += int(n_rows)
        if self._totals is not None:
            self._totals["batched_solves"] += 1
            self._totals["batched_rows"] += int(n_rows)

    def clear(self) -> None:
        """Drop all cached factorizations (counters are kept)."""
        self._entries.clear()


def cache_counters() -> Dict[str, Dict[str, int]]:
    """Counter totals of every *named* cache, keyed by name.

    Each entry carries the caches' ``hits`` / ``misses`` plus the
    ``batched_solves`` / ``batched_rows`` recorded via
    :meth:`FactorizationCache.record_batched_solve`.  Caches sharing a
    name (e.g. one LU cache per compiled circuit, all named
    ``"circuit.lu"``) aggregate into one entry, and the totals outlive
    the caches themselves: a batched engine built for one sweep task
    and collected with it still leaves its traffic behind.  The sweep
    runner snapshots this before and after each chunk to attribute
    cache traffic to sweep work, so the counters must only ever grow.
    """
    return {name: dict(counters)
            for name, counters in _COUNTER_TOTALS.items()}


def record_counters(name: str, **increments: int) -> None:
    """Add engine-defined counters to a named durable total.

    The named totals normally grow through
    :class:`FactorizationCache` traffic (``hits`` / ``misses`` /
    ``batched_solves`` / ``batched_rows``); engines that want other
    run metrics in the same telemetry stream -- the fleet engine
    records chips advanced, chunk counts and kernel-row dedup sizes --
    call this with their own counter keys.  Increments must be
    non-negative so :func:`cache_counters` keeps its only-ever-grows
    contract (the sweep runner attributes per-chunk deltas by
    before/after subtraction).
    """
    totals = _named_totals(name)
    for key, value in increments.items():
        value = int(value)
        if value < 0:
            raise ValueError(
                f"counter increments must be non-negative, "
                f"got {key}={value}")
        totals[key] = totals.get(key, 0) + value


def solve_dense_cached(matrix: np.ndarray, rhs: np.ndarray,
                       cache: FactorizationCache) -> np.ndarray:
    """Solve a dense system through a content-keyed cache.

    Hashing the matrix bytes is O(n^2) against the O(n^3) of a
    factorization, so repeated solves with an unchanged matrix (linear
    transient steps, fixed-point loops) skip straight to
    back-substitution while changed matrices (Newton re-linearization)
    transparently refactor.  Results match ``np.linalg.solve``
    bit-for-bit: both paths are LAPACK ``getrf`` + ``getrs``.
    """
    key = fingerprint(matrix)
    operator = cache.get_or_build(key, lambda: DenseLuOperator(matrix))
    return operator.solve(rhs)
