"""Sparse triangular solves: the post-factorization half of ``Ax = b``.

Both sweeps run in SciPy's compiled SuperLU ``gstrs``, one call per
factor, on the CSC factors the numeric phase produces, for one
right-hand side ``(n,)`` or a block ``(n, k)``.  The level-set solve of
the paper's citation [28] and of GLU 3.0 is not simulated: the serving
layer charges a solve as one utility launch over the factor entries.
On the host, where one column per level is the common case, a compiled
column loop is cheaper than a level schedule of NumPy calls.

Each sweep divides an unknown by its stored diagonal (1 where none is
stored; dividing by 1.0 is exact) and then pushes it into the later
unknowns of its column.  That is SuperLU's backward phase, given an
identity "L" that carries the diagonal and the strictly off-diagonal
entries as "U".  ``U`` maps across as it is.  ``L`` maps across in
reversed index order (column and row ``j`` become ``n - 1 - j``), so its
forward sweep becomes a backward one; one column's pushes hit distinct
rows, so reversing a column needs no sort.  SuperLU stores each column
as its own supernode and runs, per column, exactly the division and
the pushes of the loops in :mod:`repro.oracles`, in their order, so the
result is bitwise equal to them.

Errors are those of the loop too: checked in Python before the call,
the column it would reject first decides between a triangularity error
and a zero pivot.  The :class:`SolvePlan` depends only on the factor
patterns, so :func:`solve_plan` keeps it in the schedule's plan store
and numeric-only passes over one analysis skip the build.
"""

from __future__ import annotations

import importlib.util
import os
from collections.abc import Callable
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import scipy

from ..errors import (
    NotLowerTriangularError,
    NotUpperTriangularError,
    SingularMatrixError,
)
from ..graph import LevelSchedule
from ..sparse import CSCMatrix


def _load_gstrs() -> Callable[..., tuple[np.ndarray, int]]:
    """SuperLU's ``gstrs`` from SciPy's extension file alone: importing
    it as a submodule runs the ``scipy.sparse`` package inits, about
    30 MB of resident memory."""
    name = "scipy.sparse.linalg._dsolve._superlu"
    where = os.path.join(scipy.__path__[0], "sparse", "linalg", "_dsolve")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(where, "_superlu" + suffix)
        spec = importlib.util.spec_from_file_location(name, path)
        if os.path.exists(path) and spec and spec.loader:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if hasattr(module, "gstrs"):
                return module.gstrs
    raise ImportError(
        f"repro needs scipy>=1.14 for SuperLU's gstrs; scipy "
        f"{scipy.__version__} has no {name}.gstrs"
    )


_gstrs = _load_gstrs()


@dataclass(frozen=True)
class _Sweep:
    """One factor's sweep as SuperLU's backward phase."""

    lower: bool
    #: data position of each column's diagonal entry, -1 where absent
    diag: np.ndarray
    #: data positions, ``intc`` rows and colptr of the strictly
    #: off-diagonal entries, index-reversed for ``L``
    off: np.ndarray
    rows: np.ndarray
    colptr: np.ndarray
    #: the first column, in loop order, with an entry on the wrong side
    #: of the diagonal; -1 when the factor is triangular
    bad: int

    @classmethod
    def build(cls, t: CSCMatrix, *, lower: bool) -> _Sweep:
        n = t.n_cols
        rows, cols = t.indices, t.col_ids_of_entries()
        wrong = cols[rows < cols] if lower else cols[rows > cols]
        bad = int(wrong.min() if lower else wrong.max()) if len(wrong) else -1
        off = np.flatnonzero(rows > cols if lower else rows < cols)
        src, tgt = cols[off], rows[off]
        if lower:
            off, src, tgt = off[::-1], n - 1 - src[::-1], n - 1 - tgt[::-1]
        colptr = np.searchsorted(src, np.arange(n + 1)).astype(np.intc)
        tgt = tgt.astype(np.intc)
        return cls(lower, t.diagonal_positions(), off, tgt, colptr, bad)

    def sweep(
        self, t: CSCMatrix, b: np.ndarray, *, unit_diagonal: bool = False
    ) -> np.ndarray:
        """Solve for ``b`` (left unmodified), raising what the column
        loop raises for the first column it rejects."""
        has = self.diag >= 0
        d = np.ones(len(self.diag))
        d[has] = t.data[self.diag[has]]
        fails = np.flatnonzero(~has | (d == 0.0))
        if len(fails) and not unit_diagonal:
            j = int(fails[0] if self.lower else fails[-1])
            if self.bad < 0 or (j < self.bad if self.lower else j > self.bad):
                raise SingularMatrixError(j)
        if self.bad >= 0:
            side = "above" if self.lower else "below"
            error = (
                NotLowerTriangularError
                if self.lower
                else NotUpperTriangularError
            )
            raise error(f"column {self.bad} has entry {side} diagonal")
        n = len(d)
        eye = np.arange(n + 1, dtype=np.intc)
        vals = t.data[self.off].astype(np.float64, copy=False)
        if self.lower:
            d, b = d[::-1].copy(), b[::-1]
        # SuperLU's "L" holds only the diagonal, its "U" the strict part;
        # b goes in as a Fortran-ordered copy, which gstrs may solve in
        diagonal = (n, n, d, eye[:n], eye)
        strict = (n, len(vals), vals, self.rows, self.colptr)
        x, _ = _gstrs("N", *diagonal, *strict, np.array(b, order="F"))
        return np.ascontiguousarray(x[::-1] if self.lower else x)


def _rhs(b: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(b, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"rhs must be ({n},) or ({n}, k), not {x.shape}")
    return x


@dataclass(frozen=True)
class SolvePlan:
    """Structure-only SuperLU inputs of both sweeps of one factor pair."""

    lower: _Sweep
    upper: _Sweep

    @classmethod
    def build(cls, L: CSCMatrix, U: CSCMatrix) -> SolvePlan:
        return cls(_Sweep.build(L, lower=True), _Sweep.build(U, lower=False))

    def solve(self, L: CSCMatrix, U: CSCMatrix, b: np.ndarray) -> np.ndarray:
        """Solve ``(L U) x = b`` for unit-lower ``L``; ``b`` is ``(n,)``
        or ``(n, k)``."""
        y = self.lower.sweep(L, _rhs(b, L.n_cols), unit_diagonal=True)
        return self.upper.sweep(U, y)


def solve_plan(
    L: CSCMatrix, U: CSCMatrix, schedule: LevelSchedule | None = None
) -> SolvePlan:
    """The solve plan of ``(L, U)``, kept in ``schedule``'s plan store.

    The store (:class:`~repro.graph.PatternPlans`) lets every factor pair
    of one analysis share a single build.  ``L`` stores its unit
    diagonal, so the pair holds the filled pattern's entries plus ``n``.
    Without a schedule the plan is built and not kept.
    """
    if schedule is None:
        return SolvePlan.build(L, U)
    n = U.n_cols
    plans = schedule.plans_for(n, L.nnz + U.nnz - n)
    if plans.solve is None:
        plans.solve = SolvePlan.build(L, U)
    return plans.solve


def forward_substitute(
    L: CSCMatrix, b: np.ndarray, *, unit_diagonal: bool = True
) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L`` (CSC, sorted rows);
    ``b`` is ``(n,)`` or ``(n, k)``."""
    sweep = _Sweep.build(L, lower=True)
    return sweep.sweep(L, _rhs(b, L.n_cols), unit_diagonal=unit_diagonal)


def backward_substitute(U: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U`` (CSC, sorted rows);
    ``b`` is ``(n,)`` or ``(n, k)``."""
    return _Sweep.build(U, lower=False).sweep(U, _rhs(b, U.n_cols))


def lu_solve(L: CSCMatrix, U: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``(L U) x = b`` via forward then backward substitution
    (:func:`solve_plan` reuses a plan)."""
    return SolvePlan.build(L, U).solve(L, U, b)


def lu_solve_permuted(
    L: CSCMatrix,
    U: CSCMatrix,
    b: np.ndarray,
    row_perm: np.ndarray | None = None,
    col_perm: np.ndarray | None = None,
    *,
    schedule: LevelSchedule | None = None,
    plan: SolvePlan | None = None,
) -> np.ndarray:
    """Solve the original system when ``P A Q = L U`` was factorized.

    ``row_perm``/``col_perm`` follow the gather convention of
    :func:`repro.sparse.ops.permute` (``perm[new] = old``), so

        A x = b  <=>  x = Q (U^-1 L^-1) P b.

    ``b`` is one right-hand side ``(n,)`` or a block ``(n, k)``.  Pass
    the numeric ``schedule`` to solve on its cached plan, or a prebuilt
    ``plan`` to reuse one across solves.
    """
    b = _rhs(b, L.n_cols)
    if row_perm is not None:
        b = b[np.asarray(row_perm)]
    y = (plan or solve_plan(L, U, schedule)).solve(L, U, b)
    if col_perm is None:
        return y
    x = np.empty_like(y)
    x[np.asarray(col_perm)] = y
    return x
