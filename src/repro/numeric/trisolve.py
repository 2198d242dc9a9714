"""Sparse triangular solves: the post-factorization half of ``Ax = b``.

Both sweeps are level-scheduled *pull* substitutions on the CSC factors
the numeric phase produces, for one right-hand side ``(n,)`` or a block
``(n, k)``.  A level partition of the columns is valid for a sweep when
every off-diagonal entry's source column sits in an earlier level than
its target.  The numeric :class:`~repro.graph.LevelSchedule` carries
GLU 3.0's full L and U dependency set, so it is valid for the forward
sweep and, run in reverse, for the backward sweep (the level-set solve
of the paper's citation [28] and of GLU 3.0).  Callers without one use
the partition with one column per level, which is valid for both.

A structure-only :class:`SolvePlan` stable-sorts each factor's
off-diagonal entries by the level of their target, starting from an
order in which sources ascend for ``L`` and descend for ``U``.  Each
level then costs one gather of its sources, one multiply and one
``np.subtract.at`` into its targets (plus, for ``U``, one division of
the gathered sources by their diagonals).  Why the result is bitwise
equal to the column-at-a-time loop of :mod:`repro.oracles`:

* ``ufunc.at`` applies repeated targets in array order, so every
  unknown receives its updates in the loop's source order;
* every source sits in an earlier level, so it has all its updates when
  it is read, and reading it as ``x / d`` gives exactly the bits the
  loop stored for it; the unknowns themselves are divided once, at the
  end;
* IEEE products and quotients do not depend on how they are batched.

Errors are those of the loop too: the column it would reject first
decides between a triangularity error and a zero pivot.  The plan
depends only on the factor patterns, so :func:`solve_plan` keeps it in
the schedule's plan store and numeric-only passes over one analysis
skip the build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    NotLowerTriangularError,
    NotUpperTriangularError,
    SingularMatrixError,
)
from ..graph import LevelSchedule
from ..sparse import CSCMatrix


@dataclass(frozen=True)
class _PullStream:
    """One factor's sweep: its off-diagonal entries in pull order."""

    lower: bool
    #: data position of each column's diagonal entry, -1 where absent
    diag: np.ndarray
    #: data position and source column of each entry, in pull order
    entry: np.ndarray
    src: np.ndarray
    #: per level with updates: (targets, sources, first entry, end entry)
    steps: list[tuple[np.ndarray, np.ndarray, int, int]]
    #: the first column, in loop order, with an entry on the wrong side
    #: of the diagonal; -1 when the factor is triangular
    bad: int

    @classmethod
    def build(
        cls, t: CSCMatrix, level_of: np.ndarray | None, *, lower: bool
    ) -> _PullStream:
        n = t.n_cols
        rows, cols = t.indices, t.col_ids_of_entries()
        wrong = cols[rows < cols] if lower else cols[rows > cols]
        bad = int(wrong.min() if lower else wrong.max()) if len(wrong) else -1
        # CSC order has sources ascending; U walks it from the back
        pos = np.flatnonzero(rows > cols if lower else rows < cols)
        pos = pos if lower else pos[::-1]
        tgt, src = rows[pos], cols[pos]
        # the sweep level of each column, reversed for U; a partition
        # that does not order this factor's entries is not used.  16-bit
        # keys (|key| < n) take NumPy's radix sort when they fit.
        small = np.int16 if n <= np.iinfo(np.int16).max else np.int64
        valid = level_of is not None and len(level_of) == n
        key = (level_of if valid else np.arange(n)).astype(small)
        key = key if lower else -key
        if not np.all(key[src] < key[tgt]):
            key = np.arange(n, dtype=small) * (1 if lower else -1)
        level = key[tgt]
        by_level = np.argsort(level, kind="stable")
        tgt, src = tgt[by_level], src[by_level]
        per_level = np.bincount(level - key.min()) if len(level) else []
        bounds = [0, *np.cumsum(per_level).tolist()]
        steps = [
            (tgt[e0:e1], src[e0:e1], e0, e1)
            for e0, e1 in zip(bounds, bounds[1:])
            if e1 > e0
        ]
        diag = t.diagonal_positions()
        return cls(lower, diag, pos[by_level], src, steps, bad)

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
        x = b.copy()
        vals = t.data[self.entry]
        if x.ndim == 2:
            vals, d = vals[:, None], d[:, None]
        # a source is read as x / d, the bits the loop stored for it; the
        # unknowns themselves are divided once, at the end
        unit = unit_diagonal and bool(np.all(d == 1.0))
        d_src = None if unit else d[self.src]
        for tgt, src, e0, e1 in self.steps:
            xs = x[src]
            if d_src is not None:
                xs /= d_src[e0:e1]
            np.subtract.at(x, tgt, vals[e0:e1] * xs)
        if not unit:
            x /= d
        return x


def _rhs(b: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(b, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"rhs must be ({n},) or ({n}, k), not {x.shape}")
    return x


@dataclass(frozen=True)
class SolvePlan:
    """Structure-only pull streams of both sweeps of one factor pair."""

    lower: _PullStream
    upper: _PullStream

    @classmethod
    def build(
        cls, L: CSCMatrix, U: CSCMatrix, level_of: np.ndarray | None = None
    ) -> SolvePlan:
        return cls(
            _PullStream.build(L, level_of, lower=True),
            _PullStream.build(U, level_of, lower=False),
        )

    def solve(self, L: CSCMatrix, U: CSCMatrix, b: np.ndarray) -> np.ndarray:
        """Solve ``(L U) x = b`` for unit-lower ``L``; ``b`` is ``(n,)``
        or ``(n, k)``."""
        y = self.lower.sweep(L, _rhs(b, L.n_cols), unit_diagonal=True)
        return self.upper.sweep(U, y)


def solve_plan(
    L: CSCMatrix, U: CSCMatrix, schedule: LevelSchedule | None = None
) -> SolvePlan:
    """The solve plan of ``(L, U)`` on ``schedule``'s levels.

    The plan is kept in the schedule's plan store
    (:class:`~repro.graph.PatternPlans`), so every factor pair of one
    analysis shares a single build.  ``L`` stores its unit diagonal, so
    the pair holds the filled pattern's entries plus ``n``.  Without a
    schedule the plan uses one column per level and is not kept.
    """
    if schedule is None:
        return SolvePlan.build(L, U)
    n = U.n_cols
    plans = schedule.plans_for(n, L.nnz + U.nnz - n)
    if plans.solve is None:
        plans.solve = SolvePlan.build(L, U, schedule.level_of)
    return plans.solve


def forward_substitute(
    L: CSCMatrix, b: np.ndarray, *, unit_diagonal: bool = True
) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L`` (CSC, sorted rows);
    ``b`` is ``(n,)`` or ``(n, k)``."""
    stream = _PullStream.build(L, None, lower=True)
    return stream.sweep(L, _rhs(b, L.n_cols), unit_diagonal=unit_diagonal)


def backward_substitute(U: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U`` (CSC, sorted rows);
    ``b`` is ``(n,)`` or ``(n, k)``."""
    stream = _PullStream.build(U, None, lower=False)
    return stream.sweep(U, _rhs(b, U.n_cols))


def lu_solve(L: CSCMatrix, U: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``(L U) x = b`` via forward then backward substitution,
    with one column per level (:func:`solve_plan` reuses a plan)."""
    return SolvePlan.build(L, U).solve(L, U, b)


def lu_solve_permuted(
    L: CSCMatrix,
    U: CSCMatrix,
    b: np.ndarray,
    row_perm: np.ndarray | None = None,
    col_perm: np.ndarray | None = None,
    row_scale: np.ndarray | None = None,
    col_scale: np.ndarray | None = None,
    *,
    schedule: LevelSchedule | None = None,
    plan: SolvePlan | None = None,
) -> np.ndarray:
    """Solve the original system when ``P (Dr A Dc) Q = L U`` was factorized.

    ``row_perm``/``col_perm`` follow the gather convention of
    :func:`repro.sparse.ops.permute` (``perm[new] = old``) and
    ``row_scale``/``col_scale`` are the equilibration diagonals applied
    before factorization, so

        A x = b  <=>  x = Dc Q (U^-1 L^-1) P Dr b.

    ``b`` is one right-hand side ``(n,)`` or a block ``(n, k)``.  Pass
    the numeric ``schedule`` to solve on its cached plan, or a prebuilt
    ``plan`` to reuse one across solves.
    """
    b = _rhs(b, L.n_cols)
    if row_scale is not None:
        b = b * (row_scale if b.ndim == 1 else row_scale[:, None])
    if row_perm is not None:
        b = b[np.asarray(row_perm)]
    y = (plan or solve_plan(L, U, schedule)).solve(L, U, b)
    if col_perm is not None:
        x = np.empty_like(y)
        x[np.asarray(col_perm)] = y
    else:
        x = y
    if col_scale is not None:
        x = x * (col_scale if x.ndim == 1 else col_scale[:, None])
    return x
