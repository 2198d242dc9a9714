"""Iterative refinement and residual diagnostics.

With static pivoting (the paper's setting — no partial pivoting during
numeric factorization) a few refinement sweeps recover accuracy lost to
small pivots; this is the standard companion of static-pivot sparse LU
(SuperLU_DIST does the same).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse import CSRMatrix
from .trisolve import lu_solve_permuted, solve_plan


@dataclass(frozen=True)
class RefinementResult:
    x: np.ndarray
    iterations: int
    residual_norms: tuple[float, ...]

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1]


def iterative_refinement(
    a: CSRMatrix,
    b: np.ndarray,
    solve_fn,
    *,
    max_iter: int = 5,
    tol: float = 1e-12,
) -> RefinementResult:
    """Refine ``x = solve_fn(rhs)`` against the true matrix ``a``.

    ``solve_fn`` applies the (approximately) factorized inverse; refinement
    iterates ``x += solve_fn(b - A x)`` until the relative residual falls
    below ``tol`` or ``max_iter`` sweeps have run.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError(f"refinement takes a 1-D rhs, not {b.shape}")
    bnorm = float(np.linalg.norm(b)) or 1.0
    x = solve_fn(b)
    norms = []
    for it in range(max_iter + 1):
        r = b - a.matvec(x)
        rel = float(np.linalg.norm(r)) / bnorm
        norms.append(rel)
        if rel <= tol or it == max_iter:
            return RefinementResult(x, it, tuple(norms))
        x = x + solve_fn(r)
    return RefinementResult(x, max_iter, tuple(norms))


def make_lu_solver(L, U, row_perm=None, col_perm=None, *, schedule=None):
    """Bind factors + permutations into a ``solve_fn`` for refinement.

    The solve plan is built once (on ``schedule``'s levels when given)
    and shared by every call.
    """
    plan = solve_plan(L, U, schedule)

    def solve_fn(rhs: np.ndarray) -> np.ndarray:
        return lu_solve_permuted(
            L, U, rhs,
            row_perm=row_perm, col_perm=col_perm, plan=plan,
        )

    return solve_fn
