"""Numeric factorization substrate (CPU algorithms + triangular solves).

The production GPU path (:mod:`repro.core.numeric_gpu`) wraps
:func:`factorize_in_place` — the in-place hybrid right-looking kernel,
vectorized per level (:mod:`repro.numeric.vectorized`) — with
device-memory management and kernel-time charging; the left-looking and
dense references and the scalar loop in :mod:`repro.oracles` exist to
cross-check it.
"""

from .condest import condest, onenorm, onenorm_inverse_estimate, pivot_growth
from .gmres import GmresResult, gmres
from .ilu import ilu0, ilu0_preconditioner
from .leftlooking import dense_lu_nopivot, factorize_leftlooking
from .refine import RefinementResult, iterative_refinement, make_lu_solver
from .rightlooking import NumericStats, extract_lu
from .supernodal import (
    PanelWave,
    SupernodalPlan,
    build_supernodal_plan,
    supernodal_plan_for,
)
from .trisolve import (
    SolvePlan,
    backward_substitute,
    forward_substitute,
    lu_solve,
    lu_solve_permuted,
    solve_plan,
)
from .vectorized import factorize_in_place

__all__ = [
    "NumericStats",
    "factorize_in_place",
    "extract_lu",
    "PanelWave",
    "SupernodalPlan",
    "build_supernodal_plan",
    "supernodal_plan_for",
    "factorize_leftlooking",
    "dense_lu_nopivot",
    "forward_substitute",
    "backward_substitute",
    "lu_solve",
    "lu_solve_permuted",
    "SolvePlan",
    "solve_plan",
    "iterative_refinement",
    "make_lu_solver",
    "RefinementResult",
    "condest",
    "onenorm",
    "onenorm_inverse_estimate",
    "pivot_growth",
    "ilu0",
    "ilu0_preconditioner",
    "gmres",
    "GmresResult",
]
