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
    backward_substitute,
    backward_substitute_multi,
    forward_substitute,
    forward_substitute_multi,
    lu_solve,
    lu_solve_multi,
    lu_solve_permuted,
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
    "forward_substitute_multi",
    "backward_substitute",
    "backward_substitute_multi",
    "lu_solve",
    "lu_solve_multi",
    "lu_solve_permuted",
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
