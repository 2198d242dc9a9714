"""The pre-processing pipeline (the "pre-processing" box of Figure 2).

Composes, per configuration: zero-free-diagonal row matching, a
fill-reducing ordering (RCM / minimum-degree / natural), equilibration
scaling and static pivot boosting — producing the permuted/scaled matrix
the factorization phases consume plus everything needed to undo the
transformations at solve time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..errors import NonFiniteValueError
from ..sparse import CSRMatrix, ensure_diagonal, permute
from ..sparse.types import INDEX_DTYPE
from .matching import zero_free_diagonal_permutation
from .mindegree import minimum_degree_ordering
from .rcm import rcm_ordering
from .scaling import boost_small_pivots, equilibrate

OrderingName = Literal["natural", "rcm", "mindegree"]


@dataclass(frozen=True)
class PreprocessResult:
    """Permuted/scaled matrix plus the transforms applied to reach it.

    ``matrix = P (Dr A Dc) Q`` with gather-convention permutations
    (``row_perm[new] = old``).  :func:`repro.numeric.lu_solve_permuted`
    consumes these fields directly.
    """

    matrix: CSRMatrix
    row_perm: np.ndarray
    col_perm: np.ndarray
    row_scale: np.ndarray | None
    col_scale: np.ndarray | None
    boosted_pivots: int = 0


@dataclass(frozen=True)
class PreprocessOptions:
    ordering: OrderingName = "natural"
    match_diagonal: bool = True
    equilibrate: bool = False
    boost_pivots: bool = False
    insert_missing_diagonal: bool = True


def require_finite(values: np.ndarray) -> None:
    """Raise :class:`~repro.errors.NonFiniteValueError` unless every
    stored value is finite."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise NonFiniteValueError(len(bad), int(bad[0]))


def preprocess(a: CSRMatrix, options: PreprocessOptions | None = None
               ) -> PreprocessResult:
    """Run the configured pre-processing steps on square matrix ``a``.

    Non-finite values raise :class:`~repro.errors.NonFiniteValueError`.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("preprocess requires a square matrix")
    require_finite(a.data)
    opts = options or PreprocessOptions()
    n = a.n_rows
    work = a
    row_scale = col_scale = None

    if opts.equilibrate:
        work, eq = equilibrate(work)
        row_scale, col_scale = eq.row_scale, eq.col_scale

    row_perm = np.arange(n, dtype=INDEX_DTYPE)
    col_perm = np.arange(n, dtype=INDEX_DTYPE)

    if opts.match_diagonal and not work.has_full_diagonal():
        row_perm = zero_free_diagonal_permutation(work)
        work = permute(work, row_perm=row_perm)

    if opts.ordering != "natural":
        if opts.ordering == "rcm":
            sym_perm = rcm_ordering(work)
        elif opts.ordering == "mindegree":
            sym_perm = minimum_degree_ordering(work)
        else:  # pragma: no cover - guarded by Literal
            raise ValueError(f"unknown ordering {opts.ordering!r}")
        work = permute(work, row_perm=sym_perm, col_perm=sym_perm)
        row_perm = row_perm[sym_perm]
        col_perm = col_perm[sym_perm]

    boosted = 0
    if opts.insert_missing_diagonal:
        work = ensure_diagonal(work, value=0.0)
    if opts.boost_pivots:
        work, boosted = boost_small_pivots(work)

    return PreprocessResult(
        matrix=work,
        row_perm=row_perm,
        col_perm=col_perm,
        row_scale=row_scale,
        col_scale=col_scale,
        boosted_pivots=boosted,
    )
