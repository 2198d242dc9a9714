"""The pre-processing pipeline (the "pre-processing" box of Figure 2).

The paper puts this stage outside its measured phases.  It checks the
input (square, every value finite) and, when the diagonal has a
structural zero, permutes rows so that every diagonal position holds a
stored entry: the factorization pivots statically on the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteValueError
from ..sparse import CSRMatrix, permute
from ..sparse.types import INDEX_DTYPE
from .matching import zero_free_diagonal_permutation


@dataclass(frozen=True)
class PreprocessResult:
    """Permuted matrix plus the permutations applied to reach it.

    ``matrix = P A Q`` with gather-convention permutations
    (``row_perm[new] = old``); ``col_perm`` is the identity.
    :func:`repro.numeric.lu_solve_permuted` consumes both directly.
    """

    matrix: CSRMatrix
    row_perm: np.ndarray
    col_perm: np.ndarray


def require_finite(values: np.ndarray) -> None:
    """Raise :class:`~repro.errors.NonFiniteValueError` unless every
    stored value is finite."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise NonFiniteValueError(len(bad), int(bad[0]))


def preprocess(a: CSRMatrix) -> PreprocessResult:
    """Check square matrix ``a`` and give it a zero-free diagonal.

    Non-finite values raise :class:`~repro.errors.NonFiniteValueError`; a
    matrix with no zero-free row permutation raises
    :class:`~repro.errors.StructurallySingularError`.  The matching fills
    every diagonal position, so no entry needs inserting.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("preprocess requires a square matrix")
    require_finite(a.data)
    identity = np.arange(a.n_rows, dtype=INDEX_DTYPE)
    if a.has_full_diagonal():
        return PreprocessResult(a, identity, identity.copy())
    row_perm = zero_free_diagonal_permutation(a)
    return PreprocessResult(permute(a, row_perm=row_perm), row_perm, identity)
