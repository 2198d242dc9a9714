"""Value-carrying sparse operations: permutation and residual.

The pre-processing pipeline applies a row permutation ``P`` and a column
permutation ``Q`` to form ``P A Q`` before factorization; these helpers do
that without densifying.
"""

from __future__ import annotations

import numpy as np

from ..errors import SparseFormatError
from .coo import COOMatrix
from .csr import CSRMatrix
from .types import INDEX_DTYPE


def _check_perm(perm: np.ndarray, n: int, name: str) -> np.ndarray:
    perm = np.asarray(perm, dtype=INDEX_DTYPE).reshape(-1)
    if len(perm) != n:
        raise SparseFormatError(f"{name} has length {len(perm)}, expected {n}")
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    if not seen.all():
        raise SparseFormatError(f"{name} is not a permutation of 0..{n-1}")
    return perm


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Inverse permutation: ``inv[perm[i]] = i``."""
    perm = np.asarray(perm, dtype=INDEX_DTYPE)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=INDEX_DTYPE)
    return inv


def permute(a: CSRMatrix, row_perm=None, col_perm=None) -> CSRMatrix:
    """Return ``P A Q`` where rows move by ``row_perm`` and columns by ``col_perm``.

    Convention: ``row_perm[new_row] = old_row`` and
    ``col_perm[new_col] = old_col`` (i.e. the permutation arrays *gather*
    from the original matrix — the same convention scipy's ``A[p][:, q]``
    fancy-indexing uses).
    """
    rows = a.row_ids_of_entries()
    cols = a.indices.copy()
    if row_perm is not None:
        row_perm = _check_perm(row_perm, a.n_rows, "row_perm")
        rows = invert_permutation(row_perm)[rows]
    if col_perm is not None:
        col_perm = _check_perm(col_perm, a.n_cols, "col_perm")
        cols = invert_permutation(col_perm)[cols]
    return COOMatrix(a.n_rows, a.n_cols, rows, cols, a.data.copy()).to_csr()


def residual_norm(a: CSRMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """Relative residual ``||Ax - b|| / ||b||`` (2-norm)."""
    r = a.matvec(x) - np.asarray(b).reshape(-1)
    denom = float(np.linalg.norm(b))
    return float(np.linalg.norm(r)) / (denom if denom else 1.0)
