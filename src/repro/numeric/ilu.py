"""Incomplete LU factorization with zero fill (ILU(0)).

The cheap sibling of the exact factorization: eliminate on the matrix's
*own* pattern, dropping every update that would land on a structural zero.
The result is not ``A = L U`` but a preconditioner ``M = L U ~ A`` whose
application (two triangular solves) makes Krylov methods converge fast —
the standard fallback when a full factorization is too expensive or too
memory-hungry (e.g. before the paper's out-of-core scheme existed, matrices
whose symbolic phase could not run on the GPU at all).
"""

from __future__ import annotations

import numpy as np

from ..errors import SingularMatrixError
from ..sparse import CSRMatrix
from .rightlooking import extract_lu


def ilu0(a: CSRMatrix, *, pivot_tolerance: float = 0.0):
    """ILU(0) factors of square ``a``: returns unit-lower ``L`` and upper
    ``U`` in CSC, with ``nnz(L) + nnz(U) - n == nnz(A)`` (zero fill).

    Row-wise IKJ elimination restricted to A's pattern; raises
    :class:`SingularMatrixError` on a (numerically) zero pivot.  ``a``
    must have a full structural diagonal.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("ilu0 requires a square matrix")
    if not a.has_full_diagonal():
        raise SingularMatrixError(-1, 0.0)
    n = a.n_rows
    indptr = a.indptr
    indices = a.indices
    data = a.data.astype(np.float64, copy=True)
    # diagonal positions for O(1) pivot access
    diag_pos = np.empty(n, dtype=np.int64)
    for i in range(n):
        s, e = int(indptr[i]), int(indptr[i + 1])
        p = s + int(np.searchsorted(indices[s:e], i))
        diag_pos[i] = p

    for i in range(n):
        s, e = int(indptr[i]), int(indptr[i + 1])
        row_cols = indices[s:e]
        # eliminate with every k < i present in row i, ascending
        for pos_k in range(s, int(diag_pos[i])):
            k = int(indices[pos_k])
            piv = data[diag_pos[k]]
            if piv == 0.0 or abs(piv) <= pivot_tolerance:
                raise SingularMatrixError(k, float(piv))
            lik = data[pos_k] / piv
            data[pos_k] = lik
            # row_i[j] -= lik * row_k[j] for j > k, only where row_i has j
            ks, ke = int(indptr[k]), int(indptr[k + 1])
            k_cols = indices[ks:ke]
            upper = k_cols > k
            if not upper.any():
                continue
            kj = k_cols[upper]
            kv = data[ks:ke][upper]
            # positions of kj within row i (if present)
            pos = np.searchsorted(row_cols, kj)
            valid = (pos < len(row_cols)) & (row_cols[np.minimum(
                pos, len(row_cols) - 1)] == kj)
            if valid.any():
                tgt = s + pos[valid]
                data[tgt] -= lik * kv[valid]
        if data[diag_pos[i]] == 0.0 or abs(
            data[diag_pos[i]]
        ) <= pivot_tolerance:
            raise SingularMatrixError(i, float(data[diag_pos[i]]))

    factored = CSRMatrix(
        n, n, indptr.copy(), indices.copy(), data, check=False
    ).to_csc()
    return extract_lu(factored)


def ilu0_preconditioner(a: CSRMatrix, **kw):
    """Bind ILU(0) factors into an ``apply(r) -> z ~ A^-1 r`` callable."""
    from .trisolve import solve_plan

    L, U = ilu0(a, **kw)
    plan = solve_plan(L, U)

    def apply(r: np.ndarray) -> np.ndarray:
        return plan.solve(L, U, r)

    return apply
