"""Structural (pattern-only) utilities.

The symbolic phase works on patterns, not values; these helpers compute the
structural statistics that the paper's matrix tables report (nnz, nnz/n,
structural symmetry) and split filled patterns into the L and U parts that
the numeric phase consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRMatrix
from .csc import CSCMatrix
from .types import INDEX_DTYPE


@dataclass(frozen=True)
class PatternStats:
    """Structural statistics of a square sparse matrix (cf. Table 2)."""

    n: int
    nnz: int
    nnz_per_row: float
    structural_symmetry: float  # fraction of entries whose mirror exists
    bandwidth: int
    full_diagonal: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.n} nnz={self.nnz} nnz/n={self.nnz_per_row:.1f} "
            f"sym={self.structural_symmetry:.2f} bw={self.bandwidth} "
            f"diag={'full' if self.full_diagonal else 'deficient'}"
        )


def pattern_stats(a: CSRMatrix) -> PatternStats:
    """Compute :class:`PatternStats` for a square CSR matrix."""
    n = a.n_rows
    rows = a.row_ids_of_entries()
    cols = a.indices
    if a.nnz:
        bandwidth = int(np.max(np.abs(rows - cols)))
        fwd = set(zip(rows.tolist(), cols.tolist()))
        mirrored = sum((c, r) in fwd for r, c in fwd)
        symmetry = mirrored / len(fwd)
    else:
        bandwidth = 0
        symmetry = 1.0
    return PatternStats(
        n=n,
        nnz=a.nnz,
        nnz_per_row=a.nnz / max(n, 1),
        structural_symmetry=symmetry,
        bandwidth=bandwidth,
        full_diagonal=a.has_full_diagonal(),
    )


def split_lu_csc(a: CSCMatrix) -> tuple[CSCMatrix, CSCMatrix]:
    """Split a sorted-CSC ``a`` into unit-lower ``L`` and upper ``U`` CSC.

    ``U`` receives the diagonal and strictly-upper entries, ``L`` the
    strictly-lower entries behind an explicit unit diagonal (value 1).
    Rows are sorted within each column, so column ``j``'s ``U`` part is
    the prefix with ``row <= j`` and its ``L`` part the suffix: two
    boolean selections and one placement of the diagonal replace the
    sort of a coordinate-list split.  Values are carried over with
    ``+ 0``, which stores ``-0.0`` as ``+0.0`` exactly as the summing
    conversion of that split did, so the output is bitwise the same.
    """
    n = a.n_cols
    rows = a.indices
    cols = a.col_ids_of_entries()
    upper = rows <= cols
    lower = ~upper

    u_indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(cols[upper], minlength=n), out=u_indptr[1:])
    U = CSCMatrix(n, n, u_indptr, rows[upper], a.data[upper] + 0, check=False)

    # column j of L: its unit diagonal, then the strictly-lower suffix
    l_indptr = a.indptr - u_indptr + np.arange(n + 1, dtype=INDEX_DTYPE)
    l_nnz = int(l_indptr[-1])
    off_diag = np.ones(l_nnz, dtype=bool)
    off_diag[l_indptr[:-1]] = False
    l_indices = np.empty(l_nnz, dtype=INDEX_DTYPE)
    l_indices[~off_diag] = np.arange(n, dtype=INDEX_DTYPE)
    l_indices[off_diag] = rows[lower]
    l_data = np.ones(l_nnz, dtype=a.data.dtype)
    l_data[off_diag] = a.data[lower] + 0
    L = CSCMatrix(n, n, l_indptr, l_indices, l_data, check=False)
    return L, U


def split_lu_pattern(filled: CSRMatrix) -> tuple[CSCMatrix, CSCMatrix]:
    """Split a filled pattern into unit-lower ``L`` and upper ``U`` CSC.

    The CSR is converted to CSC once and split by :func:`split_lu_csc`.
    Values are carried over unchanged; for a pattern-only input they are
    placeholder values that numeric factorization overwrites.
    """
    return split_lu_csc(filled.to_csc())


def lower_pattern_csr(a: CSRMatrix, *, strict: bool = True) -> CSRMatrix:
    """Pattern of the (strictly) lower-triangular part, CSR."""
    rows = a.row_ids_of_entries()
    keep = rows > a.indices if strict else rows >= a.indices
    return _subset(a, keep)


def upper_pattern_csr(a: CSRMatrix, *, strict: bool = True) -> CSRMatrix:
    """Pattern of the (strictly) upper-triangular part, CSR."""
    rows = a.row_ids_of_entries()
    keep = rows < a.indices if strict else rows <= a.indices
    return _subset(a, keep)


def _subset(a: CSRMatrix, keep: np.ndarray) -> CSRMatrix:
    rows = a.row_ids_of_entries()[keep]
    counts = np.bincount(rows, minlength=a.n_rows)
    indptr = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(
        a.n_rows, a.n_cols, indptr, a.indices[keep], a.data[keep], check=False
    )


def ensure_diagonal(a: CSRMatrix, value: float = 0.0) -> CSRMatrix:
    """Return ``a`` with every diagonal position structurally present.

    Missing diagonal entries are inserted with ``value``.  The paper uses
    this (with value 1000) to make the Table 4 mesh matrices factorizable.
    """
    n = min(a.n_rows, a.n_cols)
    missing: list[int] = []
    for i in range(n):
        cols, _ = a.row(i)
        pos = int(np.searchsorted(cols, i))
        if pos >= len(cols) or cols[pos] != i:
            missing.append(i)
    if not missing:
        return a
    from .coo import COOMatrix

    miss = np.asarray(missing, dtype=INDEX_DTYPE)
    rows = np.concatenate([a.row_ids_of_entries(), miss])
    cols = np.concatenate([a.indices, miss])
    data = np.concatenate(
        [a.data, np.full(len(miss), value, dtype=a.data.dtype)]
    )
    return COOMatrix(a.n_rows, a.n_cols, rows, cols, data).to_csr()


def replace_zero_diagonal(a: CSRMatrix, value: float = 1000.0) -> CSRMatrix:
    """Replace numerically-zero diagonal entries with ``value`` (paper §4.4).

    Also inserts structurally-missing diagonal entries with ``value``.
    """
    out = ensure_diagonal(a, value=value)
    for i in range(min(out.n_rows, out.n_cols)):
        cols, vals = out.row(i)
        pos = int(np.searchsorted(cols, i))
        if pos < len(cols) and cols[pos] == i and vals[pos] == 0:
            vals[pos] = value
    return out
