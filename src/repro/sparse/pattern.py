"""Structural (pattern-only) utilities.

The symbolic phase works on patterns, not values; these helpers compute the
structural statistics that the paper's matrix tables report (nnz, nnz/n,
structural symmetry) and split filled patterns into the L and U parts that
the numeric phase consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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


@dataclass(frozen=True, eq=False)
class LUSplit:
    """Structure of the L/U split of one sorted-CSC pattern.

    Both factors' ``indptr``/``indices`` plus the source of each of
    their entries, all read-only, so that splitting new values on the
    same pattern (:meth:`apply`) is a value gather.  Rows are sorted
    within each column, so column ``j``'s ``U`` part is the prefix with
    ``row <= j`` and its ``L`` part the suffix, behind a unit diagonal.
    The sources are two masks over the entries: ``upper`` picks ``U``'s,
    and ``lower`` picks the strictly-lower ones plus each column's last
    ``U`` entry, whose slot ``L``'s unit diagonal takes.  Only a column
    with no ``U`` entry has no such slot; ``insert`` lists where, in the
    gathered ``L`` values, those columns' diagonals go.
    """

    l_indptr: np.ndarray
    l_indices: np.ndarray
    u_indptr: np.ndarray
    u_indices: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    insert: np.ndarray

    @classmethod
    def of(cls, indptr: np.ndarray, indices: np.ndarray) -> LUSplit:
        """The split structure of the square sorted-CSC pattern
        ``(indptr, indices)``."""
        n = len(indptr) - 1
        rows = indices
        cols = np.repeat(np.arange(n, dtype=INDEX_DTYPE), np.diff(indptr))
        upper = rows <= cols
        u_cnt = np.bincount(cols[upper], minlength=n)
        u_indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(u_cnt, out=u_indptr[1:])
        # column j of L: its unit diagonal, then the strictly-lower suffix
        l_indptr = indptr - u_indptr + np.arange(n + 1, dtype=INDEX_DTYPE)
        off_diag = np.ones(int(l_indptr[-1]), dtype=bool)
        off_diag[l_indptr[:-1]] = False
        l_indices = np.empty(len(off_diag), dtype=INDEX_DTYPE)
        l_indices[~off_diag] = np.arange(n, dtype=INDEX_DTYPE)
        lower = ~upper
        l_indices[off_diag] = rows[lower]
        has_u = u_cnt > 0
        lower[(indptr[:-1] + u_cnt - 1)[has_u]] = True
        empty = np.flatnonzero(~has_u)
        insert = l_indptr[empty] - np.arange(len(empty), dtype=INDEX_DTYPE)
        arrays = (
            l_indptr, l_indices, u_indptr, rows[upper], upper, lower, insert
        )
        for arr in arrays:
            arr.setflags(write=False)
        return cls(*arrays)

    @property
    def nbytes(self) -> int:
        """Bytes held by the structure's arrays."""
        return sum(int(getattr(self, f.name).nbytes) for f in fields(self))

    def apply(self, data: np.ndarray) -> tuple[CSCMatrix, CSCMatrix]:
        """``(L, U)`` of the values ``data`` of the split pattern.

        Values are carried over with ``+ 0``, which stores ``-0.0`` as
        ``+0.0`` exactly as the summing conversion of a coordinate-list
        split does, so the output is bitwise that split's.
        """
        n = len(self.l_indptr) - 1
        u_data = data[self.upper]
        u_data += 0
        l_data = data[self.lower]
        if len(self.insert):
            l_data = np.insert(l_data, self.insert, 1)
        l_data[self.l_indptr[:-1]] = 1
        l_data += 0
        L = CSCMatrix(
            n, n, self.l_indptr, self.l_indices, l_data, check=False
        )
        U = CSCMatrix(
            n, n, self.u_indptr, self.u_indices, u_data, check=False
        )
        return L, U


def split_lu_csc(
    a: CSCMatrix, split: LUSplit | None = None
) -> tuple[CSCMatrix, CSCMatrix]:
    """Split a sorted-CSC ``a`` into unit-lower ``L`` and upper ``U`` CSC.

    ``U`` receives the diagonal and strictly-upper entries, ``L`` the
    strictly-lower entries behind an explicit unit diagonal (value 1).
    ``split`` is the structure of ``a``'s pattern (:class:`LUSplit`),
    which a caller that splits one pattern many times keeps; without it
    the structure is built for this call.
    """
    if split is None:
        split = LUSplit.of(a.indptr, a.indices)
    return split.apply(a.data)


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
