"""Compressed Sparse Column (CSC) matrix.

CSC is the working format of the numeric phase: the hybrid column-based
right-looking algorithm (Algorithm 2) reads and updates columns, and the
paper's large-matrix optimization (Algorithm 6) binary-searches *sorted* CSC
row indices — the sortedness invariant is enforced by the shared base class.
"""

from __future__ import annotations

import numpy as np

from ._compressed import CompressedMatrix
from .types import INDEX_DTYPE


class CSCMatrix(CompressedMatrix):
    """Sparse matrix with compressed columns and sorted row indices."""

    _major_is_row = False

    # -- column access ------------------------------------------------------
    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """``(row_indices, values)`` views of column ``j``."""
        return self.major_slice(j)

    def col_nnz(self) -> np.ndarray:
        return self.major_nnz()

    def col_ids_of_entries(self) -> np.ndarray:
        return self.major_ids_of_entries()

    # -- conversions ----------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        dense = np.asarray(dense)
        n_rows, n_cols = dense.shape
        mask = dense != 0
        counts = mask.sum(axis=0)
        indptr = np.zeros(n_cols + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        # column-major walk of the nonzeros
        cols, rows = np.nonzero(dense.T)
        return cls(n_rows, n_cols, indptr, rows, dense[rows, cols], check=False)

    @classmethod
    def identity(cls, n: int, dtype=np.float64) -> "CSCMatrix":
        idx = np.arange(n, dtype=INDEX_DTYPE)
        return cls(
            n, n, np.arange(n + 1, dtype=INDEX_DTYPE), idx, np.ones(n, dtype=dtype),
            check=False,
        )

    def to_csr(self):
        from .convert import csc_to_csr

        return csc_to_csr(self)

    def to_coo(self):
        from .coo import COOMatrix

        return COOMatrix(
            self.n_rows,
            self.n_cols,
            self.indices.copy(),
            self.col_ids_of_entries(),
            self.data.copy(),
        )

    def transpose(self) -> "CSCMatrix":
        csr = self.to_csr()
        return CSCMatrix(
            self.n_cols, self.n_rows, csr.indptr, csr.indices, csr.data, check=False
        )

    # -- numeric helpers -------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` by scattering scaled columns."""
        x = np.asarray(x).reshape(-1)
        if len(x) != self.n_cols:
            raise ValueError(f"dimension mismatch: {self.n_cols} vs {len(x)}")
        scale = x[self.col_ids_of_entries()]
        out = np.zeros(self.n_rows, dtype=np.result_type(self.data, x))
        np.add.at(out, self.indices, self.data * scale)
        return out

    def entry_position(self, i: int, j: int) -> int:
        """Binary-search position of entry ``(i, j)`` in ``indices``/``data``.

        Returns -1 when the entry is not stored.  This is the access pattern
        of Algorithm 6 — the GPU kernel version lives in
        :mod:`repro.core.numeric_gpu` where the search steps are also charged
        to the cost model.
        """
        s, e = int(self.indptr[j]), int(self.indptr[j + 1])
        pos = s + int(np.searchsorted(self.indices[s:e], i))
        if pos < e and int(self.indices[pos]) == i:
            return pos
        return -1
