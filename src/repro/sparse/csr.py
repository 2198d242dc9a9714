"""Compressed Sparse Row (CSR) matrix.

CSR is the format the symbolic phase traverses: ``row(i)`` adjacency is a
contiguous slice, which is what the fill2 frontier expansion reads
(Algorithm 1 iterates ``A(frontier, :)``).
"""

from __future__ import annotations

import numpy as np

from ._compressed import CompressedMatrix
from .types import INDEX_DTYPE


class CSRMatrix(CompressedMatrix):
    """Sparse matrix with compressed rows and sorted column indices."""

    _major_is_row = True

    # -- row access (aliases of the major-axis helpers) ------------------
    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(column_indices, values)`` views of row ``i``."""
        return self.major_slice(i)

    def row_nnz(self) -> np.ndarray:
        return self.major_nnz()

    def row_ids_of_entries(self) -> np.ndarray:
        return self.major_ids_of_entries()

    # -- conversions ------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        dense = np.asarray(dense)
        n_rows, n_cols = dense.shape
        mask = dense != 0
        counts = mask.sum(axis=1)
        indptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        rows, cols = np.nonzero(dense)
        return cls(n_rows, n_cols, indptr, cols, dense[rows, cols], check=False)

    @classmethod
    def identity(cls, n: int, dtype=np.float64) -> "CSRMatrix":
        idx = np.arange(n, dtype=INDEX_DTYPE)
        return cls(
            n, n, np.arange(n + 1, dtype=INDEX_DTYPE), idx, np.ones(n, dtype=dtype),
            check=False,
        )

    def to_csc(self):
        from .convert import csr_to_csc

        return csr_to_csc(self)

    def to_coo(self):
        from .coo import COOMatrix

        return COOMatrix(
            self.n_rows,
            self.n_cols,
            self.row_ids_of_entries(),
            self.indices.copy(),
            self.data.copy(),
        )

    def transpose(self) -> "CSRMatrix":
        """Transpose; returns a CSR of the transposed matrix."""
        # CSR of A^T has the same arrays as CSC of A.
        csc = self.to_csc()
        return CSRMatrix(
            self.n_cols, self.n_rows, csc.indptr, csc.indices, csc.data, check=False
        )

    # -- numeric helpers ---------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x`` (vectorized segment sums)."""
        x = np.asarray(x).reshape(-1)
        if len(x) != self.n_cols:
            raise ValueError(f"dimension mismatch: {self.n_cols} vs {len(x)}")
        products = self.data * x[self.indices]
        out = np.zeros(self.n_rows, dtype=np.result_type(self.data, x))
        np.add.at(out, self.row_ids_of_entries(), products)
        return out
