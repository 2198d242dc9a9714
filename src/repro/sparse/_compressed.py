"""Shared machinery for the compressed sparse containers (CSR/CSC).

Both formats hold the classic three-array layout::

    indptr   -- length (n_compressed + 1), monotone non-decreasing
    indices  -- minor-axis index of every stored entry
    data     -- value of every stored entry

CSR compresses rows (minor axis = columns); CSC compresses columns (minor
axis = rows).  All invariants the factorization kernels rely on — in-range
indices, *sorted* minor indices within each major slice (Algorithm 6's binary
search requires sorted CSC), no duplicates — are enforced here once.
"""

from __future__ import annotations

import numpy as np

from ..errors import SparseFormatError
from .types import INDEX_DTYPE, as_index_array, as_value_array


class CompressedMatrix:
    """Base class implementing the compressed three-array storage.

    Subclasses set :attr:`_major_is_row` and provide format-specific
    conversion helpers.  The class is not meant to be instantiated directly.
    """

    _major_is_row: bool = True  # overridden by CSC

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        indptr,
        indices,
        data,
        *,
        check: bool = True,
        sort: bool = False,
    ) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = as_index_array(indptr)
        self.indices = as_index_array(indices)
        self.data = as_value_array(data, dtype=getattr(data, "dtype", None))
        if sort:
            self._sort_indices_inplace()
        if check:
            self.validate()

    # -- axis helpers ---------------------------------------------------
    @property
    def n_major(self) -> int:
        return self.n_rows if self._major_is_row else self.n_cols

    @property
    def n_minor(self) -> int:
        return self.n_cols if self._major_is_row else self.n_rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    # -- invariants -----------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`SparseFormatError` unless all invariants hold."""
        ip = self.indptr
        if len(ip) != self.n_major + 1:
            raise SparseFormatError(
                f"indptr length {len(ip)} != n_major+1 = {self.n_major + 1}"
            )
        if ip[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if np.any(np.diff(ip) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if int(ip[-1]) != len(self.indices) or len(self.indices) != len(self.data):
            raise SparseFormatError(
                "indices/data length must equal indptr[-1]: "
                f"{len(self.indices)}/{len(self.data)} vs {int(ip[-1])}"
            )
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= self.n_minor:
                raise SparseFormatError("minor index out of range")
        # sorted, duplicate-free minor indices within each major slice
        if len(self.indices) > 1:
            d = np.diff(self.indices)
            # boundaries between major slices may legitimately decrease
            boundary = np.zeros(len(d), dtype=bool)
            starts = ip[1:-1]  # positions where a new slice begins
            inner = starts[(starts > 0) & (starts < len(self.indices))] - 1
            boundary[inner.astype(np.int64)] = True
            bad = (d <= 0) & ~boundary
            if np.any(bad):
                raise SparseFormatError(
                    "minor indices must be strictly increasing within each "
                    "major slice (sorted, no duplicates)"
                )

    def _sort_indices_inplace(self) -> None:
        """Sort minor indices (and data) within each major slice."""
        ip = self.indptr
        for m in range(self.n_major):
            s, e = int(ip[m]), int(ip[m + 1])
            if e - s > 1:
                seg = self.indices[s:e]
                if np.any(seg[1:] < seg[:-1]):
                    order = np.argsort(seg, kind="stable")
                    self.indices[s:e] = seg[order]
                    self.data[s:e] = self.data[s:e][order]

    # -- access ---------------------------------------------------------
    def major_slice(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(minor_indices, values)`` views for major index ``m``."""
        s, e = int(self.indptr[m]), int(self.indptr[m + 1])
        return self.indices[s:e], self.data[s:e]

    def major_nnz(self) -> np.ndarray:
        """Number of stored entries in each major slice."""
        return np.diff(self.indptr)

    def get(self, i: int, j: int) -> float:
        """Value at ``(i, j)`` (0 if not stored).  Binary search, O(log nnz_slice)."""
        major, minor = (i, j) if self._major_is_row else (j, i)
        s, e = int(self.indptr[major]), int(self.indptr[major + 1])
        pos = s + int(np.searchsorted(self.indices[s:e], minor))
        if pos < e and int(self.indices[pos]) == minor:
            return self.data[pos].item()
        return 0.0

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        major_of_entry = np.repeat(
            np.arange(self.n_major, dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        if self._major_is_row:
            out[major_of_entry, self.indices] = self.data
        else:
            out[self.indices, major_of_entry] = self.data
        return out

    def major_ids_of_entries(self) -> np.ndarray:
        """Expanded major index of every stored entry (length nnz)."""
        return np.repeat(
            np.arange(self.n_major, dtype=INDEX_DTYPE), np.diff(self.indptr)
        )

    def diagonal_positions(self) -> np.ndarray:
        """Position in ``data`` of each diagonal entry, -1 where absent."""
        pos = np.full(min(self.n_rows, self.n_cols), -1, dtype=INDEX_DTYPE)
        on = np.flatnonzero(self.indices == self.major_ids_of_entries())
        pos[self.indices[on]] = on
        return pos

    def diagonal(self) -> np.ndarray:
        """Stored diagonal values (0 where the diagonal is not stored)."""
        pos = self.diagonal_positions()
        out = np.zeros(len(pos), dtype=self.data.dtype)
        out[pos >= 0] = self.data[pos[pos >= 0]]
        return out

    def has_full_diagonal(self) -> bool:
        """True when every diagonal position is structurally present."""
        return bool(np.all(self.diagonal_positions() >= 0))

    def copy(self):
        return type(self)(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            check=False,
        )

    def astype(self, dtype):
        return type(self)(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.astype(dtype),
            check=False,
        )

    # -- comparison helpers (mainly for tests) ---------------------------
    def same_pattern(self, other: "CompressedMatrix") -> bool:
        """True when both matrices store exactly the same positions."""
        return (
            type(self) is type(other)
            and self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def allclose(self, other: "CompressedMatrix", rtol=1e-10, atol=1e-12) -> bool:
        """True when patterns match and values agree to tolerance."""
        return self.same_pattern(other) and np.allclose(
            self.data, other.data, rtol=rtol, atol=atol
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fmt = "CSR" if self._major_is_row else "CSC"
        return (
            f"<{fmt} {self.n_rows}x{self.n_cols}, nnz={self.nnz}, "
            f"dtype={self.data.dtype}>"
        )

    # memory accounting used by the GPU simulator
    def nbytes(self) -> int:
        """Total bytes of the three arrays (what a device copy would cost)."""
        return int(self.indptr.nbytes + self.indices.nbytes + self.data.nbytes)
