"""Save / load sparse matrices and LU factors as ``.npz`` archives.

Circuit flows analyze once and reuse the structure across runs; persisting
matrices and factors avoids re-running symbolic analysis between sessions.
The format is plain numpy ``.npz`` with a small schema header, so archives
are portable and inspectable.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import SparseFormatError
from .csc import CSCMatrix
from .csr import CSRMatrix

_SCHEMA_MATRIX = "repro-matrix-v1"
_SCHEMA_FACTORS = "repro-factors-v1"


def save_matrix(path, m) -> None:
    """Write a CSR/CSC matrix to ``path`` (.npz)."""
    fmt = "csr" if isinstance(m, CSRMatrix) else (
        "csc" if isinstance(m, CSCMatrix) else None
    )
    if fmt is None:
        raise TypeError(f"cannot serialize {type(m)!r}")
    np.savez_compressed(
        Path(path),
        schema=np.array(_SCHEMA_MATRIX),
        fmt=np.array(fmt),
        shape=np.array(m.shape, dtype=np.int64),
        indptr=m.indptr,
        indices=m.indices,
        data=m.data,
    )


def load_matrix(path):
    """Read a matrix written by :func:`save_matrix`."""
    with np.load(Path(path), allow_pickle=False) as z:
        if str(z["schema"]) != _SCHEMA_MATRIX:
            raise SparseFormatError(
                f"not a repro matrix archive: {path}"
            )
        cls = CSRMatrix if str(z["fmt"]) == "csr" else CSCMatrix
        n_rows, n_cols = (int(x) for x in z["shape"])
        return cls(n_rows, n_cols, z["indptr"], z["indices"], z["data"])


def save_factors(path, L: CSCMatrix, U: CSCMatrix, *, row_perm=None,
                 col_perm=None) -> None:
    """Persist LU factors plus the permutations needed at solve time."""
    n = L.n_rows
    payload = {
        "schema": np.array(_SCHEMA_FACTORS),
        "n": np.array(n, dtype=np.int64),
        "L_indptr": L.indptr, "L_indices": L.indices, "L_data": L.data,
        "U_indptr": U.indptr, "U_indices": U.indices, "U_data": U.data,
    }
    for name, arr in (("row_perm", row_perm), ("col_perm", col_perm)):
        if arr is not None:
            payload[name] = np.asarray(arr)
    np.savez_compressed(Path(path), **payload)


def load_factors(path):
    """Load factors; returns ``(L, U, transforms_dict)``.

    ``transforms_dict`` holds whichever of ``row_perm`` / ``col_perm``
    were saved, ready to splat into
    :func:`repro.numeric.lu_solve_permuted`.
    """
    with np.load(Path(path), allow_pickle=False) as z:
        if str(z["schema"]) != _SCHEMA_FACTORS:
            raise SparseFormatError(f"not a repro factors archive: {path}")
        n = int(z["n"])
        L = CSCMatrix(n, n, z["L_indptr"], z["L_indices"], z["L_data"])
        U = CSCMatrix(n, n, z["U_indptr"], z["U_indices"], z["U_data"])
        transforms = {
            k: z[k]
            for k in ("row_perm", "col_perm")
            if k in z
        }
        return L, U, transforms
