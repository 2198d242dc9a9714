"""Sparse-matrix substrate: containers, conversions, I/O and pattern tools.

Everything here is implemented from scratch on numpy arrays (scipy is used
only in tests as an independent oracle).  The three containers —
:class:`COOMatrix`, :class:`CSRMatrix`, :class:`CSCMatrix` — are the data
model the whole library builds on: the symbolic phase traverses CSR rows,
the numeric phase updates sorted CSC columns (sortedness is what makes the
paper's binary-search access, Algorithm 6, possible).
"""

from .coo import COOMatrix
from .csr import CSRMatrix
from .csc import CSCMatrix
from .convert import (
    coo_to_csr,
    coo_to_csc,
    csr_to_csc,
    csc_to_csr,
    from_scipy,
    to_scipy_csc,
    to_scipy_csr,
)
from .io import read_matrix_market, write_matrix_market
from .serialize import load_factors, load_matrix, save_factors, save_matrix
from .ops import invert_permutation, permute, residual_norm
from .pattern import (
    PatternStats,
    ensure_diagonal,
    lower_pattern_csr,
    pattern_stats,
    replace_zero_diagonal,
    split_lu_pattern,
    upper_pattern_csr,
)
from .types import INDEX_DTYPE, PAPER_VALUE_DTYPE, VALUE_DTYPE

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "coo_to_csc",
    "csr_to_csc",
    "csc_to_csr",
    "from_scipy",
    "to_scipy_csr",
    "to_scipy_csc",
    "read_matrix_market",
    "write_matrix_market",
    "save_matrix",
    "load_matrix",
    "save_factors",
    "load_factors",
    "permute",
    "invert_permutation",
    "residual_norm",
    "PatternStats",
    "pattern_stats",
    "split_lu_pattern",
    "lower_pattern_csr",
    "upper_pattern_csr",
    "ensure_diagonal",
    "replace_zero_diagonal",
    "INDEX_DTYPE",
    "VALUE_DTYPE",
    "PAPER_VALUE_DTYPE",
]
