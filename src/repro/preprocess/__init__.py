"""Pre-processing: the checks and the row permutation applied before
factorization.

The paper (like GLU/KLU/SuperLU) treats this stage as given; we implement
the components the end-to-end solver needs from scratch: zero-free
diagonal matching and the block triangular form used by the BTF solver.
"""

from .btf import (
    BTFResult,
    block_triangular_form,
    strongly_connected_components,
)
from .matching import maximum_matching, zero_free_diagonal_permutation
from .pipeline import PreprocessResult, preprocess, require_finite

__all__ = [
    "BTFResult",
    "block_triangular_form",
    "strongly_connected_components",
    "maximum_matching",
    "zero_free_diagonal_permutation",
    "preprocess",
    "require_finite",
    "PreprocessResult",
]
