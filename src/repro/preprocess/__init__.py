"""Pre-processing: the checks and the row permutation applied before
factorization.

The paper (like GLU/KLU/SuperLU) treats this stage as given; we implement
the one component the end-to-end solver needs from scratch: zero-free
diagonal matching, applied when the diagonal has a structural zero.
"""

from .matching import maximum_matching, zero_free_diagonal_permutation
from .pipeline import PreprocessResult, preprocess, require_finite

__all__ = [
    "maximum_matching",
    "zero_free_diagonal_permutation",
    "preprocess",
    "require_finite",
    "PreprocessResult",
]
