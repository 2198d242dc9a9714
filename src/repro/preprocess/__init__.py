"""Pre-processing: permutations and scalings applied before factorization.

The paper (like GLU/KLU/SuperLU) treats this stage as given; we implement
the standard components from scratch so the end-to-end solver is complete:
zero-free diagonal matching, RCM and minimum-degree orderings,
equilibration, and static pivot boosting.
"""

from .btf import (
    BTFResult,
    block_triangular_form,
    strongly_connected_components,
)
from .matching import maximum_matching, zero_free_diagonal_permutation
from .mindegree import fill_in_count, minimum_degree_ordering
from .pipeline import (
    PreprocessOptions,
    PreprocessResult,
    preprocess,
    require_finite,
)
from .rcm import bandwidth_of, rcm_ordering
from .scaling import Equilibration, boost_small_pivots, equilibrate

__all__ = [
    "BTFResult",
    "block_triangular_form",
    "strongly_connected_components",
    "maximum_matching",
    "zero_free_diagonal_permutation",
    "minimum_degree_ordering",
    "fill_in_count",
    "rcm_ordering",
    "bandwidth_of",
    "equilibrate",
    "boost_small_pivots",
    "Equilibration",
    "preprocess",
    "require_finite",
    "PreprocessOptions",
    "PreprocessResult",
]
