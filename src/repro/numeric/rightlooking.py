"""Hybrid column-based right-looking numeric factorization (Algorithm 2).

Operates in place on the *filled* matrix ``As`` (CSC, sorted row indices):
for each column ``j`` — scheduled level by level so that independent columns
could run concurrently — first scale the sub-diagonal of column ``j`` by the
pivot, then push updates into every *sub-column* ``k > j`` with
``As(j, k) != 0``:

    As(i, k) -= As(i, j) * As(j, k)    for every i > j with As(i, j) != 0

Symbolic correctness guarantees every target position ``(i, k)`` exists in
the filled pattern; a pattern that breaks this raises
:class:`~repro.errors.SparseFormatError`.

The kernel, :func:`repro.numeric.factorize_in_place`, lives in
:mod:`repro.numeric.vectorized`.  It counts the exact flops and
(optionally) binary-search probe steps it performs in the
:class:`NumericStats` defined here; the GPU executor
(:mod:`repro.core.numeric_gpu`) replays these counts through the cost
model.  :func:`extract_lu` splits the factorized matrix into ``L`` and
``U`` without sorting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sparse import CSCMatrix
from ..sparse.pattern import LUSplit, split_lu_csc


@dataclass
class NumericStats:
    """Work counters of one numeric factorization run."""

    div_flops: int = 0
    update_flops: int = 0
    #: binary-search probe steps (log2(col nnz) per searched access, Alg. 6)
    search_steps: int = 0
    columns: int = 0
    sub_column_updates: int = 0
    #: per-level (flops, #columns, #sub-column updates, #search steps) for
    #: kernel charging by the GPU executor
    per_level: list[tuple[int, int, int, int]] = field(default_factory=list)
    #: columns whose zero/tiny pivot was replaced by the static
    #: perturbation (recovery rung 3; empty on a healthy run)
    perturbed_columns: list[int] = field(default_factory=list)

    @property
    def total_flops(self) -> int:
        return self.div_flops + self.update_flops


def extract_lu(
    As: CSCMatrix, split: LUSplit | None = None
) -> tuple[CSCMatrix, CSCMatrix]:
    """Split a factorized ``As`` into unit-lower ``L`` and upper ``U`` (CSC).

    ``As`` is sorted CSC, so the split needs no sort
    (:func:`repro.sparse.pattern.split_lu_csc`; ``split`` is its
    pattern's kept structure, if any); the coordinate-list split it
    replaced is kept as :func:`repro.oracles.extract_lu`.
    """
    return split_lu_csc(As, split)
