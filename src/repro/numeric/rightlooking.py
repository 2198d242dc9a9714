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

The function counts the exact flops and (optionally) binary-search probe
steps it performs; the GPU executor (:mod:`repro.core.numeric_gpu`) replays
these counts through the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SingularMatrixError, SparseFormatError
from ..graph import LevelSchedule
from ..sparse import CSCMatrix, CSRMatrix


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


def factorize_in_place(
    As: CSCMatrix,
    row_adjacency: CSRMatrix,
    schedule: LevelSchedule,
    *,
    pivot_tolerance: float = 0.0,
    count_search_steps: bool = False,
    pivot_perturbation: float = 0.0,
    slow: bool = False,
) -> NumericStats:
    """Run Algorithm 2 in place on the filled CSC matrix ``As``.

    Parameters
    ----------
    As:
        Filled matrix (original values + explicit zeros at fill positions).
        Modified in place: on return the strictly-lower part holds ``L``
        (unit diagonal implicit) and the upper part holds ``U``.
    row_adjacency:
        CSR view of the *same* filled pattern, used to enumerate the
        sub-columns of each column (row ``j``'s upper entries).
    schedule:
        Level schedule from levelization; columns are processed level by
        level in the given order.
    pivot_tolerance:
        Pivots with ``|pivot| <= pivot_tolerance`` raise
        :class:`~repro.errors.SingularMatrixError`.
    count_search_steps:
        When true, also accumulate the binary-search probe count a sorted-CSC
        kernel (Algorithm 6) would execute for each searched access.
    pivot_perturbation:
        When positive, a numerically zero/tiny pivot is *replaced* by
        ``±pivot_perturbation`` (keeping the pivot's sign; ``+`` for an
        exact zero) instead of raising — static pivot perturbation in the
        SuperLU_DIST tradition.  Perturbed columns are recorded in
        :attr:`NumericStats.perturbed_columns`; the caller is expected to
        follow up with iterative refinement.  A *structurally* missing
        pivot still raises: no perturbation fixes an absent diagonal.
    slow:
        When true, run the original scalar per-column/per-update loop
        instead of the vectorized per-level kernel
        (:func:`repro.numeric.vectorized.factorize_in_place_fast`).
        Both produce bitwise-identical factors, identical
        :class:`NumericStats` (including ``per_level`` and
        ``perturbed_columns``) and identical error behaviour — the
        scalar path is kept as the readable oracle the equivalence
        tests compare against.
    """
    if not slow:
        from .vectorized import factorize_in_place_fast

        return factorize_in_place_fast(
            As,
            row_adjacency,
            schedule,
            pivot_tolerance=pivot_tolerance,
            count_search_steps=count_search_steps,
            pivot_perturbation=pivot_perturbation,
        )
    indptr, indices, data = As.indptr, As.indices, As.data
    stats = NumericStats()

    for level_cols in schedule.levels:
        level_flops = 0
        level_updates = 0
        level_search = 0
        for j_ in level_cols:
            j = int(j_)
            s, e = int(indptr[j]), int(indptr[j + 1])
            rows_j = indices[s:e]
            vals_j = data[s:e]
            dpos = int(np.searchsorted(rows_j, j))
            if dpos >= len(rows_j) or rows_j[dpos] != j:
                raise SingularMatrixError(j)  # structurally missing pivot
            pivot = float(vals_j[dpos])
            if abs(pivot) <= pivot_tolerance:
                if pivot_perturbation <= 0.0:
                    raise SingularMatrixError(j, pivot)
                pivot = (
                    -pivot_perturbation if pivot < 0.0 else pivot_perturbation
                )
                vals_j[dpos] = pivot
                stats.perturbed_columns.append(j)
            below = slice(dpos + 1, len(rows_j))
            sub_rows = rows_j[below]
            if len(sub_rows):
                vals_j[below] /= pivot
                stats.div_flops += len(sub_rows)
                level_flops += len(sub_rows)
            l_vals = vals_j[below]

            # sub-columns: k > j with As(j, k) != 0 — row j of the pattern
            rj_cols, _ = row_adjacency.row(j)
            sub_cols = rj_cols[rj_cols > j]
            for k_ in sub_cols:
                k = int(k_)
                ks, ke = int(indptr[k]), int(indptr[k + 1])
                rows_k = indices[ks:ke]
                # As(j, k): the multiplier from row j of U
                pj = int(np.searchsorted(rows_k, j))
                if pj >= len(rows_k) or rows_k[pj] != j:
                    raise SparseFormatError(
                        "symbolic pattern is missing U entry "
                        f"({j}, {k}) — filled pattern is inconsistent"
                    )
                ujk = data[ks + pj]
                if len(sub_rows):
                    pos = np.searchsorted(rows_k, sub_rows)
                    # a row past the column's end clips onto its last
                    # (smaller) row, so it reads as missing too
                    last = len(rows_k) - 1
                    if not np.all(rows_k[np.minimum(pos, last)] == sub_rows):
                        raise SparseFormatError(
                            f"fill positions missing in column {k}"
                        )
                    data[ks:ke][pos] -= l_vals * ujk
                    stats.update_flops += 2 * len(sub_rows)
                    level_flops += 2 * len(sub_rows)
                    if count_search_steps:
                        steps = len(sub_rows) * max(
                            1, int(np.ceil(np.log2(max(2, len(rows_k)))))
                        )
                        stats.search_steps += steps
                        level_search += steps
                stats.sub_column_updates += 1
                level_updates += 1
            stats.columns += 1
        stats.per_level.append(
            (level_flops, len(level_cols), level_updates, level_search)
        )
    return stats


def extract_lu(As: CSCMatrix) -> tuple[CSCMatrix, CSCMatrix]:
    """Split a factorized ``As`` into unit-lower ``L`` and upper ``U`` (CSC)."""
    from ..sparse import COOMatrix
    from ..sparse.types import INDEX_DTYPE

    n = As.n_cols
    rows = As.indices
    cols = As.col_ids_of_entries()
    lower = rows > cols
    upper = ~lower
    l_rows = np.concatenate([rows[lower], np.arange(n, dtype=INDEX_DTYPE)])
    l_cols = np.concatenate([cols[lower], np.arange(n, dtype=INDEX_DTYPE)])
    l_data = np.concatenate([As.data[lower], np.ones(n, dtype=As.data.dtype)])
    L = COOMatrix(n, n, l_rows, l_cols, l_data).to_csc()
    U = COOMatrix(n, n, rows[upper], cols[upper], As.data[upper]).to_csc()
    return L, U
