"""Column dependency graph of the numeric factorization (§2.2).

The hybrid column-based right-looking algorithm factorizes column ``j`` only
after every column ``i < j`` with ``U(i, j) != 0`` has been factorized:
column ``j`` is a *sub-column* of ``i``, so the kernel for ``i`` reads and
updates ``j``'s entries.  The dependency graph therefore has one node per
column and a directed edge ``i -> j`` for every strictly-upper nonzero
``U(i, j)`` of the *filled* matrix — the graph of Figure 1(b).

Since every edge goes from a smaller to a larger column id the graph is a
DAG by construction; the cycle check in Kahn's algorithm exists for
robustness against hand-built graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse import CSRMatrix
from ..sparse.types import INDEX_DTYPE


@dataclass(frozen=True)
class DependencyGraph:
    """Forward-star adjacency of the column dependency DAG.

    ``indptr``/``targets`` store, for each column ``i``, the columns that
    depend on it (its sub-columns); ``in_degree[j]`` counts prerequisites of
    column ``j``.
    """

    n: int
    indptr: np.ndarray
    targets: np.ndarray
    in_degree: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    def successors(self, i: int) -> np.ndarray:
        return self.targets[int(self.indptr[i]) : int(self.indptr[i + 1])]

    def validate(self) -> None:
        assert len(self.indptr) == self.n + 1
        assert int(self.indptr[-1]) == len(self.targets)
        assert len(self.in_degree) == self.n
        if len(self.targets):
            assert self.targets.min() >= 0 and self.targets.max() < self.n


def build_dependency_graph(
    filled: CSRMatrix, *, include_l_dependencies: bool = True
) -> DependencyGraph:
    """Build the column DAG from a filled pattern ``As`` (CSR).

    ``U(i, j) != 0`` (i < j) always yields edge ``i -> j`` (the dependency
    the paper states explicitly).  With ``include_l_dependencies`` —
    the default, matching GLU 3.0's full dependency set that the paper
    defers to ("there are other dependencies...") — ``L(j, i) != 0`` also
    yields ``i -> j``: the update kernel of column ``i`` writes positions
    ``(j, k)`` for each of its sub-columns ``k``, and column ``j`` later
    *reads* ``As(j, k)``; without this edge the hybrid right-looking
    schedule races on exactly the "double-U" pattern GLU identified.
    """
    n = filled.n_rows
    rows = filled.row_ids_of_entries()
    cols = filled.indices
    upper = cols > rows
    # CSR order is row-major with sorted columns, so the U keys
    # ``i * n + j`` are already sorted and unique
    keys = rows[upper] * np.int64(n) + cols[upper]
    if include_l_dependencies:
        lower = cols < rows
        # L(j, i) != 0 stored at (row=j, col=i): edge i -> j
        keys = np.concatenate([keys, cols[lower] * np.int64(n) + rows[lower]])
        # a stable sort merges the sorted U run with the L keys; a pair
        # present in both triangles then sits next to its twin
        keys.sort(kind="stable")
        if len(keys):
            fresh = np.empty(len(keys), dtype=bool)
            fresh[0] = True
            np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
            keys = keys[fresh]
    return graph_from_keys(n, keys)


def graph_from_keys(n: int, keys: np.ndarray) -> DependencyGraph:
    """The graph on ``n`` nodes whose edges are the sorted, unique int64
    keys ``src * n + dst``."""
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    src = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr))
    targets = (keys - src).astype(INDEX_DTYPE, copy=False)
    return DependencyGraph(
        n=n,
        indptr=indptr.astype(INDEX_DTYPE, copy=False),
        targets=targets,
        in_degree=np.bincount(targets, minlength=n).astype(
            INDEX_DTYPE, copy=False
        ),
    )


def sub_column_counts(filled: CSRMatrix) -> np.ndarray:
    """Number of sub-columns of each column (out-degree in the DAG).

    This is the quantity GLU 3.0's type-A/B/C level classification keys on:
    early columns have few sub-columns, late columns many.
    """
    rows = filled.row_ids_of_entries()
    upper = filled.indices > rows
    return np.bincount(rows[upper], minlength=filled.n_rows).astype(np.int64)
