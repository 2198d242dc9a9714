"""The fill2 algorithm (Algorithm 1 of the paper), per source row.

fill2 computes the structure of row ``src`` of the filled matrix ``L + U``
by repeated frontier traversal of the *original* matrix graph: every
nonzero column ``threshold < src`` of the (growing) row seeds a BFS through
vertices smaller than the threshold; vertices reached that are larger than
the threshold are new nonzeros (fill-ins) of the row.

Because each source row only reads the immutable input matrix, all rows can
be processed independently — the property that makes the algorithm
GPU-friendly and that the out-of-core scheme (Algorithm 3/4) chunks over.

This module is the *executable specification*, used for validation and
for small problems; its per-vertex transcription is
:func:`repro.oracles.fill2_row`.  The production path derives the
identical structure via the bitset row-merge in
:mod:`repro.symbolic.reference` (same fixpoint, sequential-friendly) and
the per-row traversal *costs* analytically in :mod:`repro.symbolic.stats`;
the test suite proves all three agree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..sparse import CSRMatrix
from ..sparse.ranges import concat_ranges
from ..sparse.types import INDEX_DTYPE

#: frontiers at or below this size expand vertex-at-a-time — NumPy's
#: per-call overhead only amortizes once a wave gathers a few hundred
#: adjacency entries at once
_BULK_FRONTIER = 32


@dataclass
class Fill2RowResult:
    """Structure and traversal statistics of fill2 for one source row."""

    src: int
    #: sorted column ids of the L part (strictly below the diagonal)
    l_cols: np.ndarray = field(default_factory=lambda: np.empty(0, INDEX_DTYPE))
    #: sorted column ids of the U part (diagonal and above)
    u_cols: np.ndarray = field(default_factory=lambda: np.empty(0, INDEX_DTYPE))
    #: adjacency entries examined during the traversal
    edges_scanned: int = 0
    #: number of vertices that entered a frontier queue
    frontier_visits: int = 0
    #: largest frontier queue size observed (memory requirement driver)
    max_frontier: int = 0

    @property
    def row_nnz(self) -> int:
        return len(self.l_cols) + len(self.u_cols)


def fill2_row(a: CSRMatrix, src: int) -> Fill2RowResult:
    """Run Algorithm 1 for row ``src`` of matrix ``a``.

    The ``fill`` stamp array of the paper is allocated per call here for
    clarity; the batched driver :func:`fill2_rows` reuses one stamp array
    across rows exactly like the GPU kernel reuses its per-thread-block
    scratch (the ``c x n`` buffer of §3.2).
    """
    fill = np.full(a.n_rows, -1, dtype=INDEX_DTYPE)
    return _fill2_row_waves(a, src, fill)


def _fill2_row_waves(
    a: CSRMatrix, src: int, fill: np.ndarray
) -> Fill2RowResult:
    """Algorithm 1 for one row, expanded wave by wave.

    The threshold ordering is a true data dependence (each BFS reads the
    stamp set earlier thresholds produced) and stays sequential, driven
    by a min-heap of stamped columns below ``src`` instead of a scan over
    ``0..src``.  Large BFS *waves* are expanded in bulk: one ragged
    gather of every frontier vertex's adjacency, one pass of the stamp
    filter, one sorted-unique dedup; small waves (``<= _BULK_FRONTIER``)
    expand vertex-at-a-time, where the interpreter beats NumPy's
    per-call overhead.  Wave membership and all three traversal counters
    are order-independent within a wave, so the counters match the
    per-vertex traversal (:func:`repro.oracles.fill2_row`) exactly.
    """
    res = Fill2RowResult(src=src)
    indptr, indices = a.indptr, a.indices

    fill[src] = src
    cols = indices[int(indptr[src]) : int(indptr[src + 1])]
    res.edges_scanned += len(cols)
    fresh = cols[fill[cols] != src]
    fill[fresh] = src
    l_parts = [fresh[fresh < src].astype(INDEX_DTYPE)]
    # the diagonal is treated as present; src itself is stamped above and
    # therefore never re-enters through a wave
    u_parts = [
        fresh[fresh > src].astype(INDEX_DTYPE),
        np.asarray([src], dtype=INDEX_DTYPE),
    ]
    # already sorted ascending (row indices are sorted) — a valid heap
    heap = l_parts[0].tolist()

    while heap:
        threshold = heapq.heappop(heap)
        frontier: list[int] | np.ndarray = [threshold]
        res.frontier_visits += 1
        while True:
            k = len(frontier)
            if not k:
                break
            res.max_frontier = max(res.max_frontier, k)
            if k <= _BULK_FRONTIER:
                # small wave: the per-call overhead of the bulk gathers
                # outweighs the work, so expand vertex-at-a-time exactly
                # like the scalar oracle (same wave sets, same counters)
                nxt: list[int] = []
                low_new: list[int] = []
                high_new: list[int] = []
                if not isinstance(frontier, list):
                    frontier = frontier.tolist()
                for f in frontier:
                    s, e = int(indptr[f]), int(indptr[f + 1])
                    res.edges_scanned += e - s
                    for nb in indices[s:e].tolist():
                        if fill[nb] != src:
                            fill[nb] = src
                            if nb < threshold:
                                nxt.append(nb)
                            elif nb < src:
                                low_new.append(nb)
                            else:
                                high_new.append(nb)
                res.frontier_visits += len(nxt)
                if low_new:
                    l_parts.append(np.asarray(low_new, dtype=INDEX_DTYPE))
                    for c in low_new:
                        heapq.heappush(heap, c)
                if high_new:
                    u_parts.append(np.asarray(high_new, dtype=INDEX_DTYPE))
                frontier = nxt
            else:
                if isinstance(frontier, list):
                    frontier = np.asarray(frontier, dtype=INDEX_DTYPE)
                starts = indptr[frontier]
                nbrs = indices[
                    concat_ranges(starts, indptr[frontier + 1] - starts)
                ]
                res.edges_scanned += len(nbrs)
                cand = np.unique(nbrs[fill[nbrs] != src])
                fill[cand] = src
                # stamped == threshold is impossible, so the split is
                # exact: smaller stamps continue the traversal, larger
                # are fill-ins
                frontier = cand[cand < threshold]
                res.frontier_visits += len(frontier)
                fillins = cand[cand > threshold]
                if len(fillins):
                    low = fillins[fillins < src].astype(INDEX_DTYPE)
                    l_parts.append(low)
                    u_parts.append(fillins[fillins >= src].astype(INDEX_DTYPE))
                    for c in low.tolist():
                        heapq.heappush(heap, c)

    res.l_cols = np.sort(np.concatenate(l_parts))
    res.u_cols = np.sort(np.concatenate(u_parts))
    return res


def fill2_rows(
    a: CSRMatrix, rows: np.ndarray | None = None
) -> list[Fill2RowResult]:
    """Run fill2 for a batch of source rows (all rows by default)."""
    if rows is None:
        rows = np.arange(a.n_rows, dtype=INDEX_DTYPE)
    fill = np.full(a.n_rows, -1, dtype=INDEX_DTYPE)
    return [_fill2_row_waves(a, int(r), fill) for r in rows]


def fill2_pattern(a: CSRMatrix) -> CSRMatrix:
    """Full filled pattern via fill2 (values 0 at fills; tests/small inputs)."""
    results = fill2_rows(a)
    n = a.n_rows
    counts = np.array([r.row_nnz for r in results], dtype=INDEX_DTYPE)
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=INDEX_DTYPE)
    data = np.zeros(int(indptr[-1]), dtype=a.data.dtype)
    for r in results:
        s = int(indptr[r.src])
        merged = np.concatenate([r.l_cols, r.u_cols])
        indices[s : s + len(merged)] = merged
        orig_cols, orig_vals = a.row(r.src)
        pos = np.searchsorted(merged, orig_cols)
        data[s + pos] = orig_vals
    return CSRMatrix(n, n, indptr, indices, data, check=False)
