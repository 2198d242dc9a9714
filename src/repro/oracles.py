"""Scalar reference loops for the vectorized host paths (tests only).

Every bulk-NumPy host path in the library was once a readable
per-element Python loop.  Those loops live on here, unchanged, as the
independent references the equivalence suite compares against; no
production module imports this one.  Each oracle carries the public
name of its production counterpart, so a test can swap it in at a call
site with a single ``monkeypatch.setattr``:

* :func:`fill2_row` / :func:`fill2_rows` — the per-vertex traversal of
  Algorithm 1 (:mod:`repro.symbolic.fill2`);
* :func:`symbolic_fill_reference` — the per-row bit-walk that
  materializes the filled pattern (:mod:`repro.symbolic.reference`);
* :func:`kahn_levels` — Kahn's waves walked node by node
  (:mod:`repro.graph.levelize`);
* :func:`levelize_cpu` — the GLU 3.0-style sequential longest-path pass,
  an algorithm independent of Kahn's waves;
* :func:`classify_levels` and :func:`level_launches` (with
  :func:`type_c_launches`) — GLU 3.0's A/B/C level tags and per-level
  kernels, one level at a time (:mod:`repro.core.numeric_gpu`, whose
  launch table builds every level's launches with array operations);
* :func:`factorize_in_place` — the per-column / per-update loop of
  Algorithm 2 (:mod:`repro.numeric.vectorized`);
* :func:`extract_lu` — the L/U split through a coordinate list, two
  sorting conversions and a duplicate-summing ``np.add.at``
  (:mod:`repro.numeric.rightlooking`, which splits sorted columns
  without sorting);
* :func:`forward_substitute` / :func:`backward_substitute` and their
  block twins :func:`forward_substitute_multi` /
  :func:`backward_substitute_multi` — column-at-a-time substitution
  with one factor column per step, for one right-hand side and for an
  ``(n, k)`` block (:mod:`repro.numeric.trisolve`, whose level-scheduled
  solve takes both shapes).

Each returns exactly what its counterpart returns: structure, traversal
counters, schedules, factors (bitwise), :class:`NumericStats` and error
behaviour.  The one deliberate difference is :func:`levelize_cpu` on a
cyclic graph, where the sequential pass returns levels that violate an
edge instead of raising :class:`~repro.errors.CycleError`.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CycleError,
    NotLowerTriangularError,
    NotUpperTriangularError,
    SingularMatrixError,
    SparseFormatError,
)
from .core.numeric_gpu import WARP_TEAMS_PER_BLOCK
from .graph import DependencyGraph, LevelSchedule
from .graph.levelize import TYPE_A_MAX_SUBCOLS, TYPE_C_WARP_TEAMS
from .numeric.rightlooking import NumericStats
from .sparse import COOMatrix, CSCMatrix, CSRMatrix
from .sparse.types import INDEX_DTYPE
from .symbolic.fill2 import Fill2RowResult
from .symbolic.reference import symbolic_fill_bitsets


# ---------------------------------------------------------------------------
# fill2 (Algorithm 1)


def fill2_row(a: CSRMatrix, src: int) -> Fill2RowResult:
    """Algorithm 1 for row ``src``, one vertex at a time."""
    fill = np.full(a.n_rows, -1, dtype=INDEX_DTYPE)
    return _fill2_row_stamped(a, src, fill)


def fill2_rows(
    a: CSRMatrix, rows: np.ndarray | None = None
) -> list[Fill2RowResult]:
    """Algorithm 1 for a batch of rows, reusing one stamp array."""
    if rows is None:
        rows = np.arange(a.n_rows, dtype=INDEX_DTYPE)
    fill = np.full(a.n_rows, -1, dtype=INDEX_DTYPE)
    return [_fill2_row_stamped(a, int(r), fill) for r in rows]


def _fill2_row_stamped(
    a: CSRMatrix, src: int, fill: np.ndarray
) -> Fill2RowResult:
    res = Fill2RowResult(src=src)
    in_l: list[int] = []
    in_u: list[int] = []

    # lines 1-10: mark the original nonzeros of row src
    fill[src] = src
    cols, _ = a.row(src)
    res.edges_scanned += len(cols)
    for v in cols.tolist():
        if fill[v] != src:
            fill[v] = src
            (in_l if v < src else in_u).append(v)
    if fill[src] == src and src not in in_u:
        in_u.append(src)  # diagonal treated as present

    # lines 11-27: thresholds in increasing order
    threshold = 0
    while threshold < src:
        if fill[threshold] != src:
            threshold += 1
            continue
        frontier = [threshold]
        res.frontier_visits += 1
        while frontier:
            res.max_frontier = max(res.max_frontier, len(frontier))
            new_frontier: list[int] = []
            for f in frontier:
                nbrs, _ = a.row(f)
                res.edges_scanned += len(nbrs)
                for nb in nbrs.tolist():
                    if fill[nb] != src:
                        fill[nb] = src
                        if nb > threshold:
                            (in_l if nb < src else in_u).append(nb)
                        else:
                            new_frontier.append(nb)
                            res.frontier_visits += 1
            frontier = new_frontier
        threshold += 1

    res.l_cols = np.asarray(sorted(in_l), dtype=INDEX_DTYPE)
    res.u_cols = np.asarray(sorted(set(in_u)), dtype=INDEX_DTYPE)
    return res


# ---------------------------------------------------------------------------
# filled-pattern materialization


def _bitset_to_indices(bits: int) -> np.ndarray:
    """Set-bit positions of ``bits`` in increasing order."""
    out = []
    while bits:
        lsb = bits & -bits
        out.append(lsb.bit_length() - 1)
        bits ^= lsb
    return np.asarray(out, dtype=INDEX_DTYPE)


def symbolic_fill_reference(a: CSRMatrix) -> CSRMatrix:
    """Filled pattern of ``L + U``, materialized row by row."""
    if a.n_rows != a.n_cols:
        raise ValueError("symbolic factorization requires a square matrix")
    n = a.n_rows
    bitrows = symbolic_fill_bitsets(a)
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    counts = np.array([b.bit_count() for b in bitrows], dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=INDEX_DTYPE)
    data = np.zeros(int(indptr[-1]), dtype=a.data.dtype)
    for i in range(n):
        cols_filled = _bitset_to_indices(bitrows[i])
        s = int(indptr[i])
        indices[s : s + len(cols_filled)] = cols_filled
        # scatter original values into the filled row
        orig_cols, orig_vals = a.row(i)
        pos = np.searchsorted(cols_filled, orig_cols)
        data[s + pos] = orig_vals
    return CSRMatrix(n, n, indptr, indices, data, check=False)


# ---------------------------------------------------------------------------
# levelization


def kahn_levels(graph: DependencyGraph) -> LevelSchedule:
    """Kahn's waves, each wave's successor lists walked node by node."""
    indeg = graph.in_degree.copy()
    level = np.full(graph.n, -1, dtype=INDEX_DTYPE)
    queue = np.flatnonzero(indeg == 0).astype(INDEX_DTYPE)
    processed = 0
    level_num = 0
    levels: list[np.ndarray] = []
    while len(queue):
        level[queue] = level_num
        levels.append(queue.copy())
        processed += len(queue)
        # decrement in-degrees of all successors of the wave
        nexts: list[np.ndarray] = []
        for u in queue:
            succ = graph.successors(int(u))
            if len(succ):
                nexts.append(succ)
        if nexts:
            cat = np.concatenate(nexts)
            dec = np.bincount(cat, minlength=graph.n)
            indeg -= dec
            queue = np.flatnonzero((indeg == 0) & (dec > 0)).astype(
                INDEX_DTYPE
            )
        else:
            queue = np.empty(0, dtype=INDEX_DTYPE)
        level_num += 1
    if processed != graph.n:
        raise CycleError(graph.n - processed)
    return LevelSchedule(level_of=level, levels=levels)


def levelize_cpu(graph: DependencyGraph) -> LevelSchedule:
    """GLU 3.0-style sequential levelization.

    Because every edge goes forward (i -> j implies i < j), a single
    ascending pass computes the longest-path level of each column.
    """
    level = np.full(graph.n, -1, dtype=INDEX_DTYPE)
    # Process in column order; propagate to successors.
    for i in range(graph.n):
        if level[i] < 0:
            level[i] = 0
        succ = graph.successors(i)
        if len(succ):
            level[succ] = np.maximum(level[succ], level[i] + 1)
    return LevelSchedule(level_of=level)


def classify_levels(
    schedule: LevelSchedule, sub_cols: np.ndarray
) -> list[str]:
    """GLU 3.0 type A/B/C tag per level, one ``np.mean`` per level."""
    tags = []
    for lv in schedule.levels:
        ncols = len(lv)
        mean_sub = float(sub_cols[lv].mean()) if ncols else 0.0
        if mean_sub <= TYPE_A_MAX_SUBCOLS:
            tags.append("A")
        elif mean_sub > TYPE_C_WARP_TEAMS * ncols:
            tags.append("C")
        else:
            tags.append("B")
    return tags


# ---------------------------------------------------------------------------
# numeric launches (GLU 3.0's A/B/C rule, §2.2)


def type_c_launches(sub: np.ndarray) -> list[tuple[int, float]]:
    """``(blocks, flop share)`` of each column of a type-C level whose
    columns have ``sub`` sub-columns: blocks are the sub-columns, flops
    follow each column's share of the level's sub-column updates."""
    weights = sub.astype(float) + 1.0
    weights /= weights.sum()
    blocks = np.maximum(sub, 1)
    return list(zip(blocks.tolist(), weights.tolist()))


def level_launches(
    tag: str,
    stat: tuple[int, int, int, int],
    type_c: list[tuple[int, float]],
    *,
    cols: int,
    share: float = 1.0,
    dense_col_bytes: int = 0,
) -> tuple[list[tuple[int, int, int]], int]:
    """The ``(flops, blocks, search_steps)`` kernels of one level and its
    dense-format HBM bytes, one level at a time.

    ``stat`` is the level's ``NumericStats.per_level`` entry; a device
    runs ``cols`` of its columns with ``share`` of its structural work,
    and ``type_c`` holds that device's columns of
    :func:`type_c_launches`.
    """
    hbm = 2 * cols * dense_col_bytes
    if tag == "C":
        flops, search = stat[0], stat[3]
        launches = [
            (max(1, int(flops * w)), blocks, int(search * w))
            for blocks, w in type_c
        ]
        return launches, hbm
    flops, updates, search = (
        round(stat[0] * share),
        round(stat[2] * share),
        round(stat[3] * share),
    )
    if tag == "A":
        blocks = cols
    else:
        blocks = max(cols, min(updates, cols * WARP_TEAMS_PER_BLOCK))
    return [(max(1, flops), blocks, search)], hbm


# ---------------------------------------------------------------------------
# numeric factorization (Algorithm 2)


def factorize_in_place(
    As: CSCMatrix,
    row_adjacency: CSRMatrix,
    schedule: LevelSchedule,
    *,
    pivot_tolerance: float = 0.0,
    count_search_steps: bool = False,
    pivot_perturbation: float = 0.0,
) -> NumericStats:
    """Algorithm 2, one column and one sub-column update at a time.

    Same contract as :func:`repro.numeric.factorize_in_place`.
    """
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


# ---------------------------------------------------------------------------
# triangular solves


def forward_substitute(
    L: CSCMatrix, b: np.ndarray, *, unit_diagonal: bool = True
) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L`` (CSC, sorted rows)."""
    n = L.n_cols
    x = np.array(b, dtype=np.float64, copy=True).reshape(-1)
    if len(x) != n:
        raise ValueError("rhs length mismatch")
    indptr, indices, data = L.indptr, L.indices, L.data
    for j in range(n):
        s, e = int(indptr[j]), int(indptr[j + 1])
        rows = indices[s:e]
        if len(rows) and rows[0] < j:
            raise NotLowerTriangularError(
                f"column {j} has entry above diagonal"
            )
        has_diag = len(rows) > 0 and rows[0] == j
        if unit_diagonal:
            xj = x[j] if not has_diag else x[j] / data[s]
            # unit diagonal: a stored diagonal must be 1; tolerate either
        else:
            if not has_diag or data[s] == 0.0:
                raise SingularMatrixError(j)
            xj = x[j] / data[s]
        x[j] = xj
        off = 1 if has_diag else 0
        if e - s > off:
            x[rows[off:]] -= data[s + off : e] * xj
    return x


def backward_substitute(U: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U`` (CSC, sorted rows)."""
    n = U.n_cols
    x = np.array(b, dtype=np.float64, copy=True).reshape(-1)
    if len(x) != n:
        raise ValueError("rhs length mismatch")
    indptr, indices, data = U.indptr, U.indices, U.data
    for j in range(n - 1, -1, -1):
        s, e = int(indptr[j]), int(indptr[j + 1])
        rows = indices[s:e]
        if len(rows) and rows[-1] > j:
            raise NotUpperTriangularError(
                f"column {j} has entry below diagonal"
            )
        has_diag = len(rows) > 0 and rows[-1] == j
        if not has_diag or data[e - 1] == 0.0:
            raise SingularMatrixError(j)
        xj = x[j] / data[e - 1]
        x[j] = xj
        if e - s > 1:
            x[rows[:-1]] -= data[s : e - 1] * xj
    return x


def forward_substitute_multi(
    L: CSCMatrix, B: np.ndarray, *, unit_diagonal: bool = True
) -> np.ndarray:
    """Solve ``L X = B`` for an ``(n, k)`` block of right-hand sides."""
    n = L.n_cols
    X = np.array(B, dtype=np.float64, copy=True)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"B must be (n, k) with n={n}")
    indptr, indices, data = L.indptr, L.indices, L.data
    for j in range(n):
        s, e = int(indptr[j]), int(indptr[j + 1])
        rows = indices[s:e]
        if len(rows) and rows[0] < j:
            raise NotLowerTriangularError(
                f"column {j} has entry above diagonal"
            )
        has_diag = len(rows) > 0 and rows[0] == j
        if unit_diagonal:
            xj = X[j] / data[s] if has_diag else X[j]
        else:
            if not has_diag or data[s] == 0.0:
                raise SingularMatrixError(j)
            xj = X[j] / data[s]
        X[j] = xj
        off = 1 if has_diag else 0
        if e - s > off:
            X[rows[off:]] -= np.outer(data[s + off : e], xj)
    return X


def backward_substitute_multi(U: CSCMatrix, B: np.ndarray) -> np.ndarray:
    """Solve ``U X = B`` for an ``(n, k)`` block of right-hand sides."""
    n = U.n_cols
    X = np.array(B, dtype=np.float64, copy=True)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"B must be (n, k) with n={n}")
    indptr, indices, data = U.indptr, U.indices, U.data
    for j in range(n - 1, -1, -1):
        s, e = int(indptr[j]), int(indptr[j + 1])
        rows = indices[s:e]
        if len(rows) and rows[-1] > j:
            raise NotUpperTriangularError(
                f"column {j} has entry below diagonal"
            )
        has_diag = len(rows) > 0 and rows[-1] == j
        if not has_diag or data[e - 1] == 0.0:
            raise SingularMatrixError(j)
        xj = X[j] / data[e - 1]
        X[j] = xj
        if e - s > 1:
            X[rows[:-1]] -= np.outer(data[s : e - 1], xj)
    return X
