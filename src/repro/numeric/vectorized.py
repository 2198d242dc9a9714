"""Vectorized per-level right-looking numeric kernel (Algorithm 2).

:func:`factorize_in_place` is semantically identical to the scalar
per-column loop (:func:`repro.oracles.factorize_in_place`) — same factors
*bitwise*, same :class:`~repro.numeric.rightlooking.NumericStats`
(including the ``per_level`` tuples the GPU executor charges kernels
from, and the ``perturbed_columns`` recovery record), same error
behaviour — but the per-column / per-sub-column Python loops are
replaced by bulk NumPy operations, in the spirit of the structure-aware
blocking line of work: operate on structure in blocks, not element at a
time.

The key observation is that every *position* the scalar loop computes —
diagonal offsets, sub-diagonal slices, the ``(j, k)`` sub-column pairs
and the flat target of every single update — depends only on the filled
pattern, never on the values.  So the kernel resolves them up front, in
level-batches bounded by :data:`_MAX_BATCH_UPDATES`: one ragged gather
(:func:`concat_ranges`) lists each batch's updates, and one gather
through a dense position map (:class:`_PositionMap`, slot
``(col - c0) * n + row`` -> flat CSC position, ``-1`` where the pattern
has no entry) finds every multiplier and every target at once.  The map
covers a window of target columns sized so that it never holds more
than :data:`_MAX_MAP_ENTRIES` slots (32 MB); a pattern with
``n * n`` within that cap is a single window, larger ones loop over
windows.  This replaces a per-update binary search on the host only:
Algorithm 6's device kernel still finds each target by binary search in
the sorted column, and ``count_search_steps`` still charges its probe
depth to simulated time, unchanged.

That structure-only *plan* is kept in the schedule's plan store
(:class:`~repro.graph.PatternPlans`): repeated refactorizations of the
same pattern (the serving tier's bread and butter, and how real solvers
amortize analysis across solves) skip the precompute entirely and run
only the value passes.

Each batch also carries a *level table*: for every level, the slice
bounds of its columns, scale entries, sub-column pairs and updates as
Python ints; its ``per_level`` stats tuple and the batch's totals
(structure-only on any pass that succeeds, so a finished batch books
them with one ``per_level.extend``); whether every diagonal of the
level is structurally present; and, for a one-column level, the flat
position of its diagonal.  The value loop reads the table and does only
value work:

* **one-column level** (most levels of a circuit pattern) — the pivot
  check is one Python scalar compare; the scale divides the slice after
  the pivot by it; the update is ``np.multiply.outer(u, l).ravel()``
  subtracted through plain fancy indexing.  That is exact: one column's
  ``(row, sub-column)`` targets are pairwise distinct, so each target
  is read and written once, which is all ``np.subtract.at`` would do;
* **multi-column level** — one vectorized ``|pivot| > tol`` check, then
  the **scale stage** (one gather, divide and scatter through the
  sub-diagonal stream and its divisor stream ``s_div``, the diagonal
  position of each entry's column) and the **update stage** (gather
  multipliers and ``U`` entries through the precomputed position
  stream and apply with ``np.subtract.at``, which accumulates repeated
  targets in array order, i.e. exactly the scalar loop's update order,
  so floating-point results match bitwise);
* **any level whose quick check fails**, a level with a structurally
  missing diagonal, and every level of a pass with
  ``pivot_perturbation > 0`` go through the **pivot stage** instead: it
  gathers the level's diagonals, checks/perturbs them in level order
  and raises on the first failing column *after* replaying the scalar
  path's partial mutations for the columns that precede it, so the
  failing column, its message and ``perturbed_columns`` stay the
  oracle's.

Bitwise equivalence relies on the schedule carrying GLU 3.0's *full*
dependency set (``include_l_dependencies=True``, the library default):
it guarantees no same-level column reads an entry another same-level
column writes, so gathering multipliers level-at-a-time is exactly the
scalar interleaving.  The same property is what makes the level a valid
parallel unit on a real device.
"""

from __future__ import annotations

import numpy as np

from ..errors import SingularMatrixError, SparseFormatError
from ..graph import LevelSchedule
from ..sparse import CSCMatrix, CSRMatrix
from ..sparse.ranges import concat_ranges
from .rightlooking import NumericStats

__all__ = ["factorize_in_place"]

#: cap on the flattened update-position stream precomputed per level
#: batch; levels are processed strictly in order within and across
#: batches, so batching never reorders the floating-point update stream.
_MAX_BATCH_UPDATES = 1 << 22

#: cap on the slots of the dense position map (int64, so 32 MB) that
#: resolves update targets; columns are mapped in windows that fit it.
_MAX_MAP_ENTRIES = 1 << 22


def _diag_positions(indices: np.ndarray, col_ids: np.ndarray,
                    n: int) -> np.ndarray:
    """Flat position of each column's diagonal entry (-1 when absent)."""
    hits = np.flatnonzero(indices == col_ids)
    diag_pos = np.full(n, -1, dtype=np.int64)
    diag_pos[col_ids[hits]] = hits
    return diag_pos


#: one row of a batch's level table: the level's slice bounds into the
#: batch's column, scale, pair and update streams
#: ``(c0, c1, s0, s1, p0, p1, e0, e1)``, then ``one``, the diagonal
#: position of a one-column level whose diagonal is present (-1 for any
#: other level), and ``diag_ok``, whether every diagonal of the level is
#: structurally present.
_Level = tuple[int, int, int, int, int, int, int, int, int, bool]


class _BatchPlan:
    """Precomputed position streams and level table of one greedy
    level-batch."""

    __slots__ = (
        "cols_cat", "pair_off", "exp_off", "scale_off", "s_flat",
        "s_div", "l_flat", "pos_ujk", "pos_tgt", "pair_rows", "diag_cat",
        "levels", "per_level", "div_flops", "update_flops", "columns",
        "sub_column_updates", "search_steps",
    )

    cols_cat: np.ndarray
    pair_off: np.ndarray
    exp_off: np.ndarray
    scale_off: np.ndarray
    s_flat: np.ndarray
    #: diagonal position of each sub-diagonal entry's column
    s_div: np.ndarray
    l_flat: np.ndarray
    pos_ujk: np.ndarray
    pos_tgt: np.ndarray
    pair_rows: np.ndarray
    diag_cat: np.ndarray
    #: the level table: one :data:`_Level` per level of the batch
    levels: list[_Level]
    #: the batch's ``NumericStats.per_level`` entries and totals, as a
    #: successful pass books them (structure-only)
    per_level: list[tuple[int, int, int, int]]
    div_flops: int
    update_flops: int
    columns: int
    sub_column_updates: int
    search_steps: int


class _NumericPlan:
    """Everything about a factorization that values cannot change.

    Built once per (pattern, schedule, ``count_search_steps``) and kept
    in the schedule's :class:`~repro.graph.PatternPlans`, so
    refactorizing the same structure with new values pays only the
    value passes.  The kernel's contract is that ``As`` is the sorted
    CSC of the filled pattern the schedule was levelized from and
    ``row_adjacency`` its CSR — a schedule is born from exactly one
    pattern, so keeping the plan there is sound.
    """

    __slots__ = ("diag_pos", "batches")

    diag_pos: np.ndarray
    batches: list[_BatchPlan]


class _PositionMap:
    """Flat CSC position of any ``(row, col)`` through a bounded dense map.

    The map covers a window of ``width`` consecutive columns
    ``[c0, c0 + width)``: slot ``(col - c0) * n + row`` holds the flat
    position of entry ``(row, col)`` and ``-1`` where the pattern has no
    entry, so resolving a whole stream of probes is one gather and the
    pattern check is ``pos >= 0``.  ``width`` keeps the map within
    ``_MAX_MAP_ENTRIES`` slots (``n`` slots when ``n`` alone exceeds it);
    a pattern with ``n * n`` within the cap is one window, loaded once
    for the whole plan.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        col_ids: np.ndarray,
        n: int,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.col_ids = col_ids
        self.n = n
        self.width = max(1, min(n, _MAX_MAP_ENTRIES // max(n, 1)))
        self.n_windows = -(-n // self.width)
        self.slots = np.full(self.width * n, -1, dtype=np.int64)
        self.loaded = -1
        self.loaded_slots = np.empty(0, dtype=np.int64)

    def _load(self, wi: int) -> None:
        """Make the map hold the entries of window ``wi``'s columns."""
        if wi == self.loaded:
            return
        self.slots[self.loaded_slots] = -1
        c0 = wi * self.width
        s = int(self.indptr[c0])
        e = int(self.indptr[min(self.n, c0 + self.width)])
        self.loaded_slots = (self.col_ids[s:e] - c0) * self.n
        self.loaded_slots += self.indices[s:e]
        self.slots[self.loaded_slots] = np.arange(s, e, dtype=np.int64)
        self.loaded = wi

    def _lookup(
        self,
        wi: int,
        pair_j: np.ndarray,
        pair_k: np.ndarray,
        pair_rows: np.ndarray,
        l_flat: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions of ``(j, k)`` and of the targets ``(indices[l], k)``
        for pairs whose column ``k`` lies in window ``wi``."""
        self._load(wi)
        base = (pair_k - wi * self.width) * self.n
        pos_ujk = self.slots[base + pair_j]
        if (pos_ujk < 0).any():
            raise SparseFormatError(
                "symbolic pattern is missing a U entry — filled pattern "
                "is inconsistent"
            )
        slot = np.repeat(base, pair_rows)
        slot += self.indices[l_flat]
        pos_tgt = self.slots[slot]
        if (pos_tgt < 0).any():
            raise SparseFormatError(
                "fill positions missing — filled pattern is inconsistent"
            )
        return pos_ujk, pos_tgt

    def resolve(
        self, b: _BatchPlan, pair_j: np.ndarray, pair_k: np.ndarray
    ) -> None:
        """Set ``b.pos_ujk`` and ``b.pos_tgt`` for the batch's pairs.

        Pairs are grouped by window with a stable sort and the results
        written back in pair order, so the streams (and with them the
        update order) do not depend on the window size.
        """
        win = pair_k // self.width
        counts = np.bincount(win, minlength=self.n_windows)
        if np.count_nonzero(counts) == 1:
            # the whole batch in one window: gather in place, no grouping
            b.pos_ujk, b.pos_tgt = self._lookup(
                int(win[0]), pair_j, pair_k, b.pair_rows, b.l_flat
            )
            return
        order = np.argsort(win, kind="stable")
        ends = np.cumsum(counts)
        b.pos_ujk = np.empty(len(pair_k), dtype=np.int64)
        b.pos_tgt = np.empty(len(b.l_flat), dtype=np.int64)
        for wi in np.flatnonzero(counts):
            sel = order[ends[wi] - counts[wi] : ends[wi]]
            t_sel = concat_ranges(b.exp_off[sel], b.pair_rows[sel])
            b.pos_ujk[sel], b.pos_tgt[t_sel] = self._lookup(
                int(wi),
                pair_j[sel],
                pair_k[sel],
                b.pair_rows[sel],
                b.l_flat[t_sel],
            )


def _build_plan(
    As: CSCMatrix,
    row_adjacency: CSRMatrix,
    schedule: LevelSchedule,
    count_search_steps: bool,
) -> _NumericPlan:
    indptr = As.indptr.astype(np.int64, copy=False)
    indices = As.indices
    n = As.n_cols

    col_ids = As.col_ids_of_entries().astype(np.int64, copy=False)
    diag_pos = _diag_positions(indices, col_ids, n)
    col_nnz = np.diff(indptr)
    # sub-diagonal slice of each column: (diag_pos + 1 .. column end)
    sub_start = diag_pos + 1
    sub_len = np.where(diag_pos >= 0, indptr[1:] - sub_start, 0)

    # sub-columns of j = entries of filled row j with column id > j; with
    # sorted rows that is the suffix after the diagonal, found by one
    # batched binary search over the row-major keys.
    r_indptr = row_adjacency.indptr.astype(np.int64, copy=False)
    r_indices = row_adjacency.indices
    r_keys = (
        row_adjacency.row_ids_of_entries().astype(np.int64, copy=False) * n
        + r_indices
    )
    ar = np.arange(n, dtype=np.int64)
    sc_start = np.searchsorted(r_keys, ar * n + ar, side="right")
    sc_len = r_indptr[1:] - sc_start

    if count_search_steps:
        probe_depth = np.maximum(
            1, np.ceil(np.log2(np.maximum(2, col_nnz))).astype(np.int64)
        )

    # every level's columns in schedule order, and each level's offset
    level_off = np.zeros(schedule.num_levels + 1, dtype=np.int64)
    np.cumsum([len(lv) for lv in schedule.levels], out=level_off[1:])
    all_cols = (
        np.concatenate(schedule.levels).astype(np.int64, copy=False)
        if schedule.num_levels
        else np.empty(0, dtype=np.int64)
    )
    # flattened update count contributed by column j: one row update per
    # (sub-column pair, sub-diagonal row) combination
    exp_cum = np.zeros(len(all_cols) + 1, dtype=np.int64)
    np.cumsum(sc_len[all_cols] * sub_len[all_cols], out=exp_cum[1:])
    exp_per_level = np.diff(exp_cum[level_off]).tolist()

    plan = _NumericPlan()
    plan.diag_pos = diag_pos
    plan.batches = []
    pos_map = _PositionMap(indptr, indices, col_ids, n)

    start = 0
    while start < schedule.num_levels:
        # greedy level batch under the position-stream cap (always at
        # least one level, so a single huge level still goes through)
        stop = start + 1
        batch_exp = exp_per_level[start]
        while (
            stop < schedule.num_levels
            and batch_exp + exp_per_level[stop] <= _MAX_BATCH_UPDATES
        ):
            batch_exp += exp_per_level[stop]
            stop += 1

        b = _BatchPlan()
        b.cols_cat = cols_cat = all_cols[level_off[start] : level_off[stop]]
        col_off = level_off[start : stop + 1] - level_off[start]
        pair_cnt = sc_len[cols_cat]
        b.pair_off = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(pair_cnt)]
        )
        pair_j = np.repeat(cols_cat, pair_cnt)
        pair_k = r_indices[
            concat_ranges(sc_start[cols_cat], pair_cnt)
        ].astype(np.int64, copy=False)
        b.pair_rows = pair_rows = sub_len[pair_j]
        b.exp_off = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(pair_rows)]
        )
        b.l_flat = concat_ranges(sub_start[pair_j], pair_rows)
        pos_map.resolve(b, pair_j, pair_k)
        sc_cnt = sub_len[cols_cat]
        b.scale_off = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sc_cnt)]
        )
        b.s_flat = concat_ranges(sub_start[cols_cat], sc_cnt)
        b.diag_cat = diag_cat = diag_pos[cols_cat]
        b.s_div = np.repeat(diag_cat, sc_cnt)
        if count_search_steps:
            pair_search = np.concatenate(
                [
                    np.zeros(1, dtype=np.int64),
                    np.cumsum(pair_rows * probe_depth[pair_k]),
                ]
            )
        else:
            pair_search = np.zeros(len(pair_k) + 1, dtype=np.int64)

        # the level table: every bound the value loop slices with, and
        # every per-level stat a successful pass books
        lc0, lc1 = col_off[:-1], col_off[1:]
        ls0, ls1 = b.scale_off[lc0], b.scale_off[lc1]
        lp0, lp1 = b.pair_off[lc0], b.pair_off[lc1]
        le0, le1 = b.exp_off[lp0], b.exp_off[lp1]
        missing = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(diag_cat < 0)]
        )
        diag_ok = missing[lc1] == missing[lc0]
        one = np.full(len(lc0), -1, dtype=np.int64)
        single = np.flatnonzero((lc1 - lc0 == 1) & diag_ok)
        one[single] = diag_cat[lc0[single]]
        search = pair_search[lp1] - pair_search[lp0]
        table = (lc0, lc1, ls0, ls1, lp0, lp1, le0, le1, one, diag_ok)
        b.levels = list(zip(*(col.tolist() for col in table)))
        stat = (ls1 - ls0 + 2 * (le1 - le0), lc1 - lc0, lp1 - lp0, search)
        b.per_level = list(zip(*(col.tolist() for col in stat)))
        b.div_flops = int(b.scale_off[-1])
        b.update_flops = 2 * int(b.exp_off[-1])
        b.columns = len(cols_cat)
        b.sub_column_updates = int(b.pair_off[-1])
        b.search_steps = int(pair_search[-1])
        plan.batches.append(b)
        start = stop
    return plan


def _plan_for(
    As: CSCMatrix,
    row_adjacency: CSRMatrix,
    schedule: LevelSchedule,
    count_search_steps: bool,
) -> _NumericPlan:
    plans = schedule.plans_for(row_adjacency.n_rows, row_adjacency.nnz)
    plan = plans.numeric.get(count_search_steps)
    if plan is None:
        plan = _build_plan(As, row_adjacency, schedule, count_search_steps)
        plans.numeric[count_search_steps] = plan
    return plan


def factorize_in_place(
    As: CSCMatrix,
    row_adjacency: CSRMatrix,
    schedule: LevelSchedule,
    *,
    pivot_tolerance: float = 0.0,
    count_search_steps: bool = False,
    pivot_perturbation: float = 0.0,
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
    """
    data = As.data
    stats = NumericStats()
    plan = _plan_for(As, row_adjacency, schedule, count_search_steps)
    diag_pos = plan.diag_pos

    def _pivot_stage(cols: np.ndarray) -> tuple[int, int, float]:
        """Perturb/validate pivots of ``cols`` in order.

        Returns ``(prefix_len, fail_column, fail_pivot)`` where the
        prefix covers the whole level on success; on failure it counts
        the columns the scalar path would have completed before raising
        for ``fail_column``.
        """
        pos = diag_pos[cols]
        missing = pos < 0
        vals = (
            data[np.maximum(pos, 0)]
            if len(data)
            else np.zeros(len(cols), dtype=data.dtype)
        )
        piv64 = np.where(missing, np.inf, vals).astype(np.float64)
        bad = np.abs(piv64) <= pivot_tolerance
        fail = missing.copy()
        if pivot_perturbation <= 0.0:
            fail |= bad
        first = int(np.argmax(fail)) if fail.any() else len(cols)
        if pivot_perturbation > 0.0:
            # static perturbation, sign-preserving (+ for an exact
            # zero), applied in level order to the columns processed
            to_fix = np.flatnonzero(bad[:first] & ~missing[:first])
            if len(to_fix):
                fixed = np.where(
                    piv64[to_fix] < 0.0,
                    -pivot_perturbation,
                    pivot_perturbation,
                )
                data[pos[to_fix]] = fixed.astype(data.dtype)
                stats.perturbed_columns.extend(
                    int(c) for c in cols[to_fix]
                )
        if first == len(cols):
            return len(cols), -1, 0.0
        fail_col = int(cols[first])
        fail_piv = 0.0 if missing[first] else float(piv64[first])
        return first, fail_col, fail_piv

    # without perturbation a level whose pivots all pass needs no
    # ``_pivot_stage``: one compare decides it (a float64 compare, as
    # in ``_pivot_stage``, whatever the dtype)
    quick = pivot_perturbation <= 0.0
    tol64 = np.float64(pivot_tolerance)
    for b in plan.batches:
        pos_tgt, pos_ujk = b.pos_tgt, b.pos_ujk
        for c0, c1, s0, s1, p0, p1, e0, e1, one, diag_ok in b.levels:
            if quick and one >= 0:
                piv = data[one]
                if abs(float(piv)) > pivot_tolerance:
                    # one column: its sub-diagonal is the slice after
                    # the pivot, and its (row, sub-column) targets are
                    # distinct, so plain fancy-index subtraction
                    # applies every update exactly once
                    if s1 > s0:
                        lo, hi = one + 1, one + 1 + s1 - s0
                        data[lo:hi] /= piv
                        if e1 > e0:
                            data[pos_tgt[e0:e1]] -= np.multiply.outer(
                                data[pos_ujk[p0:p1]], data[lo:hi]
                            ).ravel()
                    continue
            fail_col = -1
            if not (
                quick
                and diag_ok
                and (np.abs(data[b.diag_cat[c0:c1]]) > tol64).all()
            ):
                prefix_len, fail_col, fail_piv = _pivot_stage(
                    b.cols_cat[c0:c1]
                )
                if fail_col >= 0:
                    ce = c0 + prefix_len
                    s1, p1 = int(b.scale_off[ce]), int(b.pair_off[ce])
                    e1 = int(b.exp_off[p1])
            if s1 > s0:
                data[b.s_flat[s0:s1]] /= data[b.s_div[s0:s1]]
            if e1 > e0:
                contrib = data[b.l_flat[e0:e1]] * np.repeat(
                    data[pos_ujk[p0:p1]], b.pair_rows[p0:p1]
                )
                np.subtract.at(data, pos_tgt[e0:e1], contrib)
            if fail_col >= 0:
                # the scalar loop raises mid-level: the preceding
                # columns are fully processed, the partial level never
                # reaches ``per_level``
                if diag_pos[fail_col] < 0:
                    raise SingularMatrixError(fail_col)
                raise SingularMatrixError(fail_col, fail_piv)
        # every level of the batch completed, so it books exactly the
        # structure-only stats the plan precomputed
        stats.div_flops += b.div_flops
        stats.update_flops += b.update_flops
        stats.columns += b.columns
        stats.sub_column_updates += b.sub_column_updates
        stats.search_steps += b.search_steps
        stats.per_level.extend(b.per_level)
    return stats
