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
level-batches bounded by :data:`_MAX_BATCH_UPDATES`, into a structure-only
*plan*.  Every target is found through a dense position map
(:class:`_PositionMap`, slot ``(col - c0) * n + row`` -> flat CSC
position, ``-1`` where the pattern has no entry).  The map covers a
window of target columns sized so that it never holds more than
:data:`_MAX_MAP_ENTRIES` slots (32 MB); a pattern with ``n * n`` within
that cap is a single window, larger ones walk the windows in order.  In
each window, one gather resolves the ``U`` entries of the batch's pairs
that fall in it; the one-column and gathered levels' updates resolve
through one compact key array of their own; and each ``(column,
window)`` segment of a column-outer level forms its ``(pair, row)`` keys
with one ``np.add.outer`` in a small reused scratch buffer and gathers
them straight into the stored targets.  No key array spans a batch's
updates, and every stream is written in pair order, so none depends on
the window size.  A ``-1`` raises before any value is touched.  This
replaces a per-update binary search on the host only: Algorithm 6's
device kernel still finds each target by binary search in the sorted
column, and ``count_search_steps`` still charges its probe depth to
simulated time, unchanged.

The plan is kept in the schedule's plan store
(:class:`~repro.graph.PatternPlans`): repeated refactorizations of the
same pattern (the serving tier's bread and butter, and how real solvers
amortize analysis across solves) skip the precompute entirely and run
only the value passes.

Column ``j`` of Algorithm 2 updates each of its ``P`` sub-columns ``k``
as ``A[:, k] -= A[j, k] * L[:, j]``: one ``P x S`` outer product of its
``U`` entries and its ``S`` sub-diagonal quotients.  A plan stores, per
update, only the flat position of its target (``pos_tgt``, pair-major
within each column, which is the scalar loop's update order); per pair
the position of its ``U`` entry; per ``L`` entry its position and its
column's diagonal (the scale stage).  Each batch's *level table* gives,
for every level, the slice bounds of its columns, scale entries,
sub-column pairs and updates as Python ints; its ``per_level`` stats
tuple and the batch's totals (structure-only on any pass that succeeds,
so a finished batch books them with one ``per_level.extend``); whether
every diagonal of the level is structurally present; and the level's
*kind*, decided once from structure alone:

* **one-column level** (most levels of a circuit pattern) — the pivot
  check is one Python scalar compare; the scale divides the slice after
  the pivot by it; the update is ``np.multiply.outer(u, l).ravel()``
  subtracted through plain fancy indexing.  That is exact: one column's
  ``(row, sub-column)`` targets are pairwise distinct, so each target
  is read and written once, which is all ``np.subtract.at`` would do;
* **column-outer level** — a multi-column level whose columns average
  at least :data:`_MIN_OUTER_UPDATES` updates.  After one vectorized
  ``|pivot| > tol`` check and the **scale stage** (one gather, divide
  and scatter through the ``L`` entries and their divisor stream
  ``s_div``), the **update stage** writes one ``np.multiply.outer`` per
  column into the pass's update buffer and applies it with one
  ``np.subtract.at``, which accumulates repeated targets in array
  order, i.e. exactly the scalar loop's update order, so floating-point
  results match bitwise (``u * l == l * u`` in IEEE arithmetic);
* **gathered level** — every other multi-column level (many columns,
  few updates each, where a call per column would cost more than it
  saves).  Its update stage gathers every multiplier into the update
  buffer through its own stored ``L``-index stream ``l_flat``, scales
  them by every ``U`` entry with one ``np.repeat``, then applies them
  with the same ``np.subtract.at``.  Only these levels store an ``L``
  index per update;
* **any level whose quick check fails**, a level with a structurally
  missing diagonal, and every level of a pass with
  ``pivot_perturbation > 0`` go through the **pivot stage** first: it
  gathers the level's diagonals, checks/perturbs them in level order
  and raises on the first failing column *after* replaying the scalar
  path's partial mutations for the columns that precede it, so the
  failing column, its message and ``perturbed_columns`` stay the
  oracle's.  A one-column level taking this route forms its update as
  a column-outer level of one column.

A value pass allocates its update buffer once, at the length of the
plan's largest level (``max_level_updates``, structure-only), instead
of a fresh array per level.

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

#: a multi-column level whose columns average at least this many updates
#: is *column-outer*: it stores no ``L`` index per update and forms each
#: column's updates with one outer product, in the plan build (target
#: slots) and in every value pass.  Measured break-even (2-vCPU x86-64
#: VM, numpy 2.4): one ufunc call costs about 2.5 us per column, and
#: dropping the ``L``-index gather and the ``np.repeat`` of the ``U``
#: entries saves 2-4 ns per update on large patterns but only about 1 ns
#: where the values stay in cache (n=500 circuit patterns, whose kernel
#: ran 10-14 % slower at 1024), so a value pass breaks even near 2k.
_MIN_OUTER_UPDATES = 1 << 11

#: cap on the slots of the dense position map (int64, so 32 MB) that
#: resolves update targets; columns are mapped in windows that fit it.
_MAX_MAP_ENTRIES = 1 << 22


def _diag_positions(
    indices: np.ndarray, col_ids: np.ndarray, n: int
) -> np.ndarray:
    """Flat position of each column's diagonal entry (-1 when absent)."""
    hits = np.flatnonzero(indices == col_ids)
    diag_pos = np.full(n, -1, dtype=np.int64)
    diag_pos[col_ids[hits]] = hits
    return diag_pos


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of ``counts``, with the total appended."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


#: one row of a batch's level table: the level's slice bounds into the
#: batch's column, scale, pair and update streams
#: ``(c0, c1, s0, s1, p0, p1, e0, e1)``, then ``one``, the diagonal
#: position of a one-column level whose diagonal is present (-1 for any
#: other level), ``diag_ok``, whether every diagonal of the level is
#: structurally present, and ``lg``, the start of a gathered level's
#: updates in the batch's ``l_flat`` (-1 for a one-column or
#: column-outer level, which forms its updates as outer products).
_Level = tuple[int, int, int, int, int, int, int, int, int, bool, int]


class _BatchPlan:
    """Precomputed position streams and level table of one greedy
    level-batch."""

    __slots__ = (
        "cols_cat",
        "pair_off",
        "exp_off",
        "scale_off",
        "s_flat",
        "s_div",
        "l_flat",
        "pos_ujk",
        "pos_tgt",
        "pair_rows",
        "diag_cat",
        "levels",
        "per_level",
        "div_flops",
        "update_flops",
        "columns",
        "sub_column_updates",
        "search_steps",
    )

    cols_cat: np.ndarray
    pair_off: np.ndarray
    exp_off: np.ndarray
    scale_off: np.ndarray
    s_flat: np.ndarray
    #: diagonal position of each sub-diagonal entry's column
    s_div: np.ndarray
    #: flat ``L`` position of each update of the gathered levels only,
    #: level after level (a level's slice starts at its ``lg``)
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

    __slots__ = ("diag_pos", "batches", "max_level_updates")

    diag_pos: np.ndarray
    batches: list[_BatchPlan]
    #: updates of the plan's largest level: the length of the buffer a
    #: value pass forms its column-outer and gathered products in
    max_level_updates: int

    @property
    def nbytes(self) -> int:
        """Bytes held by the plan's arrays.  Reporting only: the serve
        and fleet byte budgets (``ReusableAnalysis.nbytes``) do not
        count it."""
        total = self.diag_pos.nbytes
        for b in self.batches:
            for name in _BatchPlan.__slots__:
                value = getattr(b, name)
                if isinstance(value, np.ndarray):
                    total += value.nbytes
        return int(total)


class _PositionMap:
    """Flat CSC position of any ``(row, col)`` through a bounded dense map.

    The map covers a window of ``width`` consecutive columns
    ``[c0, c0 + width)``: slot ``(col - c0) * n + row`` holds the flat
    position of entry ``(row, col)`` and ``-1`` where the pattern has no
    entry, so resolving a block of probes is one gather and the pattern
    check is ``min() < 0``.  ``width`` keeps the map within
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

    def load(self, wi: int) -> None:
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


def _missing_fill() -> SparseFormatError:
    return SparseFormatError(
        "fill positions missing — filled pattern is inconsistent"
    )


def _resolve_targets(
    b: _BatchPlan,
    pos_map: _PositionMap,
    pair_j: np.ndarray,
    pair_k: np.ndarray,
    sub_start: np.ndarray,
    indices: np.ndarray,
    col_off: np.ndarray,
    outer: np.ndarray,
    gathered: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Set ``b.pos_ujk``, ``b.pos_tgt`` and ``b.l_flat``.

    ``col_off`` bounds the batch's levels in ``b.cols_cat`` and
    ``outer`` / ``gathered`` are their kinds.  The one-column and
    gathered levels' updates get one compact key array; column-outer
    levels get none.  The map windows the batch's sub-columns fall in
    are walked in order.  Each window resolves its pairs' ``U`` entries,
    then its share of the compact keys, then its column-outer
    ``(column, window)`` segments one at a time: a segment's ``(pair,
    row)`` keys are one ``np.add.outer`` into ``scratch``, gathered
    straight into ``b.pos_tgt``.  Every stream is written in pair order,
    so none depends on the window size.
    """
    n, width, slots = pos_map.n, pos_map.width, pos_map.slots
    single = pos_map.n_windows == 1
    lp = b.pair_off[col_off]
    le = b.exp_off[lp]
    rest = ~outer
    # each pair's window, and its column's first slot in that window
    win = pair_k // width
    kw = (pair_k - win * width) * n
    outer_pair = np.repeat(outer, np.diff(lp))
    # the one-column and gathered levels' updates: their pairs, their
    # keys and their L rows; only a gathered level keeps its L rows (a
    # level without updates has none)
    p_rest = np.flatnonzero(~outer_pair)
    r_rows = b.pair_rows[p_rest]
    l_rest = concat_ranges(sub_start[pair_j[p_rest]], r_rows)
    r_keys = np.repeat(kw[p_rest], r_rows)
    r_keys += indices[l_rest]
    upd = np.diff(le)[rest]
    keep = gathered[rest] | (upd == 0)
    b.l_flat = l_rest if keep.all() else l_rest[np.repeat(keep, upd)]
    del l_rest  # freed before the target stream is written
    # column-outer segments: runs of one column's pairs that share a
    # window (a column without sub-diagonal rows has no updates)
    p_out = np.flatnonzero(outer_pair & (b.pair_rows > 0))
    same = pair_j[p_out[1:]] == pair_j[p_out[:-1]]
    same &= win[p_out[1:]] == win[p_out[:-1]]
    cut = np.ones(len(p_out), dtype=bool)
    cut[1:] = ~same
    last = np.ones(len(p_out), dtype=bool)
    last[:-1] = cut[1:]
    seg_p0, seg_p1 = p_out[cut], p_out[last] + 1
    seg_win = win[seg_p0]

    b.pos_ujk = np.empty(len(pair_k), dtype=np.int64)
    b.pos_tgt = np.empty(int(le[-1]), dtype=np.int64)
    # where the compact keys' targets go in the stream; with one window
    # and no column-outer level they are the whole stream, in order
    r_pos: np.ndarray | None = None
    if not single or len(r_keys) < len(b.pos_tgt):
        r_pos = concat_ranges(b.exp_off[p_rest], r_rows)
    r_off = _offsets(r_rows)
    counts = np.bincount(win, minlength=pos_map.n_windows)
    for wi in np.flatnonzero(counts).tolist():
        pos_map.load(wi)
        sel = np.flatnonzero(win == wi)
        ujk = slots[kw[sel] + pair_j[sel]]
        if ujk.min() < 0:
            raise SparseFormatError(
                "symbolic pattern is missing a U entry — filled pattern"
                + " is inconsistent"
            )
        b.pos_ujk[sel] = ujk
        keys = r_keys
        if not single:
            rw = np.flatnonzero(win[p_rest] == wi)
            in_w = concat_ranges(r_off[rw], r_rows[rw])
            keys = keys[in_w]
        if len(keys):
            out = b.pos_tgt if r_pos is None else None
            tgt = np.take(slots, keys, mode="clip", out=out)
            if tgt.min() < 0:
                raise _missing_fill()
            if r_pos is not None:
                b.pos_tgt[r_pos if single else r_pos[in_w]] = tgt
        ws = np.flatnonzero(seg_win == wi)
        p0s = seg_p0[ws]
        for p0, p1, e0, lo, s in zip(
            p0s.tolist(),
            seg_p1[ws].tolist(),
            b.exp_off[p0s].tolist(),
            sub_start[pair_j[p0s]].tolist(),
            b.pair_rows[p0s].tolist(),
        ):
            m = (p1 - p0) * s
            keys = scratch[:m]
            np.add.outer(
                kw[p0:p1], indices[lo : lo + s], out=keys.reshape(p1 - p0, s)
            )
            tgt = b.pos_tgt[e0 : e0 + m]
            np.take(slots, keys, mode="clip", out=tgt)
            if tgt.min() < 0:
                raise _missing_fill()


def _outer_updates(
    b: _BatchPlan,
    u: np.ndarray,
    q: np.ndarray,
    c0: int,
    c1: int,
    p0: int,
    s0: int,
    out: np.ndarray,
) -> None:
    """Write the updates of columns ``c0:c1`` of a column-outer level
    into ``out``, in update order: per column, the ``(pair, row)`` outer
    product of its ``U`` entries (in ``u``, from pair ``p0``) and its
    quotients (in ``q``, from scale entry ``s0``)."""
    po = b.pair_off[c0 : c1 + 1]
    pairs = (po - p0).tolist()
    rows = (b.scale_off[c0 : c1 + 1] - s0).tolist()
    ends = (b.exp_off[po] - b.exp_off[po[0]]).tolist()
    for pa, pb, ra, rb, ea, eb in zip(
        pairs, pairs[1:], rows, rows[1:], ends, ends[1:]
    ):
        if eb > ea:
            np.multiply.outer(
                u[pa:pb], q[ra:rb], out=out[ea:eb].reshape(pb - pa, rb - ra)
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
    level_off = _offsets(
        np.array([len(lv) for lv in schedule.levels], dtype=np.int64)
    )
    all_cols = (
        np.concatenate(schedule.levels).astype(np.int64, copy=False)
        if schedule.num_levels
        else np.empty(0, dtype=np.int64)
    )
    # flattened update count contributed by column j: one row update per
    # (sub-column pair, sub-diagonal row) combination
    col_exp = sc_len[all_cols] * sub_len[all_cols]
    exp_per_level = np.diff(_offsets(col_exp)[level_off]).tolist()

    plan = _NumericPlan()
    plan.diag_pos = diag_pos
    plan.batches = []
    plan.max_level_updates = max(exp_per_level, default=0)
    pos_map = _PositionMap(indptr, indices, col_ids, n)
    # keys of one column-outer (column, window) segment at a time
    scratch = np.empty(int(col_exp.max(initial=0)), dtype=np.int64)

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
        b.pair_off = _offsets(pair_cnt)
        pair_j = np.repeat(cols_cat, pair_cnt)
        pair_k = r_indices[
            concat_ranges(sc_start[cols_cat], pair_cnt)
        ].astype(np.int64, copy=False)
        b.pair_rows = pair_rows = sub_len[pair_j]
        b.exp_off = _offsets(pair_rows)
        sc_cnt = sub_len[cols_cat]
        b.scale_off = _offsets(sc_cnt)
        b.s_flat = concat_ranges(sub_start[cols_cat], sc_cnt)
        b.diag_cat = diag_cat = diag_pos[cols_cat]
        b.s_div = np.repeat(diag_cat, sc_cnt)
        if count_search_steps:
            pair_search = _offsets(pair_rows * probe_depth[pair_k])
        else:
            pair_search = np.zeros(len(pair_k) + 1, dtype=np.int64)

        # the level table: every bound the value loop slices with, each
        # level's kind, and every per-level stat a successful pass books
        lc0, lc1 = col_off[:-1], col_off[1:]
        ls0, ls1 = b.scale_off[lc0], b.scale_off[lc1]
        lp0, lp1 = b.pair_off[lc0], b.pair_off[lc1]
        le0, le1 = b.exp_off[lp0], b.exp_off[lp1]
        missing = _offsets(diag_cat < 0)
        diag_ok = missing[lc1] == missing[lc0]
        one = np.full(len(lc0), -1, dtype=np.int64)
        single = np.flatnonzero((lc1 - lc0 == 1) & diag_ok)
        one[single] = diag_cat[lc0[single]]
        multi = lc1 - lc0 > 1
        outer = multi & (le1 - le0 >= _MIN_OUTER_UPDATES * (lc1 - lc0))
        gathered = multi & ~outer
        g_upd = np.where(gathered, le1 - le0, 0)
        lg = np.where(gathered, _offsets(g_upd)[:-1], -1)
        _resolve_targets(
            b,
            pos_map,
            pair_j,
            pair_k,
            sub_start,
            indices,
            col_off,
            outer,
            gathered,
            scratch,
        )
        search = pair_search[lp1] - pair_search[lp0]
        table = (lc0, lc1, ls0, ls1, lp0, lp1, le0, le1, one, diag_ok, lg)
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
                stats.perturbed_columns.extend(int(c) for c in cols[to_fix])
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
    # the products of every level but a quick one-column step, formed
    # in one buffer per pass
    buf = np.empty(plan.max_level_updates, dtype=data.dtype)
    for b in plan.batches:
        pos_tgt, pos_ujk = b.pos_tgt, b.pos_ujk
        for c0, c1, s0, s1, p0, p1, e0, e1, one, diag_ok, lg in b.levels:
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
                    c1 = c0 + prefix_len
                    s1, p1 = int(b.scale_off[c1]), int(b.pair_off[c1])
                    e1 = int(b.exp_off[p1])
            if s1 > s0:
                s_flat = b.s_flat[s0:s1]
                q = data[s_flat] / data[b.s_div[s0:s1]]
                data[s_flat] = q
            if e1 > e0:
                u = data[pos_ujk[p0:p1]]
                contrib = buf[: e1 - e0]
                if lg >= 0:
                    np.take(
                        data,
                        b.l_flat[lg : lg + e1 - e0],
                        mode="clip",
                        out=contrib,
                    )
                    contrib *= np.repeat(u, b.pair_rows[p0:p1])
                else:
                    _outer_updates(b, u, q, c0, c1, p0, s0, contrib)
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
