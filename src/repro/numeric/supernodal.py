"""Supernodal (blocked) execution plan for the numeric phase.

The supernodal path changes *how the timeline is modeled*, never the
numbers: values are still produced by the per-column right-looking
kernel (:func:`repro.numeric.factorize_in_place`),
which stays the differential oracle — the same identical-by-construction
contract the multi-GPU solver and the streams overlap use.  What this
module computes is the panel-wave *charging schedule* the simulated GPU
books instead of the per-level scattered kernels:

* columns are amalgamated into contiguous panels by
  :func:`repro.graph.amalgamate_supernodes` (padding budget ``relax``,
  width cap ``max_panel``);
* panels are scheduled in *waves* — level sets of the panel quotient
  DAG, built by collapsing the column dependency graph through the
  panel map (grouping columns by member level would not be
  dependency-safe: two panels can interleave levels yet still depend on
  each other);
* each wave charges at most three kernels:

  1. one scattered per-column kernel for the wave's *singleton* panels
     (divisions + all their updates + their Alg. 6 binary-search probes
     — circuit-class matrices stay on the oracle's cost shape);
  2. one dense-block **panel factor** kernel for the multi-column
     panels (divisions + updates whose target column lies in the same
     panel);
  3. one **panel-panel update** kernel for the remaining updates
     sourced from multi-column panels (the BLAS-3-style GEMM sweep).

  Multi-column panels share one resolved structure, so their charges
  carry *no* binary-search term and occupancy counts dense tiles — the
  two levers that make the blocked path faster where supernodes form.

Everything here depends only on the filled pattern and the partition
knobs, so the plan is kept in the schedule's plan store
(:class:`~repro.graph.PatternPlans`) and refactorization passes reuse it
for free.  Work totals are conserved exactly: the plan's flop
sum equals the oracle's ``div_flops + update_flops``, asserted by the
executor on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import (
    DependencyGraph,
    LevelSchedule,
    SupernodePartition,
    amalgamate_supernodes,
    build_dependency_graph,
    kahn_levels,
)
from ..sparse import CSRMatrix
from ..sparse.ranges import concat_ranges
from ..sparse.types import INDEX_DTYPE

__all__ = [
    "PanelWave",
    "SupernodalPlan",
    "build_supernodal_plan",
    "supernodal_plan_for",
]


@dataclass(frozen=True)
class PanelWave:
    """Charging aggregate of one panel wave (a quotient-DAG level)."""

    panels: int  # panels scheduled in this wave
    cols: int  # total columns (drives the dense-format HBM traffic)
    #: singleton panels: scattered per-column kernel, oracle cost shape
    singleton_cols: int
    #: thread blocks of the scattered kernel — one per sub-column work
    #: group, the same parallelism source the per-column taxonomy models
    singleton_blocks: int
    singleton_flops: int
    singleton_search: int
    #: multi-column panels: dense-block factor kernel
    multi_panels: int
    factor_flops: int
    factor_tiles: int
    #: panel-panel update kernel (updates sourced from multi panels)
    update_flops: int
    update_tiles: int


class SupernodalPlan:
    """Everything about the blocked charging schedule values can't change.

    Kept in the schedule's plan store keyed by the partition knobs
    (:func:`supernodal_plan_for`).
    """

    __slots__ = (
        "n", "nnz", "relax", "max_panel", "tile_elems",
        "partition", "waves", "total_flops", "total_search",
        "quotient_edges",
    )

    n: int
    nnz: int
    relax: int
    max_panel: int
    tile_elems: int
    partition: SupernodePartition
    waves: list[PanelWave]
    #: conservation check target: equals the oracle's div+update flops
    total_flops: int
    #: Alg. 6 probes the *scattered* kernels still pay (singletons only)
    total_search: int
    quotient_edges: int

    # -- summary ---------------------------------------------------------
    @property
    def num_panels(self) -> int:
        return self.partition.num_supernodes

    @property
    def num_waves(self) -> int:
        return len(self.waves)

    @property
    def singleton_panels(self) -> int:
        return int((self.partition.sizes() == 1).sum())

    @property
    def multi_panels(self) -> int:
        return self.num_panels - self.singleton_panels

    def coverage(self) -> float:
        return self.partition.coverage()


def _quotient_levels(
    filled: CSRMatrix, panel_of: np.ndarray, num_panels: int
) -> tuple[LevelSchedule, int]:
    """Levelize the panel quotient DAG of the column dependency graph.

    Column edges always point forward (``i -> j`` with ``i < j``) and
    panels are contiguous, so quotient edges point from lower to higher
    panel ids — the quotient is a DAG by construction.
    """
    g = build_dependency_graph(filled)
    src = np.repeat(
        np.arange(g.n, dtype=np.int64), np.diff(g.indptr)
    )
    ps = panel_of[src].astype(np.int64, copy=False)
    pt = panel_of[g.targets].astype(np.int64, copy=False)
    keep = ps != pt
    key = np.unique(ps[keep] * num_panels + pt[keep])
    qs = (key // num_panels).astype(INDEX_DTYPE)
    qt = (key % num_panels).astype(INDEX_DTYPE)
    indptr = np.zeros(num_panels + 1, dtype=INDEX_DTYPE)
    indptr[1:] = np.cumsum(np.bincount(qs, minlength=num_panels))
    quotient = DependencyGraph(
        n=num_panels,
        indptr=indptr,
        targets=qt,
        in_degree=np.bincount(qt, minlength=num_panels).astype(
            INDEX_DTYPE
        ),
    )
    return kahn_levels(quotient), len(key)


def build_supernodal_plan(
    filled: CSRMatrix,
    *,
    relax: int = 0,
    max_panel: int = 32,
    tile_elems: int = 1024,
) -> SupernodalPlan:
    """Amalgamate, levelize the quotient, and aggregate per-wave charges.

    All quantities are derived from the filled pattern with the same
    structural formulas the oracle's stats use (``sub_len[j]`` divisions
    per column, ``2 * sub_len[j]`` update flops per ``(j, k)`` sub-column
    pair, ``sub_len[j] * ceil(log2(col_nnz[k]))`` probe steps), so the
    plan's totals tie out against the measured
    :class:`~repro.numeric.rightlooking.NumericStats` exactly.
    """
    n = filled.n_rows
    csc = filled.to_csc()
    partition = amalgamate_supernodes(
        relax=relax, max_panel=max_panel, csc=csc
    )
    plan = SupernodalPlan()
    plan.n = n
    plan.nnz = filled.nnz
    plan.relax = int(relax)
    plan.max_panel = int(max_panel)
    plan.tile_elems = int(tile_elems)
    plan.partition = partition
    if n == 0:
        plan.waves = []
        plan.total_flops = 0
        plan.total_search = 0
        plan.quotient_edges = 0
        return plan

    num_panels = partition.num_supernodes
    sizes = partition.sizes()
    panel_of = partition.panel_of().astype(np.int64, copy=False)
    boundaries = partition.boundaries.astype(np.int64, copy=False)
    schedule, quotient_edges = _quotient_levels(
        filled, panel_of, num_panels
    )

    # -- per-column structural quantities (oracle formulas) -------------
    indptr = csc.indptr.astype(np.int64, copy=False)
    indices = csc.indices
    col_ids = csc.col_ids_of_entries().astype(np.int64, copy=False)
    hits = np.flatnonzero(indices == col_ids)
    diag_pos = np.full(n, -1, dtype=np.int64)
    diag_pos[col_ids[hits]] = hits
    sub_start = diag_pos + 1
    sub_len = np.where(diag_pos >= 0, indptr[1:] - sub_start, 0)
    col_nnz = np.diff(indptr)
    probe_depth = np.maximum(
        1, np.ceil(np.log2(np.maximum(2, col_nnz))).astype(np.int64)
    )

    # sub-column pairs (j, k): entries of filled row j right of the diag
    r_indptr = filled.indptr.astype(np.int64, copy=False)
    r_indices = filled.indices
    r_keys = (
        filled.row_ids_of_entries().astype(np.int64, copy=False) * n
        + r_indices
    )
    ar = np.arange(n, dtype=np.int64)
    sc_start = np.searchsorted(r_keys, ar * n + ar, side="right")
    sc_len = r_indptr[1:] - sc_start
    pair_j = np.repeat(ar, sc_len)
    pair_k = r_indices[concat_ranges(sc_start, sc_len)].astype(
        np.int64, copy=False
    )
    pair_flops = 2 * sub_len[pair_j]
    pair_search = sub_len[pair_j] * probe_depth[pair_k]

    def _col_sum(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.bincount(
            pair_j[mask], weights=values[mask].astype(np.float64),
            minlength=n,
        ).astype(np.int64)

    all_pairs = np.ones(len(pair_j), dtype=bool)
    col_update_flops = _col_sum(all_pairs, pair_flops)
    col_search = _col_sum(all_pairs, pair_search)
    intra = panel_of[pair_j] == panel_of[pair_k]
    col_intra_flops = _col_sum(intra, pair_flops)
    col_inter_flops = col_update_flops - col_intra_flops

    multi_col = (sizes >= 2)[panel_of]  # per-column: in a multi panel?

    # -- per-panel aggregates -------------------------------------------
    def _panel_sum(values: np.ndarray) -> np.ndarray:
        return np.bincount(
            panel_of, weights=values.astype(np.float64),
            minlength=num_panels,
        ).astype(np.int64)

    sing_flops = _panel_sum(
        np.where(~multi_col, sub_len + col_update_flops, 0)
    )
    sing_search = _panel_sum(np.where(~multi_col, col_search, 0))
    sing_blocks = _panel_sum(
        np.where(~multi_col, np.maximum(1, sc_len), 0)
    )
    factor_flops = _panel_sum(
        np.where(multi_col, sub_len + col_intra_flops, 0)
    )
    update_flops = _panel_sum(np.where(multi_col, col_inter_flops, 0))

    # factor tiles: the panel's dense storage is its diagonal block plus
    # the shared below-panel row set — size x (size + |S|) elements
    factor_tiles = np.zeros(num_panels, dtype=np.int64)
    for p in np.flatnonzero(sizes >= 2):
        c0, e = int(boundaries[p]), int(boundaries[p + 1])
        seg = indices[
            concat_ranges(sub_start[c0:e], sub_len[c0:e])
        ]
        s_size = len(np.unique(seg[seg >= e]))
        elems = (e - c0) * ((e - c0) + s_size)
        factor_tiles[p] = -(-elems // tile_elems)

    # update tiles: one GEMM tile set per (source panel, target panel)
    # block pair; elements = update targets the pair touches
    inter_src = multi_col[pair_j] & ~intra
    update_tiles = np.zeros(num_panels, dtype=np.int64)
    if inter_src.any():
        gsrc = panel_of[pair_j[inter_src]]
        gkey = gsrc * num_panels + panel_of[pair_k[inter_src]]
        ukey, inverse = np.unique(gkey, return_inverse=True)
        group_elems = np.bincount(
            inverse,
            weights=sub_len[pair_j[inter_src]].astype(np.float64),
        ).astype(np.int64)
        group_tiles = -(-group_elems // tile_elems)
        update_tiles = np.bincount(
            ukey // num_panels, weights=group_tiles.astype(np.float64),
            minlength=num_panels,
        ).astype(np.int64)

    # -- fold panels into waves -----------------------------------------
    is_multi = sizes >= 2
    waves: list[PanelWave] = []
    for w, panels in enumerate(schedule.levels):
        panels = np.asarray(panels, dtype=np.int64)
        multi = panels[is_multi[panels]]
        single = panels[~is_multi[panels]]
        waves.append(
            PanelWave(
                panels=len(panels),
                cols=int(sizes[panels].sum()),
                singleton_cols=len(single),
                singleton_blocks=int(sing_blocks[single].sum()),
                singleton_flops=int(sing_flops[single].sum()),
                singleton_search=int(sing_search[single].sum()),
                multi_panels=len(multi),
                factor_flops=int(factor_flops[multi].sum()),
                factor_tiles=int(factor_tiles[multi].sum()),
                update_flops=int(update_flops[multi].sum()),
                update_tiles=int(update_tiles[multi].sum()),
            )
        )

    plan.waves = waves
    plan.total_flops = int(
        sing_flops.sum() + factor_flops.sum() + update_flops.sum()
    )
    plan.total_search = int(sing_search.sum())
    plan.quotient_edges = quotient_edges
    return plan


def supernodal_plan_for(
    filled: CSRMatrix,
    schedule: LevelSchedule,
    *,
    relax: int = 0,
    max_panel: int = 32,
    tile_elems: int = 1024,
    gpu=None,
) -> SupernodalPlan:
    """Cached plan lookup (build + charge on first use).

    The plan is kept in the schedule's plan store
    (:class:`~repro.graph.PatternPlans`) — a schedule is born from
    exactly one filled pattern, so the key is just the partition knobs.
    When ``gpu`` is given, a cache miss charges the panel-schedule
    construction (one serial pass over the pattern plus the quotient
    levelization) to the ledger's ``panelize`` phase; cache hits — every
    refactorization after the first, or any pass after
    :func:`repro.core.refactorize.analyze` pre-warmed the plan — charge
    nothing, mirroring how real solvers amortize analysis.
    """
    plans = schedule.plans_for(filled.n_rows, filled.nnz)
    key = (int(relax), int(max_panel), int(tile_elems))
    plan = plans.supernodal.get(key)
    if plan is not None:
        return plan
    plan = build_supernodal_plan(
        filled, relax=relax, max_panel=max_panel, tile_elems=tile_elems
    )
    plans.supernodal[key] = plan
    if gpu is not None:
        with gpu.ledger.phase("panelize"):
            gpu.ledger.charge(
                gpu.cost.cpu_serial_seconds(
                    plan.n + plan.nnz + plan.quotient_edges
                )
            )
    return plan
