"""Incremental re-analysis: delta-splice a donor :class:`ReusableAnalysis`.

A cold :func:`~repro.core.refactorize.analyze` charges the full symbolic
and levelization pipelines even when the new pattern differs from an
already-analyzed one by a handful of nonzeros.  This module reuses the
donor: the fill2 fixpoint is re-run only for the rows the structural
delta (or the fill it induces) actually reaches
(:func:`repro.symbolic.incremental.incremental_fill`), and the simulated
kernels are charged for exactly those rows under dedicated ledger phases
(``symbolic-delta`` / ``levelize-delta``) so the savings are honest and
auditable.

The result is *bitwise identical* to a cold analyze of the perturbed
matrix — same filled pattern, dependency graph, and level schedule —
differing only in charged time.  When the donor's structure survives the
delta unchanged, the donor's schedule object is reused outright, which
also carries over its lazily built plans (``LevelSchedule.plans``).

:data:`MAX_DELTA_FRACTION` bounds when splicing is attempted: past that
fraction of the donor's nonzeros the fill cascade usually swamps the
savings and callers should fall back to the cold oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpusim import GPU
from ..graph import build_dependency_graph, kahn_levels
from ..preprocess import PreprocessResult, preprocess
from ..sparse import CSRMatrix
from ..symbolic import (
    PatternDelta,
    chunk_blocks,
    compute_delta,
    frontier_counts,
    incremental_fill,
    traversal_edges_per_row,
)
from .config import SolverConfig
from .levelize_gpu import wave_workloads
from .refactorize import ReusableAnalysis

__all__ = [
    "IncrementalReport",
    "best_donor",
    "incremental_analyze",
    "incremental_analyze_pre",
]


#: a delta larger than this fraction of the donor's nonzeros takes the
#: full-analysis path
MAX_DELTA_FRACTION = 0.05
#: family members the serve layer probes per miss (probing is host-side
#: and free in simulated time, but unbounded probing would scale poorly
#: with family size)
MAX_DONORS = 4


def _within_budget(delta_size: int, donor_nnz: int) -> bool:
    return delta_size <= MAX_DELTA_FRACTION * max(donor_nnz, 1)


@dataclass(frozen=True)
class IncrementalReport:
    """What one delta splice touched and what it was charged."""

    delta_size: int
    rows_recomputed: int
    rows_changed: int
    structure_changed: bool
    analysis_seconds: float


def best_donor(
    donors: list[ReusableAnalysis],
    pre_matrix: CSRMatrix,
) -> tuple[ReusableAnalysis, PatternDelta] | None:
    """Pick the donor with the smallest in-budget delta to ``pre_matrix``.

    ``pre_matrix`` must already be pre-processed with the same options as
    the donors (deltas are computed in the analyzed ordering).  Returns
    ``None`` when no donor among the first :data:`MAX_DONORS` has a
    delta within :data:`MAX_DELTA_FRACTION`.
    """
    best: tuple[ReusableAnalysis, PatternDelta] | None = None
    for donor in donors[:MAX_DONORS]:
        if donor.pre.matrix.shape != pre_matrix.shape:
            continue
        delta = compute_delta(donor.pre.matrix, pre_matrix)
        if not _within_budget(delta.size, donor.pre.matrix.nnz):
            continue
        if best is None or delta.size < best[1].size:
            best = (donor, delta)
    return best


def incremental_analyze(
    donor: ReusableAnalysis,
    a: CSRMatrix,
    config: SolverConfig | None = None,
    *,
    gpu: GPU | None = None,
) -> tuple[ReusableAnalysis, IncrementalReport] | None:
    """Re-analyze ``a`` by splicing its delta into ``donor``.

    Returns ``None`` — before charging any simulated time — when the
    shapes mismatch or the delta exceeds :data:`MAX_DELTA_FRACTION`; the
    caller then falls back to the cold :func:`~repro.core.analyze`
    oracle.  On success the returned analysis is bitwise identical to
    a cold analyze of ``a`` (pattern, graph, schedule), with only the
    delta cost charged to the ledger.
    """
    cfg = config or donor.config
    if a.shape != donor.pre.matrix.shape:
        return None
    pre = preprocess(a)
    delta = compute_delta(donor.pre.matrix, pre.matrix)
    if not _within_budget(delta.size, donor.pre.matrix.nnz):
        return None
    return incremental_analyze_pre(donor, pre, delta, cfg, gpu=gpu)


def incremental_analyze_pre(
    donor: ReusableAnalysis,
    pre: PreprocessResult,
    delta: PatternDelta,
    config: SolverConfig,
    *,
    gpu: GPU | None = None,
) -> tuple[ReusableAnalysis, IncrementalReport]:
    """Charged delta splice for an already pre-processed matrix.

    The serve layer pre-processes once and compares several donors; this
    entry point skips the redundant preprocessing of
    :func:`incremental_analyze`.  No threshold check happens here — the
    caller has already decided to splice.
    """
    if gpu is None:
        gpu = donor.gpu
    n = pre.matrix.n_rows
    idx = config.index_bytes
    val = config.value_bytes
    ledger = gpu.ledger
    t0 = ledger.total_seconds

    with ledger.phase("symbolic-delta"):
        res = incremental_fill(pre.matrix, donor.filled, delta)
        filled = res.filled
        rows = res.rows_recomputed
        fill_count = filled.row_nnz().astype(np.int64)
        # the input graph must still be shipped to the device — nothing
        # stays resident between analyses
        gpu.h2d((n + 1) * idx + pre.matrix.nnz * (idx + val))
        if len(rows):
            edges_per_row = traversal_edges_per_row(pre.matrix, filled)
            frontier = frontier_counts(filled)
            edges = int(edges_per_row[rows].sum())
            fill_edges = edges + int(fill_count[rows].sum())
            blocks = chunk_blocks(frontier[rows])
            # warp utilization follows the *launched* rows' density, not
            # the whole-matrix average: the delta kernel only scans the
            # dirty rows, which carry their fill and saturate their warps
            # (the paper's Fig. 4 density effect, restricted to the
            # splice's working set)
            gpu.launch_traversal(
                edges=edges,
                avg_degree=edges / len(rows),
                blocks=blocks,
            )
            # prefix-sum over the affected rows + total back to the host
            gpu.launch_utility(len(rows))
            # stage 2: re-traverse, writing the recomputed rows' entries
            gpu.launch_traversal(
                edges=fill_edges,
                avg_degree=fill_edges / len(rows),
                blocks=blocks,
            )
        out_rows = res.rows_changed
        out_bytes = (
            int(fill_count[out_rows].sum()) * (idx + val)
            if len(out_rows)
            else 0
        )
        gpu.d2h(out_bytes + 8)

    structure_changed = bool(len(res.rows_changed))
    if structure_changed:
        graph = build_dependency_graph(filled)
        with ledger.phase("levelize-delta"):
            schedule = kahn_levels(graph)
            # repair waves only where membership could have moved: the
            # structurally-changed columns plus every column whose level
            # actually shifted
            affected = np.zeros(n, dtype=bool)
            affected[res.rows_changed] = True
            affected |= schedule.level_of != donor.schedule.level_of
            for hit, edges in wave_workloads(graph, schedule, affected):
                if hit:
                    gpu.launch_utility(max(1, edges), from_device=True)
                    gpu.launch_utility(hit, from_device=True)
            gpu.d2h(int(affected.sum()) * 4)
    else:
        # identical structure: the donor's graph and schedule objects are
        # reused as-is, which also carries over the schedule's lazily
        # built plans — no levelization work to charge
        graph = donor.graph
        schedule = donor.schedule

    analysis = ReusableAnalysis(
        gpu=gpu,
        config=config,
        pre=pre,
        filled=filled,
        graph=graph,
        schedule=schedule,
        analysis_seconds=ledger.total_seconds - t0,
    )
    report = IncrementalReport(
        delta_size=delta.size,
        rows_recomputed=len(res.rows_recomputed),
        rows_changed=len(res.rows_changed),
        structure_changed=structure_changed,
        analysis_seconds=analysis.analysis_seconds,
    )
    return analysis, report
