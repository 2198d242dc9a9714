"""Levelization: grouping independent columns for parallel factorization.

Columns within one level have no dependency edge between them and can be
factorized concurrently (Figure 1(c)/(d)).  The level of a column is the
longest-path depth in the dependency DAG:

    level(k) = max(-1, level(c1), level(c2), ...) + 1

:func:`kahn_levels` computes it with the classic Kahn queue formulation,
whose GPU dynamic-parallelism port is the paper's Algorithm 5
(:mod:`repro.core.levelize_gpu`).  Tests assert it agrees with the
GLU 3.0-style sequential pass previous work ran on the host
(:func:`repro.oracles.levelize_cpu`, the baseline of §3.3) and with
networkx's longest-path computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import CycleError
from ..sparse.ranges import concat_ranges
from ..sparse.types import INDEX_DTYPE
from .depgraph import DependencyGraph

if TYPE_CHECKING:
    from ..core.numeric_gpu import _LaunchInputs
    from ..numeric.supernodal import SupernodalPlan
    from ..numeric.trisolve import SolvePlan
    from ..numeric.vectorized import _NumericPlan

#: GLU 3.0 level taxonomy (§2.2): type A levels have many columns with few
#: sub-columns, type C few columns with many sub-columns, type B the
#: transition.  The thresholds are cost-consistent with the kernel model in
#: :mod:`repro.core.numeric_gpu`: a level becomes type C exactly when its
#: sub-column concurrency exceeds what type B's per-block warp teams could
#: expose (``mean_sub > WARP_TEAMS x ncols``), and type A when sub-column
#: counts are too small to matter.  They shape only the kernel-mode choice,
#: never correctness.
TYPE_A_MAX_SUBCOLS = 1.5
TYPE_C_WARP_TEAMS = 8

#: waves with at most this many out-edges decrement in-degrees in a
#: Python loop; larger waves pay the (fixed) cost of a bulk bincount
_SCALAR_WAVE_EDGES = 64


@dataclass(slots=True)
class PatternPlans:
    """Everything derived from the filled pattern a schedule came from.

    Each plan is built lazily by the module that reads it; this store
    only owns the results.  ``pattern`` is the ``(n, nnz)`` of the filled
    pattern they belong to (:meth:`LevelSchedule.plans_for`).
    """

    pattern: tuple[int, int] = (-1, -1)
    #: kernel plans (:mod:`repro.numeric.vectorized`), by
    #: ``count_search_steps``
    numeric: dict[bool, _NumericPlan] = field(default_factory=dict)
    #: panel schedules (:mod:`repro.numeric.supernodal`), by
    #: ``(relax, max_panel, tile_elems)``
    supernodal: dict[tuple[int, int, int], SupernodalPlan] = field(
        default_factory=dict
    )
    #: SuperLU inputs of both sweeps (:mod:`repro.numeric.trisolve`)
    solve: SolvePlan | None = None
    #: read-only sorted-CSC ``(indptr, indices)``
    #: (:mod:`repro.core.refactorize`)
    csc_layout: tuple[np.ndarray, np.ndarray] | None = None
    #: launch inputs and charge tapes (:mod:`repro.core.numeric_gpu`)
    launch: _LaunchInputs | None = None


@dataclass(slots=True)
class LevelSchedule:
    """The output of levelization: a parallel execution plan for columns.

    A schedule is born from exactly one filled pattern, so it also holds
    that pattern's derived plans (:class:`PatternPlans`).
    """

    level_of: np.ndarray  # level id per column
    levels: list[np.ndarray] = field(default_factory=list)  # columns per level
    plans: PatternPlans = field(
        default_factory=PatternPlans, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.levels and len(self.level_of):
            num = int(self.level_of.max()) + 1
            order = np.argsort(self.level_of, kind="stable")
            bounds = np.searchsorted(self.level_of[order], np.arange(num + 1))
            self.levels = [
                order[bounds[k] : bounds[k + 1]].astype(INDEX_DTYPE)
                for k in range(num)
            ]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def n(self) -> int:
        return len(self.level_of)

    def plans_for(self, n: int, nnz: int) -> PatternPlans:
        """The plans of the filled pattern with ``n`` columns and ``nnz``
        entries.  This is the one validity check of every cached plan:
        asked for another pattern, the schedule drops all of them."""
        if self.plans.pattern != (n, nnz):
            self.plans = PatternPlans((n, nnz))
        return self.plans

    def columns_per_level(self) -> np.ndarray:
        return np.array([len(lv) for lv in self.levels], dtype=np.int64)

    def validate_against(self, graph: DependencyGraph) -> None:
        """Assert the schedule respects every dependency edge; the first
        violating edge in CSR order is named."""
        src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
        lvl = self.level_of
        bad = np.flatnonzero(lvl[graph.targets] <= lvl[src])
        if len(bad):
            i, j = int(src[bad[0]]), int(graph.targets[bad[0]])
            raise AssertionError(
                f"edge {i}->{j} violates levels "
                f"{int(lvl[i])} -> {int(lvl[j])}"
            )

    def classify_levels(self, sub_cols: np.ndarray) -> list[str]:
        """GLU 3.0 type A/B/C tag per level (drives kernel-mode choice),
        from each level's mean sub-column count."""
        num = self.num_levels
        ncols = np.bincount(self.level_of, minlength=num)
        sums = np.bincount(self.level_of, weights=sub_cols, minlength=num)
        mean_sub = np.divide(sums, ncols, out=np.zeros(num), where=ncols > 0)
        tags = np.where(mean_sub > TYPE_C_WARP_TEAMS * ncols, "C", "B")
        tags[mean_sub <= TYPE_A_MAX_SUBCOLS] = "A"
        return tags.tolist()


def _wave_sweep(
    graph: DependencyGraph,
) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Bulk Kahn wave sweep: ``(level_of, levels, nodes_processed)``.

    Each wave gathers the successor lists of *all* wave nodes with one
    ragged gather (:func:`concat_ranges`) and decrements in-degrees with
    one ``bincount`` — the host-side analogue of Algorithm 5's one-block
    ``Topo`` kernel.  Waves with only a handful of edges decrement
    edge-at-a-time instead, skipping the bincount's fixed cost.  A
    node's wave index equals its longest-path depth (it reaches
    in-degree zero right after its last predecessor).
    """
    indptr = graph.indptr
    targets = graph.targets
    indeg = graph.in_degree.copy()
    level = np.full(graph.n, -1, dtype=INDEX_DTYPE)
    queue = np.flatnonzero(indeg == 0).astype(INDEX_DTYPE)
    processed = 0
    level_num = 0
    levels: list[np.ndarray] = []
    while len(queue):
        level[queue] = level_num
        levels.append(queue)
        processed += len(queue)
        if len(queue) == 1:
            q = int(queue[0])
            cat = targets[int(indptr[q]) : int(indptr[q + 1])]
        else:
            starts = indptr[queue]
            cat = targets[concat_ranges(starts, indptr[queue + 1] - starts)]
        if len(cat) <= _SCALAR_WAVE_EDGES:
            # tiny wave: decrement edge-at-a-time — cheaper than the
            # fixed cost of a bincount + full-array scan
            nxt: list[int] = []
            for t in cat.tolist():
                d = int(indeg[t]) - 1
                indeg[t] = d
                if d == 0:
                    nxt.append(t)
            nxt.sort()
            queue = np.asarray(nxt, dtype=INDEX_DTYPE)
        else:
            dec = np.bincount(cat, minlength=graph.n)
            indeg -= dec
            queue = np.flatnonzero((indeg == 0) & (dec > 0)).astype(
                INDEX_DTYPE
            )
        level_num += 1
    return level, levels, processed


def kahn_levels(graph: DependencyGraph) -> LevelSchedule:
    """Kahn's algorithm by frontier waves; the CPU reference of Algorithm 5.

    Level ``k`` is the k-th wave of zero-in-degree nodes.  Raises
    :class:`~repro.errors.CycleError` if the graph is not a DAG.
    """
    level, levels, processed = _wave_sweep(graph)
    if processed != graph.n:
        raise CycleError(graph.n - processed)
    return LevelSchedule(level_of=level, levels=levels)
