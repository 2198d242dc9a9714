"""Numeric-only re-factorization on a reused symbolic analysis.

The paper's motivating workload — circuit simulation (§1) — factorizes the
*same pattern* thousands of times with changing values (Newton iterations,
time steps).  The expensive phases (symbolic factorization, levelization)
depend only on the pattern, so a production flow runs them once and then
re-runs only numeric factorization per step.

:class:`ReusableAnalysis` packages the pattern-dependent state (filled
pattern, dependency graph, level schedule, value scatter map) and
:meth:`ReusableAnalysis.refactorize` executes a numeric-only pipeline pass
for new values, returning a solvable result that shares the analysis.

A pass re-derives no structure.  Like GLU3.0's refactorization (Peng and
Tan, https://arxiv.org/abs/1908.00204), which keeps every index map
across Newton steps and re-runs only the value arithmetic, it reuses:

* the filled pattern's sorted-CSC ``indptr``/``indices``, built once per
  pattern and kept read-only in the schedule's plan store
  (:class:`~repro.graph.PatternPlans`);
* the scatter map, which sends every original entry straight to its
  position in that CSC, so the values are placed by one scatter into a
  zeroed array with no CSR-to-CSC sort;
* the L/U split structure (:class:`~repro.sparse.pattern.LUSplit`: both
  factors' ``indptr``/``indices`` and the masks that pick each factor's
  values), so the split after the kernel is a value gather;
* the kernel's numeric plan, the per-level launch inputs of the charge
  and, for the solve, the solve plan (all in the same plan store).

A pass therefore costs one scatter, the kernel's value passes, the
split's gather and the same simulated charges as a cold factorization's
numeric phase.  A cold factorization splits through the same structure,
built for that one call.  Only a pattern whose pre-processing permuted
it still sorts once per pass: :func:`~repro.sparse.permute` re-applies
the permutation to the values.  Whether it did is a structure-only
fact, decided once per analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SparseFormatError
from ..gpusim import GPU
from ..graph import DependencyGraph, LevelSchedule, build_dependency_graph
from ..numeric import lu_solve_permuted
from ..preprocess import PreprocessResult, preprocess, require_finite
from ..sparse import CSCMatrix, CSRMatrix
from ..sparse.pattern import LUSplit
from ..sparse.types import INDEX_DTYPE
from .config import SolverConfig
from .levelize_gpu import levelize_gpu_dynamic
from .numeric_gpu import NumericResult, numeric_factorize_gpu
from .outofcore import outofcore_symbolic
from .resilient import refined_solve


@dataclass
class RefactorizeResult:
    """Factors from one numeric-only pass (shares its analysis)."""

    L: CSCMatrix
    U: CSCMatrix
    numeric: NumericResult
    analysis: "ReusableAnalysis"
    #: the pass's input matrix, which a recovered solve refines against
    source: CSRMatrix

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``source x = b``; after pivot perturbation the solve
        refines against ``source`` (one right-hand side only), as
        :meth:`repro.core.EndToEndResult.solve` does."""
        pre = self.analysis.pre
        schedule = self.analysis.schedule
        if self.numeric.perturbed_columns:
            return refined_solve(
                self.source, self.L, self.U, pre, schedule, b
            ).x
        return lu_solve_permuted(
            self.L,
            self.U,
            b,
            row_perm=pre.row_perm,
            col_perm=pre.col_perm,
            schedule=schedule,
        )

    @property
    def sim_seconds(self) -> float:
        return self.numeric.sim_seconds


def filled_csc_layout(
    filled: CSRMatrix, schedule: LevelSchedule
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-CSC ``(indptr, indices)`` of the filled pattern.

    Built once per pattern and kept in the schedule's plan store
    (:class:`~repro.graph.PatternPlans`; a schedule is born from exactly
    one filled pattern).  Both arrays are read-only: every pass wraps
    them in a fresh :class:`CSCMatrix` around its own values.
    """
    plans = schedule.plans_for(filled.n_rows, filled.nnz)
    if plans.csc_layout is None:
        csc = filled.to_csc()
        csc.indptr.setflags(write=False)
        csc.indices.setflags(write=False)
        plans.csc_layout = (csc.indptr, csc.indices)
    return plans.csc_layout


def filled_lu_split(filled: CSRMatrix, schedule: LevelSchedule) -> LUSplit:
    """L/U split structure of the filled pattern's sorted CSC.

    Kept read-only in the schedule's plan store beside the layout, so a
    pass's split (:meth:`LUSplit.apply`) only gathers values.
    """
    plans = schedule.plans_for(filled.n_rows, filled.nnz)
    if plans.lu_split is None:
        plans.lu_split = LUSplit.of(*filled_csc_layout(filled, schedule))
    return plans.lu_split


class ReusableAnalysis:
    """Pattern-dependent analysis of a matrix, reusable across value sets.

    Build once with :func:`analyze`; call :meth:`refactorize` with matrices
    sharing the *exact original pattern* (same ``indptr``/``indices``).
    """

    def __init__(
        self,
        gpu: GPU,
        config: SolverConfig,
        pre: PreprocessResult,
        filled: CSRMatrix,
        graph: DependencyGraph,
        schedule: LevelSchedule,
        analysis_seconds: float,
    ) -> None:
        self.gpu = gpu
        self.config = config
        self.pre = pre
        self.filled = filled
        self.graph = graph
        self.schedule = schedule
        self.analysis_seconds = analysis_seconds
        #: pattern-family tag used by the serving caches for near-miss
        #: donor lookups (set by the serve layer; None = untagged)
        self.family: str | None = None
        self._pattern_indptr = pre.matrix.indptr.copy()
        self._pattern_indices = pre.matrix.indices.copy()
        ident = np.arange(pre.matrix.n_rows, dtype=INDEX_DTYPE)
        self._permuted = not (
            np.array_equal(pre.row_perm, ident)
            and np.array_equal(pre.col_perm, ident)
        )
        # scatter map: position of every original entry inside the filled
        # pattern's sorted CSC (fill positions stay zero until overwritten
        # by updates)
        self._scatter = self._build_scatter_map()

    def _build_scatter_map(self) -> np.ndarray:
        # column-major keys of the filled CSC are sorted, so one batched
        # search places every original entry
        indptr, indices = filled_csc_layout(self.filled, self.schedule)
        n_rows = self.filled.n_rows
        cols = np.repeat(
            np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
        )
        dst_keys = cols * n_rows + indices
        a = self.pre.matrix
        src_keys = a.indices.astype(np.int64) * n_rows + a.row_ids_of_entries()
        pos = np.searchsorted(dst_keys, src_keys)
        found = pos < len(dst_keys)
        found[found] = dst_keys[pos[found]] == src_keys[found]
        if not found.all():
            raise SparseFormatError(
                "filled pattern is missing an original entry"
            )
        return pos.astype(INDEX_DTYPE)

    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return self.schedule.num_levels

    @property
    def nbytes(self) -> int:
        """Approximate host bytes retained by this analysis.

        Sums every ndarray the analysis keeps alive (pre-processed matrix,
        permutations, filled pattern, dependency graph, level schedule,
        scatter map, pattern snapshot).  The serving cache
        (:mod:`repro.serve.cache`) uses this for its byte-budget
        accounting, so the figure only needs to be proportional to the
        true footprint, not exact.
        """
        arrays: list[np.ndarray] = [
            self.pre.matrix.indptr,
            self.pre.matrix.indices,
            self.pre.matrix.data,
            self.pre.row_perm,
            self.pre.col_perm,
            self.filled.indptr,
            self.filled.indices,
            self.filled.data,
            self.graph.indptr,
            self.graph.targets,
            self.graph.in_degree,
            self.schedule.level_of,
            self._pattern_indptr,
            self._pattern_indices,
            self._scatter,
        ]
        total = sum(int(arr.nbytes) for arr in arrays)
        total += sum(int(lv.nbytes) for lv in self.schedule.levels)
        return total

    def same_pattern(self, a: CSRMatrix) -> bool:
        return (
            a.shape == self.pre.matrix.shape
            and np.array_equal(a.indptr, self._pattern_indptr)
            and np.array_equal(a.indices, self._pattern_indices)
        )

    def refactorize(self, a: CSRMatrix) -> RefactorizeResult:
        """Numeric-only factorization of new values on the same pattern.

        ``a`` must be the matrix *after* applying the analysis's
        pre-processing permutation would yield the analyzed pattern; in
        practice: the same generator/stamper output with new values.  The
        row permutation recorded at analysis time is re-applied to the
        values here.  Non-finite values raise
        :class:`~repro.errors.NonFiniteValueError` before any device
        work.
        """
        # re-apply the recorded permutation to the new values
        work = a
        if self._permuted:
            from ..sparse import permute

            work = permute(
                work, row_perm=self.pre.row_perm, col_perm=self.pre.col_perm
            )
        if not self.same_pattern(work):
            raise SparseFormatError(
                "refactorize requires the exact analyzed pattern; run "
                "analyze() again for a structurally different matrix"
            )
        require_finite(work.data)
        indptr, indices = filled_csc_layout(self.filled, self.schedule)
        data = np.zeros(self.filled.nnz, dtype=self.config.compute_dtype)
        data[self._scatter] = work.data
        As = CSCMatrix(
            self.filled.n_rows,
            self.filled.n_cols,
            indptr,
            indices,
            data,
            check=False,
        )
        num = numeric_factorize_gpu(
            self.gpu,
            As,
            self.filled,
            self.schedule,
            self.config,
            as_resident=False,
        )
        L, U = num.factors(filled_lu_split(self.filled, self.schedule))
        return RefactorizeResult(
            L=L, U=U, numeric=num, analysis=self, source=a
        )


def analyze(
    a: CSRMatrix, config: SolverConfig | None = None, *, gpu: GPU | None = None
) -> ReusableAnalysis:
    """Run the pattern-dependent phases once (Figure 2 minus numeric).

    Returns a :class:`ReusableAnalysis` whose :meth:`refactorize` performs
    numeric-only passes — the circuit-simulation amortization pattern.
    """
    cfg = config or SolverConfig()
    if gpu is None:
        gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
    t0 = gpu.ledger.total_seconds
    pre = preprocess(a)
    sym = outofcore_symbolic(gpu, pre.matrix, cfg)
    graph = build_dependency_graph(sym.filled)
    lev = levelize_gpu_dynamic(gpu, graph)
    if cfg.supernodal:
        # pre-warm the panel schedule so it is charged (``panelize``)
        # here with the other pattern-dependent phases; every
        # refactorize pass then hits the plan cache for free — the same
        # amortization real supernodal solvers get from their analysis
        from ..numeric.supernodal import supernodal_plan_for

        supernodal_plan_for(
            sym.filled,
            lev.schedule,
            tile_elems=cfg.cost_model.panel_tile_elems,
            gpu=gpu,
        )
    # the reusable analysis keeps nothing device-resident between passes
    if sym.device_filled is not None:
        gpu.free(sym.device_filled)
    for buf in sym.device_graph:
        gpu.free(buf)
    return ReusableAnalysis(
        gpu=gpu,
        config=cfg,
        pre=pre,
        filled=sym.filled,
        graph=graph,
        schedule=lev.schedule,
        analysis_seconds=gpu.ledger.total_seconds - t0,
    )
