"""The end-to-end GPU LU pipeline (Figure 2).

``EndToEndLU`` chains, on one simulated device: pre-processing (host) →
two-stage out-of-core symbolic factorization → GPU levelization → GPU
numeric factorization — the paper's headline contribution of keeping every
phase after pre-processing on the GPU.

The result carries real factors (solvable against real right-hand sides)
*and* the simulated-time ledger broken down by phase, which is what the
benchmark harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import cast

import numpy as np

from ..gpusim import GPU, GPUProxy
from ..graph import DependencyGraph, LevelSchedule, build_dependency_graph
from ..numeric import lu_solve_permuted
from ..preprocess import PreprocessResult, preprocess
from ..sparse import CSCMatrix, CSRMatrix
from ..streams import StreamedGPU
from .config import SolverConfig
from .resilient import (
    RecoveryReport,
    ResilientGPU,
    recovery_log_of,
    refined_solve,
)
from .levelize_gpu import LevelizeResult, levelize_gpu_dynamic
from .numeric_gpu import NumericResult, numeric_factorize_gpu
from .outofcore import SymbolicResult, outofcore_symbolic


@dataclass(frozen=True)
class PhaseBreakdown:
    """Simulated seconds per pipeline phase (the stacked bars of Figs 4-6)."""

    symbolic: float
    levelize: float
    numeric: float
    total: float

    def normalized(self, baseline_total: float) -> "PhaseBreakdown":
        if baseline_total <= 0:
            raise ValueError("baseline total must be positive")
        f = 1.0 / baseline_total
        return PhaseBreakdown(
            self.symbolic * f,
            self.levelize * f,
            self.numeric * f,
            self.total * f,
        )


class FactorSolve:
    """``solve`` of a factorization result, shared by the single- and
    multi-device pipelines so device count cannot change a solution."""

    L: CSCMatrix
    U: CSCMatrix
    pre: PreprocessResult
    schedule: LevelSchedule
    recovery: RecoveryReport | None
    source: CSRMatrix | None

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for the original (pre-permutation) matrix.

        ``b`` is one right-hand side ``(n,)`` or a block ``(n, k)``.
        When pivot recovery perturbed some diagonal entries, the factors
        only approximate ``A``; in that case the solve refines against the
        retained source matrix (:func:`~repro.core.resilient.refined_solve`)
        and records the refinement outcome on :attr:`recovery`.
        """
        rec = self.recovery
        if (
            rec is not None
            and rec.perturbed_columns
            and self.source is not None
        ):
            refined = refined_solve(
                self.source, self.L, self.U, self.pre, self.schedule, b
            )
            rec.refine_iterations = refined.iterations
            rec.final_residual = refined.final_residual
            return refined.x
        return lu_solve_permuted(
            self.L,
            self.U,
            b,
            row_perm=self.pre.row_perm,
            col_perm=self.pre.col_perm,
            schedule=self.schedule,
        )


@dataclass
class EndToEndResult(FactorSolve):
    """Factors + permutations + execution record of one pipeline run."""

    L: CSCMatrix
    U: CSCMatrix
    pre: PreprocessResult
    filled: CSRMatrix
    graph: DependencyGraph
    schedule: LevelSchedule
    symbolic: SymbolicResult
    levelize: LevelizeResult
    numeric: NumericResult
    gpu: GPU
    label: str = "outofcore-gpu"
    #: what the recovery ladder did (``None`` when resilience is disabled)
    recovery: RecoveryReport | None = None
    #: the original matrix, retained when resilience is on so a recovered
    #: solve can refine against the *true* ``A`` (not the perturbed factors)
    source: CSRMatrix | None = None

    # -- reporting ---------------------------------------------------------
    @property
    def sim_seconds(self) -> float:
        return self.gpu.ledger.total_seconds

    def breakdown(self) -> PhaseBreakdown:
        lg = self.gpu.ledger
        return PhaseBreakdown(
            symbolic=lg.seconds("symbolic"),
            levelize=lg.seconds("levelize"),
            numeric=lg.seconds("numeric"),
            total=lg.total_seconds,
        )

    @property
    def fill_ins(self) -> int:
        """New nonzeros introduced by factorization (beyond A's pattern)."""
        return int(self.filled.nnz - self.pre.matrix.nnz)

    def perf_record(self) -> dict:
        """Machine-readable execution record for the perf-snapshot suite.

        Splits into ``counters`` (deterministic integers, compared exactly
        by the regression gate), ``timings`` (simulated seconds and ratios,
        compared within a tolerance band) and ``labels`` (exact-match
        strings such as the chosen numeric format).
        """
        lg = self.gpu.ledger
        bd = self.breakdown()
        counters = {
            "n": int(self.pre.matrix.n_rows),
            "nnz": int(self.pre.matrix.nnz),
            "filled_nnz": int(self.filled.nnz),
            "fill_ins": int(self.fill_ins),
            "levels": int(self.schedule.num_levels),
            "symbolic_iterations": int(self.symbolic.iterations),
            "chunk_plans": len(self.symbolic.plans),
            "max_parallel_columns": int(self.numeric.max_parallel_columns),
            "kernel_launches": lg.get_count("kernel_launches"),
            "child_kernel_launches": lg.get_count("child_kernel_launches"),
            "numeric_kernel_launches": lg.get_count("numeric_kernel_launches"),
            "panel_kernel_launches": lg.get_count("panel_kernel_launches"),
            "supernode_panels": int(self.numeric.panels),
            "panel_waves": int(self.numeric.panel_waves),
            "bytes_h2d": lg.get_count("bytes_h2d"),
            "bytes_d2h": lg.get_count("bytes_d2h"),
            "pool_peak_bytes": int(self.gpu.pool.peak_bytes),
            "pool_total_allocs": int(self.gpu.pool.total_allocs),
        }
        timings = {
            "total_seconds": float(bd.total),
            "symbolic_seconds": float(bd.symbolic),
            "levelize_seconds": float(bd.levelize),
            "numeric_seconds": float(bd.numeric),
            "panelize_seconds": float(lg.seconds("panelize")),
            "numeric_panel_seconds": float(lg.seconds("numeric-panels")),
            "pool_peak_utilization": float(self.gpu.pool.peak_utilization),
        }
        labels = {
            "numeric_format": str(self.numeric.data_format),
            "numeric_path": str(self.numeric.numeric_path),
            "pipeline": self.label,
        }
        return {"counters": counters, "timings": timings, "labels": labels}

    def report(self) -> str:
        """Human-readable execution summary (one run, all phases)."""
        from ..numeric import pivot_growth

        bd = self.breakdown()
        lg = self.gpu.ledger
        lines = [
            f"end-to-end LU [{self.label}] on {self.gpu.spec.name}",
            f"  matrix: n={self.pre.matrix.n_rows}, "
            f"nnz={self.pre.matrix.nnz}, fill-ins={self.fill_ins} "
            f"(filled nnz {self.filled.nnz})",
            f"  schedule: {self.schedule.num_levels} levels; "
            f"symbolic iterations {self.symbolic.iterations}; "
            f"numeric format {self.numeric.data_format} "
            f"(max parallel columns {self.numeric.max_parallel_columns})",
            f"  simulated time: {bd.total * 1e3:.3f} ms = "
            f"symbolic {bd.symbolic * 1e3:.3f} + "
            f"levelize {bd.levelize * 1e3:.3f} + "
            f"numeric {bd.numeric * 1e3:.3f} (+ epilogue)",
            f"  kernels: {lg.get_count('kernel_launches')} host, "
            f"{lg.get_count('child_kernel_launches')} device-launched; "
            f"transfers {lg.get_count('bytes_h2d')} B up / "
            f"{lg.get_count('bytes_d2h')} B down",
            f"  peak device memory: "
            f"{self.gpu.pool.peak_bytes / 2**20:.2f} MiB of "
            f"{self.gpu.spec.memory_bytes / 2**20:.2f} MiB",
            f"  pivot growth max|U|/max|A|: "
            f"{pivot_growth(self.pre.matrix, self.U):.3g}",
        ]
        if self.numeric.numeric_path == "supernodal":
            lines.insert(
                3,
                f"  supernodes: {self.numeric.panels} panels "
                f"({self.numeric.singleton_panels} singleton, "
                f"coverage {self.numeric.panel_coverage:.2f}) in "
                f"{self.numeric.panel_waves} waves",
            )
        if self.recovery is not None and self.recovery.fired:
            lines.append("  " + self.recovery.summary())
        return "\n".join(lines)


class EndToEndLU:
    """Factory for end-to-end GPU LU runs under one configuration."""

    def __init__(self, config: SolverConfig | None = None) -> None:
        self.config = config or SolverConfig()

    def factorize(
        self, a: CSRMatrix, *, gpu: GPU | GPUProxy | None = None
    ) -> EndToEndResult:
        """Run the full pipeline on square matrix ``a``."""
        cfg = self.config
        if gpu is None:
            gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
        if cfg.resilience and recovery_log_of(gpu) is None:
            # rung 1: retry transient faults at the operation level.  The
            # wrapper goes on *outside* any fault injector already wrapped
            # around the device so retries re-execute the injected path.
            gpu = ResilientGPU(gpu)
        if cfg.overlap and not isinstance(gpu, StreamedGPU):
            # outermost wrapper: async enqueues and serial ops (after
            # draining the async region) both pass down the whole stack
            gpu = StreamedGPU(gpu)
        # a proxy stack forwards the whole GPU surface (GPUProxy)
        gpu = cast(GPU, gpu)

        # Pre-processing runs on the host and is outside the paper's
        # measured phases (Figure 2's first box).
        pre = preprocess(a)
        work = pre.matrix

        # -- symbolic ------------------------------------------------------
        if cfg.symbolic_mode == "outofcore":
            sym = outofcore_symbolic(gpu, work, cfg)
        elif cfg.symbolic_mode == "incore":
            sym = self._incore_symbolic(gpu, work)
        else:  # "unified"
            from ..baselines.unified_solver import unified_symbolic

            sym = unified_symbolic(
                gpu, work, cfg, prefetch=cfg.um_prefetch
            )

        # -- levelization -----------------------------------------------------
        graph = build_dependency_graph(sym.filled)
        lev = levelize_gpu_dynamic(gpu, graph)

        # -- numeric ----------------------------------------------------------
        if (
            cfg.symbolic_mode == "outofcore"
            and sym.device_filled is None
        ):
            # the factorized matrix itself exceeded device memory: stream
            # it through the out-of-core numeric executor
            from .numeric_outofcore import numeric_factorize_outofcore

            num, _ = numeric_factorize_outofcore(
                gpu, sym.filled, lev.schedule, cfg
            )
        else:
            num = numeric_factorize_gpu(
                gpu,
                sym.filled.to_csc(),
                sym.filled,
                lev.schedule,
                cfg,
                as_resident=sym.device_filled is not None,
            )

        # release pipeline residents
        if sym.device_filled is not None:
            gpu.free(sym.device_filled)
        for buf in sym.device_graph:
            gpu.free(buf)

        L, U = num.factors()
        recovery = None
        source = None
        if cfg.resilience:
            log = recovery_log_of(gpu)
            ledger = gpu.ledger
            recovery = RecoveryReport(
                events=list(log.events) if log is not None else [],
                op_retries=ledger.get_count("retries"),
                chunk_retries=ledger.get_count("chunk_retries"),
                perturbed_columns=tuple(num.stats.perturbed_columns),
            )
            source = a
        return EndToEndResult(
            L=L,
            U=U,
            pre=pre,
            filled=sym.filled,
            graph=graph,
            schedule=lev.schedule,
            symbolic=sym,
            levelize=lev,
            numeric=num,
            gpu=gpu,
            recovery=recovery,
            source=source,
        )

    def _incore_symbolic(self, gpu: GPU, work: CSRMatrix) -> SymbolicResult:
        """All rows in one chunk — only possible when scratch fits; raises
        :class:`~repro.errors.DeviceMemoryError` otherwise (the condition
        motivating the out-of-core design)."""
        from ..errors import DeviceMemoryError

        n = work.n_rows
        need = n * self.config.scratch_bytes_per_row(n)
        if not gpu.would_fit(need):
            raise DeviceMemoryError(need, gpu.free_bytes, "in-core symbolic")
        return outofcore_symbolic(gpu, work, self.config, dynamic=False)
