"""Level-scheduled sparse triangular solves on the simulated GPU.

The paper factorizes on the GPU; a complete ``A x = b`` flow also needs the
two triangular solves.  Like numeric factorization, sparse substitution is
limited by dependency chains: unknown ``x[j]`` can be resolved only after
every column ``k`` with ``L(j, k) != 0`` has scattered its update.  The
standard GPU approach — and the one the paper's citation [28]
(synchronization-free trisolve) builds on — is *level scheduling*: group
unknowns by longest-path depth in the triangular pattern's DAG and launch
one kernel (or child kernel) per level.

This module reuses the repository's Kahn infrastructure on the factor
patterns and charges the simulated launch/compute/transfer costs, giving
``solve_gpu`` — the fully on-device companion of the factorization
pipeline.  The values come from the host solver of
:mod:`repro.numeric.trisolve`, one compiled SuperLU column loop per
factor, so all of them are real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpusim import GPU
from ..graph import DependencyGraph, LevelSchedule, kahn_levels
from ..numeric import lu_solve
from ..sparse import CSCMatrix
from ..sparse.types import INDEX_DTYPE
from .config import SolverConfig


def _triangular_levels(t: CSCMatrix, *, lower: bool) -> LevelSchedule:
    """Level schedule of a triangular factor's substitution DAG.

    For lower-triangular ``L``: edge ``k -> j`` for every stored
    ``L(j, k), j > k`` (column k's scatter feeds unknown j).  For
    upper-triangular ``U`` the dependencies run the other way; we build the
    same forward-star shape on the reversed index order so one Kahn pass
    serves both.
    """
    n = t.n_cols
    cols = t.col_ids_of_entries()
    rows = t.indices
    # CSC order is already sorted by (source column, target row)
    mask = rows > cols if lower else rows < cols
    src, dst = cols[mask], rows[mask]
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    graph = DependencyGraph(
        n=n,
        indptr=indptr,
        targets=dst.astype(INDEX_DTYPE),
        in_degree=np.bincount(dst, minlength=n).astype(INDEX_DTYPE),
    )
    return kahn_levels(graph)


@dataclass
class GpuSolveResult:
    """Solution plus the execution record of the on-device solve."""

    x: np.ndarray
    l_levels: int
    u_levels: int
    sim_seconds: float


def solve_gpu(
    gpu: GPU,
    L: CSCMatrix,
    U: CSCMatrix,
    b: np.ndarray,
    config: SolverConfig | None = None,
    *,
    l_schedule: LevelSchedule | None = None,
    u_schedule: LevelSchedule | None = None,
    factors_resident: bool = False,
) -> GpuSolveResult:
    """Solve ``(L U) x = b`` with level-scheduled kernels on ``gpu``.

    Schedules may be passed in when solving repeatedly with the same
    factors (they depend only on the patterns).  With
    ``factors_resident=False`` the factors are shipped to the device first.
    """
    cfg = config or SolverConfig()
    ledger = gpu.ledger
    t0 = ledger.total_seconds

    with ledger.phase("solve"):
        if l_schedule is None:
            l_schedule = _triangular_levels(L, lower=True)
        if u_schedule is None:
            u_schedule = _triangular_levels(U, lower=False)

        idx, val = cfg.index_bytes, cfg.value_bytes
        if not factors_resident:
            gpu.h2d(L.nnz * (idx + val) + U.nnz * (idx + val)
                    + 2 * (L.n_cols + 1) * idx)
        gpu.h2d(len(b) * val)  # the right-hand side

        x = lu_solve(L, U, b)  # the real values, from the host solver

        # charge the level-parallel substitution kernels
        for factor, schedule in ((L, l_schedule), (U, u_schedule)):
            nnz_per_col = factor.col_nnz()
            for level in schedule.levels:
                flops = int(2 * nnz_per_col[level].sum())
                gpu.launch_numeric(
                    max(1, flops),
                    blocks=max(1, len(level)),
                    from_device=True,
                )
        gpu.d2h(len(x) * val)

    return GpuSolveResult(
        x=x,
        l_levels=l_schedule.num_levels,
        u_levels=u_schedule.num_levels,
        sim_seconds=ledger.total_seconds - t0,
    )
