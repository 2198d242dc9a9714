"""GSOFA-style partial symbolic factorization (Gaihre et al. [11]).

The closest prior GPU work, reproduced as a baseline for the paper's two
criticisms (§3.2):

1. it only *counts* fill-ins per row — no positions, so it cannot feed a
   numeric phase;
2. it uses a *fixed, conservative* ``chunk_size`` (sized for the worst-case
   ``c x n`` scratch of the entire matrix), limiting parallelism on the
   cheap early rows.

:func:`gsofa_count_symbolic` therefore runs only stage 1 of the out-of-core
scheme with a single conservative chunk plan and returns counts only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import SolverConfig
from ..core.outofcore import plan_chunks
from ..gpusim import GPU
from ..sparse import CSRMatrix
from ..symbolic import (
    chunk_blocks,
    frontier_counts,
    symbolic_fill_reference,
    traversal_edges_per_row,
)


@dataclass
class GsofaResult:
    fill_count: np.ndarray  # nonzeros per filled row (counts ONLY)
    iterations: int
    sim_seconds: float

    @property
    def total_fill(self) -> int:
        return int(self.fill_count.sum())


def gsofa_count_symbolic(
    gpu: GPU, a: CSRMatrix, config: SolverConfig
) -> GsofaResult:
    """Count-only symbolic factorization with a fixed conservative chunk."""
    n = a.n_rows
    idx, val = config.index_bytes, config.value_bytes
    ledger = gpu.ledger
    t0 = ledger.total_seconds
    with ledger.phase("symbolic"):
        filled = symbolic_fill_reference(a)
        edges_per_row = traversal_edges_per_row(a, filled)
        frontier = frontier_counts(filled)
        avg_degree = a.nnz / max(n, 1)

        graph_bufs = [
            gpu.malloc((n + 1) * idx, "A.indptr"),
            gpu.malloc(a.nnz * idx, "A.indices"),
            gpu.malloc(a.nnz * val, "A.values"),
            gpu.malloc(n * idx, "fill_count"),
        ]
        gpu.h2d((n + 1) * idx + a.nnz * (idx + val))

        plans, _ = plan_chunks(gpu, a, config, num_parts=1)
        iterations = 0
        for plan in plans:
            for start in range(plan.row_start, plan.row_end, plan.chunk_size):
                end = min(start + plan.chunk_size, plan.row_end)
                rows = end - start
                scratch = gpu.malloc(
                    rows * plan.scratch_bytes_per_row, "gsofa scratch"
                )
                blocks = chunk_blocks(frontier[start:end])
                gpu.launch_traversal(
                    edges=int(edges_per_row[start:end].sum()),
                    avg_degree=avg_degree,
                    blocks=blocks,
                )
                gpu.free(scratch)
                iterations += 1
        gpu.d2h(n * idx)  # counts back to the host — all this method yields
        for buf in graph_bufs:
            gpu.free(buf)
    return GsofaResult(
        fill_count=filled.row_nnz().astype(np.int64),
        iterations=iterations,
        sim_seconds=ledger.total_seconds - t0,
    )
