"""Unified-memory baseline solver (§4.3, Figs. 5-6, Table 3).

Instead of explicit chunked transfers, the symbolic phase allocates its
O(n^2) intermediate scratch as managed memory and lets the (simulated)
driver migrate pages on demand.  The executor feeds the pager the *real*
access footprint of every wave of source rows:

* per-row scratch (``c x n`` bytes, §3.2) — predictable, touched once;
* the input graph — re-touched every wave and evicted under pressure;
* the growing CSR output — data-dependent writes.

With prefetching enabled, the predictable scratch/output ranges are bulk
migrated ahead of each wave; the prefetch stream lands
``um_prefetch_coverage`` of those pages in time (the kernel races ahead of
``cudaMemPrefetchAsync``), the rest still fault — reproducing Table 3's
partial (not total) fault reduction.
"""

from __future__ import annotations

import numpy as np

from ..core.config import SolverConfig
from ..core.outofcore import SymbolicResult
from ..gpusim import GPU, UnifiedMemoryPager
from ..sparse import CSRMatrix
from ..streams import StreamedGPU
from ..symbolic import (
    chunk_blocks,
    frontier_counts,
    symbolic_fill_reference,
    traversal_edges_per_row,
)


def unified_symbolic(
    gpu: GPU,
    a: CSRMatrix,
    config: SolverConfig,
    *,
    prefetch: bool = True,
) -> SymbolicResult:
    """Symbolic factorization over unified memory; returns the same
    :class:`~repro.core.outofcore.SymbolicResult` as the explicit path so
    downstream phases are interchangeable."""
    n = a.n_rows
    idx, val = config.index_bytes, config.value_bytes
    ledger = gpu.ledger
    t0 = ledger.total_seconds

    with ledger.phase("symbolic"):
        filled = symbolic_fill_reference(a)
        edges_per_row = traversal_edges_per_row(a, filled)
        frontier = frontier_counts(filled)
        fill_count = filled.row_nnz().astype(np.int64)
        avg_degree = a.nnz / max(n, 1)
        cost = gpu.cost

        pager = UnifiedMemoryPager(gpu, prefetch_enabled=prefetch)
        streamed = config.overlap and isinstance(gpu, StreamedGPU)
        if streamed:
            # prefetch migrations go to the H2D copy engine and race the
            # wave kernels on the compute stream — the exposed fraction
            # of each prefetch now comes from the schedule instead of
            # the serial path's ``um_prefetch_exposed`` constant.  Page
            # faults stay serial: a faulting kernel genuinely blocks.
            pager.transfer_submit = lambda nbytes: gpu.h2d_async(
                nbytes, "um-prefetch", category="prefetch"
            )
        graph_bytes = (n + 1) * idx + a.nnz * (idx + val)
        scratch_per_row = config.scratch_bytes_per_row(n)
        graph = pager.alloc(graph_bytes, "graph")
        scratch = pager.alloc(n * scratch_per_row, "symbolic scratch")
        filled_bytes = (n + 1) * idx + filled.nnz * (idx + val)
        output = pager.alloc(filled_bytes, "factorized matrix")

        out_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(fill_count * (idx + val), out=out_offsets[1:])

        wave = gpu.spec.max_concurrent_blocks
        coverage = cost.um_prefetch_coverage
        for two_stage_pass in range(2):  # count pass + position pass
            for start in range(0, n, wave):
                end = min(start + wave, n)
                rows = end - start
                scr_off = start * scratch_per_row
                scr_len = rows * scratch_per_row
                out_off = int(out_offsets[start])
                out_len = int(out_offsets[end]) - out_off
                if prefetch:
                    # predictable ranges: prefetch what the stream lands
                    pager.prefetch(scratch, scr_off, int(scr_len * coverage))
                    if two_stage_pass == 1 and out_len:
                        pager.prefetch(output, out_off, int(out_len * coverage))
                # kernel accesses: faults on whatever prefetch missed
                pager.touch(scratch, scr_off, scr_len)
                pager.touch(graph)  # irregular full-graph traversal
                if two_stage_pass == 1 and out_len:
                    pager.touch(output, out_off, out_len)
                blocks = chunk_blocks(frontier[start:end])
                edges = int(
                    edges_per_row[start:end].sum()
                    + (fill_count[start:end].sum() if two_stage_pass else 0)
                )
                if streamed:
                    gpu.launch_traversal_async(
                        edges=edges,
                        avg_degree=avg_degree,
                        blocks=blocks,
                        stream="um-compute",
                        compute_derate=cost.um_compute_derate,
                    )
                else:
                    gpu.launch_traversal(
                        edges=edges,
                        avg_degree=avg_degree,
                        blocks=blocks,
                        compute_derate=cost.um_compute_derate,
                    )
            if two_stage_pass == 0:
                # serial ops are sync points, so the count pass drains
                # before its prefix sum either way
                gpu.launch_utility(n)  # prefix sum over managed fill counts
                gpu.d2h(8)
        if streamed:
            gpu.synchronize()  # makespan lands in the "symbolic" phase

    return SymbolicResult(
        filled=filled,
        fill_count=fill_count,
        plans=[],
        split_point=None,
        iterations=2 * -(-n // gpu.spec.max_concurrent_blocks),
        sim_seconds=ledger.total_seconds - t0,
        device_filled=None,
        device_graph=[],
    )
