"""Out-of-core GPU symbolic factorization (Algorithms 3 and 4).

The symbolic phase needs ``c x n`` scratch per in-flight source row (§3.2),
so processing all rows at once needs O(n^2) device memory — impossible for
every Table 2 matrix.  The out-of-core scheme processes ``chunk_size`` rows
per kernel launch with explicitly managed transfers, in two stages:

* **stage 1** (``symbolic_1``): count the filled nonzeros of each row;
* a device prefix-sum sizes the CSR output and the factorized matrix is
  allocated (Algorithm 3 lines 6-8);
* **stage 2** (``symbolic_2``): re-traverse, now writing fill positions.

Algorithm 4 ("dynamic parallelism assignment") splits the rows at the first
source row whose frontier population reaches ``split_fraction`` of the
maximum: the low-frontier prefix needs far less scratch per row, so it gets
a larger ``chunk_size`` (more thread blocks in flight, fewer launches).

The fill structure itself is computed by the bitset engine
(:func:`repro.symbolic.symbolic_fill_reference` — same fixpoint as the
fill2 kernel, validated in tests); this module contributes the *memory
management and scheduling* behaviour and charges the simulated time from
the real per-row traversal workloads.  :func:`book_symbolic` is the one
home of that charge: it books the scheme for any set of source rows, so
:func:`outofcore_symbolic` books all of them and each device of the
multi-GPU solver (:mod:`repro.core.multigpu`) books its own row shard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DeviceMemoryError
from ..gpusim import GPU, Buffer
from ..sparse import CSRMatrix
from ..streams import DoubleBufferedPipeline, StreamedGPU
from ..symbolic import (
    chunk_blocks,
    fill_counts,
    frontier_counts,
    symbolic_fill_reference,
    traversal_edges_per_row,
)
from .config import SolverConfig
from .resilient import CHUNK_RETRY, SymbolicCheckpoint, run_chunk


@dataclass(frozen=True)
class ChunkPlan:
    """One homogeneous region of the out-of-core iteration space."""

    row_start: int
    row_end: int
    chunk_size: int
    scratch_bytes_per_row: int

    @property
    def num_rows(self) -> int:
        return self.row_end - self.row_start

    @property
    def num_iterations(self) -> int:
        return math.ceil(self.num_rows / self.chunk_size)


@dataclass
class SymbolicResult:
    """Output of the symbolic phase: structure plus execution record."""

    filled: CSRMatrix
    fill_count: np.ndarray
    plans: list[ChunkPlan]
    split_point: int | None
    iterations: int
    sim_seconds: float
    device_filled: Buffer | None = None
    device_graph: list[Buffer] = field(default_factory=list)
    #: chunk-granularity progress record (resume point under faults)
    checkpoint: SymbolicCheckpoint = field(
        default_factory=SymbolicCheckpoint
    )


def row_work(
    a: CSRMatrix, filled: CSRMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per source row of ``a``: the adjacency entries its fill2
    traversal scans, its frontier population and its filled nonzeros
    (the stage-1 count)."""
    return (
        traversal_edges_per_row(a, filled),
        frontier_counts(filled),
        fill_counts(filled),
    )


def plan_chunks(
    gpu: GPU,
    a: CSRMatrix,
    config: SolverConfig,
    *,
    num_parts: int,
    frontier: np.ndarray | None = None,
    free_bytes: int | None = None,
) -> tuple[list[ChunkPlan], int | None]:
    """Compute the chunking schedule for the out-of-core loops.

    ``num_parts=1`` is Algorithm 3: one plan covering all rows with the
    conservative ``c x n`` scratch per row.  ``num_parts=2`` is
    Algorithm 4: the rows split at the first one whose frontier reaches
    ``split_fraction`` of the maximum, and the first part's scratch per
    row is sized from its *actual* maximum frontier, allowing a larger
    chunk.  More parts generalize that (§3.2: "using more than 2 phases
    can be explored, but it will also imply more kernel launches"): part
    boundaries sit at geometrically-halved frontier thresholds
    (``fmax * split_fraction^(k-1-i)``), and only the last part keeps the
    conservative sizing.  The plans cover the rows whose ``frontier`` is
    given (a device's row shard; all ``n`` rows without one), while the
    scratch per row stays sized by the full ``n``.  Returns the plans and
    the start of the second part as an offset into those rows (``None``
    when the rows did not split); no rows plan no chunks.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    n = a.n_rows
    rows = n if frontier is None else len(frontier)
    if rows == 0:
        return [], None
    free = gpu.free_bytes if free_bytes is None else int(free_bytes)
    conservative = config.scratch_bytes_per_row(n)
    idx = config.index_bytes

    def chunk_for(per_row: int) -> int:
        if per_row <= 0:
            per_row = idx
        c = free // per_row
        if c <= 0:
            raise DeviceMemoryError(per_row, free, "symbolic per-row scratch")
        return min(c, rows)

    single = [ChunkPlan(0, rows, chunk_for(conservative), conservative)]
    if num_parts == 1:
        return single, None
    if frontier is None:
        raise ValueError("multi-part chunk planning needs frontier counts")
    fmax = int(frontier.max(initial=0))
    if fmax == 0:
        return single, None

    boundaries = [0]
    for i in range(num_parts - 1):
        cutoff = fmax * config.split_fraction ** (num_parts - 1 - i)
        hits = np.flatnonzero(frontier >= cutoff)
        b = int(hits[0]) if len(hits) else rows
        boundaries.append(max(b, boundaries[-1]))
    boundaries.append(rows)

    plans: list[ChunkPlan] = []
    for start, end in zip(boundaries, boundaries[1:]):
        if start >= end:
            continue
        if end == rows:
            per_row = conservative
        else:
            # stamp array + output staging (2n) + double-buffered
            # frontier queues sized by the part's real maximum frontier
            maxf = int(frontier[start:end].max(initial=1))
            per_row = min(conservative, (2 * n + 4 * max(1, maxf)) * idx)
        plans.append(ChunkPlan(start, end, chunk_for(per_row), per_row))
    return plans, (plans[1].row_start if len(plans) > 1 else None)


def outofcore_symbolic(
    gpu: GPU,
    a: CSRMatrix,
    config: SolverConfig,
    *,
    dynamic: bool | None = None,
    num_parts: int | None = None,
    keep_on_device: bool = True,
) -> SymbolicResult:
    """Run the two-stage out-of-core symbolic factorization on ``gpu``.

    Returns the filled pattern (with the original values scattered in and
    zeros at fill positions) and the execution record.  When
    ``keep_on_device`` the factorized-matrix allocation (Algorithm 3 line 8)
    stays live for the numeric phase; the caller owns freeing it.
    ``num_parts`` (see :func:`plan_chunks`) overrides ``dynamic``; without
    it, dynamic assignment (default ``config.dynamic_assignment``) plans
    two parts and naive assignment one.
    """
    if num_parts is None and dynamic is not None:
        num_parts = 2 if dynamic else 1
    # ground-truth structure (the device kernels compute exactly this)
    filled = symbolic_fill_reference(a)
    return book_symbolic(
        gpu, a, filled, config,
        num_parts=num_parts, keep_on_device=keep_on_device,
    )


def book_symbolic(
    gpu: GPU,
    a: CSRMatrix,
    filled: CSRMatrix,
    config: SolverConfig,
    *,
    work: tuple[np.ndarray, ...] | None = None,
    rows: np.ndarray | None = None,
    num_parts: int | None = None,
    keep_on_device: bool = True,
) -> SymbolicResult:
    """Book Algorithms 3/4 on ``gpu`` for the source rows ``rows`` of
    ``a`` (all rows, in order, by default) whose fill is ``filled``.

    The device holds the whole input graph, plans its chunks over the
    rows' own frontier (:func:`plan_chunks`), sizes the factorized matrix
    by the rows' filled entries and runs both stages over the rows.  A
    row set with no rows books only the graph upload and the prefix sum.
    ``work`` is the pattern's :func:`row_work`, computed when omitted;
    ``num_parts`` defaults to ``config.dynamic_assignment``'s.  Without
    ``keep_on_device`` the factorized rows ship to the host and every
    device buffer is freed.
    """
    if num_parts is None:
        num_parts = 2 if config.dynamic_assignment else 1
    n = a.n_rows
    idx = config.index_bytes
    val = config.value_bytes
    ledger = gpu.ledger
    t0 = ledger.total_seconds
    work = row_work(a, filled) if work is None else work
    edges_per_row, frontier, fill_count = (
        work if rows is None else (x[rows] for x in work)
    )
    num_rows = len(frontier)
    avg_degree = a.nnz / max(n, 1)

    with ledger.phase("symbolic"):
        # -- persistent device residents: the input graph in CSR ----------
        graph_bufs = [
            gpu.malloc((n + 1) * idx, "A.indptr"),
            gpu.malloc(a.nnz * idx, "A.indices"),
            gpu.malloc(a.nnz * val, "A.values"),
            gpu.malloc(n * idx, "fill_count"),
        ]
        gpu.h2d((n + 1) * idx + a.nnz * (idx + val))

        # Plan against the memory that will remain once the factorized
        # matrix (allocated between the stages, line 8) is resident, so the
        # same chunk plan is valid for both stages.  When even the sparse
        # factorized matrix cannot fit alongside one row of scratch, switch
        # to streaming mode: stage-2 chunks ship their output straight to
        # the host and the numeric phase uses the out-of-core executor.
        out_nnz = filled.nnz if rows is None else int(fill_count.sum())
        filled_bytes = (num_rows + 1) * idx + out_nnz * (idx + val)
        streaming_output = (
            filled_bytes > gpu.free_bytes - config.scratch_bytes_per_row(n)
        )
        plan_reserve = 0 if streaming_output else filled_bytes
        plans, split_point = plan_chunks(
            gpu,
            a,
            config,
            num_parts=num_parts,
            frontier=frontier,
            free_bytes=gpu.free_bytes - plan_reserve,
        )

        iterations = 0
        checkpoint = SymbolicCheckpoint()

        def for_each_chunk(stage: str, body) -> None:
            """Run ``body(plan, start, end)`` per chunk inside its scratch
            allocation.  With resilience enabled each chunk is a
            checkpointed unit: a fault that escapes the per-operation
            retries frees the chunk's scratch (``try/finally``), backs
            off, and resumes from this chunk — completed chunks never
            re-run."""
            nonlocal iterations
            chunk_id = 0
            for plan in plans:
                for start in range(plan.row_start, plan.row_end,
                                   plan.chunk_size):
                    end = min(start + plan.chunk_size, plan.row_end)

                    def chunk_body(plan=plan, start=start, end=end):
                        scratch = gpu.malloc(
                            (end - start) * plan.scratch_bytes_per_row,
                            "symbolic scratch",
                        )
                        try:
                            body(plan, start, end)
                        finally:
                            gpu.free(scratch)

                    if config.resilience:
                        run_chunk(gpu, CHUNK_RETRY, checkpoint,
                                  stage, chunk_id, chunk_body)
                    else:
                        chunk_body()
                    iterations += 1
                    chunk_id += 1

        # -- stage 1: count nonzeros per row (kernel symbolic_1) -----------
        def stage1_body(plan, start, end):
            gpu.launch_traversal(
                edges=int(edges_per_row[start:end].sum()),
                avg_degree=avg_degree,
                blocks=chunk_blocks(frontier[start:end]),
            )

        for_each_chunk("symbolic_1", stage1_body)

        # -- prefix sum on fill_count (line 7) ------------------------------
        gpu.launch_utility(num_rows)
        gpu.d2h(8)  # total nnz back to host for the allocation decision

        # -- allocate the factorized matrix (line 8) unless streaming ------
        device_filled = (
            None if streaming_output or not num_rows
            else gpu.malloc(filled_bytes, "factorized matrix")
        )

        # -- stage 2: write fill positions (kernel symbolic_2) --------------
        # With overlap enabled, stage-2 chunks run through the
        # double-buffered pipeline: each chunk's kernel goes to a compute
        # lane and — in streaming mode — its output drains on the D2H
        # copy engine while the next chunk's kernel runs, so the
        # per-chunk downloads disappear under compute.
        pipe = (
            DoubleBufferedPipeline(gpu, name="sym2")
            if config.overlap and isinstance(gpu, StreamedGPU)
            else None
        )

        def stage2_body(plan, start, end):
            # traversal again, plus one write per produced nonzero
            edges = int(
                edges_per_row[start:end].sum() + fill_count[start:end].sum()
            )
            blocks = chunk_blocks(frontier[start:end])
            out_bytes = (
                int(fill_count[start:end].sum()) * (idx + val)
                if streaming_output else 0
            )
            if pipe is not None:
                pipe.submit(
                    0,  # inputs are device-resident; nothing to upload
                    lambda lane: gpu.launch_traversal_async(
                        edges=edges,
                        avg_degree=avg_degree,
                        blocks=blocks,
                        stream=lane,
                    ),
                    out_bytes,
                )
            else:
                gpu.launch_traversal(
                    edges=edges, avg_degree=avg_degree, blocks=blocks,
                )
                if streaming_output:
                    gpu.d2h(out_bytes)

        for_each_chunk("symbolic_2", stage2_body)
        if pipe is not None:
            pipe.drain()  # makespan lands in the "symbolic" phase

        if not keep_on_device:
            if device_filled is not None:
                gpu.d2h(filled_bytes)
                gpu.free(device_filled)
                device_filled = None
            for buf in graph_bufs:
                gpu.free(buf)
            graph_bufs = []

    return SymbolicResult(
        filled=filled,
        fill_count=work[2],
        plans=plans,
        split_point=split_point,
        iterations=iterations,
        sim_seconds=ledger.total_seconds - t0,
        device_filled=device_filled,
        device_graph=graph_bufs,
        checkpoint=checkpoint,
    )
