"""Out-of-core numeric factorization: when even the *filled* matrix
exceeds device memory.

The paper removes the symbolic phase's memory limit and assumes the sparse
factorized matrix fits on the device for the numeric phase (Algorithm 3
line 8 allocates it there).  For truly extreme fill that assumption breaks
too; this module completes the story with a streamed numeric executor:

* the filled matrix lives on the host in CSC column *segments*;
* the device holds an LRU-managed window of segments;
* each level faults in the segments containing its columns and their
  sub-columns (the real access set, derived from the pattern), evicting
  least-recently-used segments — dirty ones are written back, since the
  right-looking kernel mutates its sub-columns.

Numerics are identical to the in-core executor (tests assert it), and
so are the kernels: each level issues the in-core CSC executor's GLU 3.0
A/B/C launches (:meth:`repro.core.numeric_gpu._LaunchInputs.table`)
once its segments are resident.  Only the transfer traffic differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpusim import GPU
from ..graph import LevelSchedule
from ..sparse import CSRMatrix
from ..sparse.types import INDEX_DTYPE
from ..streams import StreamedGPU
from .config import SolverConfig
from .numeric_gpu import (
    NumericResult,
    factorize_with_pivot_recovery,
    launch_inputs,
)


@dataclass
class StreamingStats:
    """Transfer observables of one out-of-core numeric run."""

    segments: int
    segment_bytes: int
    loads: int
    writebacks: int

    @property
    def bytes_streamed(self) -> int:
        return (self.loads + self.writebacks) * self.segment_bytes


class _SegmentWindow:
    """LRU residency of column segments inside a device-byte budget.

    Transfers are routed through the ``load``/``writeback`` callables so
    the overlap mode can enqueue them on copy-engine streams; the
    defaults charge the serial ``gpu.h2d``/``gpu.d2h``.
    """

    def __init__(self, gpu: GPU, num_segments: int, segment_bytes: int,
                 budget_bytes: int, *, load=None, writeback=None) -> None:
        self.gpu = gpu
        self.segment_bytes = segment_bytes
        self.capacity = max(1, budget_bytes // max(segment_bytes, 1))
        self.resident: dict[int, int] = {}  # segment -> last-use tick
        self.dirty: set[int] = set()
        self.tick = 0
        self.loads = 0
        self.writebacks = 0
        self._load = (
            load if load is not None
            else (lambda: gpu.h2d(segment_bytes))
        )
        self._writeback = (
            writeback if writeback is not None
            else (lambda: gpu.d2h(segment_bytes))
        )

    def _evict_one(self) -> None:
        victim = min(self.resident, key=self.resident.get)  # LRU
        del self.resident[victim]
        if victim in self.dirty:
            self._writeback()
            self.dirty.discard(victim)
            self.writebacks += 1

    def touch(self, segments: set[int], *, write: bool) -> None:
        """Stream one level's access set through the window.

        Segments are visited in column order, the order the kernel sweeps
        them.  An access set that exceeds the window therefore evicts its
        own earliest segments to admit the later ones (sequential LRU
        thrash): every eviction of a dirty segment is a real writeback
        and every re-entry a real load — the honest transfer cost of
        running a level whose footprint exceeds device memory.
        """
        for s in sorted(segments):
            self.tick += 1
            if s in self.resident:
                self.resident[s] = self.tick
            else:
                while len(self.resident) >= self.capacity:
                    self._evict_one()
                self._load()
                self.loads += 1
                self.resident[s] = self.tick
            if write:
                self.dirty.add(s)

    def flush(self) -> None:
        for s in sorted(self.dirty):
            self._writeback()
            self.writebacks += 1
        self.dirty.clear()


def numeric_factorize_outofcore(
    gpu: GPU,
    filled: CSRMatrix,
    schedule: LevelSchedule,
    config: SolverConfig,
    *,
    segment_columns: int = 64,
) -> tuple[NumericResult, StreamingStats]:
    """Streamed numeric factorization for filled matrices beyond device
    memory.

    Columns are grouped into ``segment_columns``-wide segments; the device
    window is sized from the free device memory after the graph metadata.
    Always uses the sorted-CSC kernel (the dense format is hopeless in this
    regime — its per-column O(n) buffers are the §3.4 problem squared).
    """
    n = filled.n_rows
    idx, val = config.index_bytes, config.value_bytes
    ledger = gpu.ledger
    t0 = ledger.total_seconds

    with ledger.phase("numeric"):
        As = filled.to_csc()
        if As.data.dtype != config.compute_dtype:
            As = As.astype(config.compute_dtype)

        num_segments = max(1, -(-n // segment_columns))
        seg_bytes = max(
            1, ((n + 1) * idx + As.nnz * (idx + val)) // num_segments
        )

        streamed = config.overlap and isinstance(gpu, StreamedGPU)
        if streamed:
            # Dedicated streams per engine: loads on the H2D copy engine,
            # writebacks on the D2H engine, level kernels on one compute
            # stream (levels are dependency-ordered, so kernels serialize
            # among themselves — the overlap is transfers vs compute and
            # H2D vs D2H).  A writeback waits on the kernel that dirtied
            # its data; a level's kernel waits on its last load (the copy
            # engine is FIFO, so the last load implies all of them); the
            # next level's loads start immediately — prefetch under the
            # current kernel, slot reuse hidden by the staging pair.
            h2d_stream = gpu.stream("ooc-h2d")
            d2h_stream = gpu.stream("ooc-d2h")
            compute_stream = gpu.stream("ooc-compute")
            pending: dict = {"load": None, "kernel": None}

            def _load_async() -> None:
                pending["load"] = gpu.h2d_async(seg_bytes, h2d_stream)

            def _writeback_async() -> None:
                if pending["kernel"] is not None:
                    gpu.wait_event(d2h_stream, pending["kernel"])
                gpu.d2h_async(seg_bytes, d2h_stream)

            window = _SegmentWindow(
                gpu, num_segments, seg_bytes,
                budget_bytes=int(0.8 * gpu.free_bytes),
                load=_load_async, writeback=_writeback_async,
            )
        else:
            window = _SegmentWindow(
                gpu, num_segments, seg_bytes,
                budget_bytes=int(0.8 * gpu.free_bytes),
            )

        # real numerics once, with per-level stats for charging
        stats = factorize_with_pivot_recovery(
            gpu, As, filled, schedule, config,
            count_search_steps=True,
        )

        seg_of = np.arange(n, dtype=INDEX_DTYPE) // segment_columns
        inputs = launch_inputs(filled, schedule)
        table = inputs.table(stats.per_level, inputs.tags(schedule, None))
        cap = gpu.spec.max_concurrent_blocks

        for launches, level in zip(table.launches(), schedule.levels):
            if not launches:
                continue
            # the level's access set: its own columns + their sub-columns
            touched = set(seg_of[level].tolist())
            for j in level:
                rj, _ = filled.row(int(j))
                subs = rj[rj > int(j)]
                touched.update(seg_of[subs].tolist())
            window.touch(touched, write=True)
            if streamed and pending["load"] is not None:
                gpu.wait_event(compute_stream, pending["load"])
            for flops, blocks, search in launches:
                ledger.count("numeric_kernel_launches")
                if streamed:
                    pending["kernel"] = gpu.launch_numeric_async(
                        flops, blocks, compute_stream,
                        concurrency_cap=cap, search_steps=search,
                    )
                else:
                    gpu.launch_numeric(
                        flops, blocks,
                        concurrency_cap=cap, search_steps=search,
                    )
        window.flush()
        if streamed:
            gpu.synchronize()  # makespan lands in the "numeric" phase

    streaming = StreamingStats(
        segments=num_segments,
        segment_bytes=seg_bytes,
        loads=window.loads,
        writebacks=window.writebacks,
    )
    result = NumericResult(
        As=As,
        stats=stats,
        data_format="csc-streamed",
        max_parallel_columns=gpu.spec.max_concurrent_blocks,
        sim_seconds=ledger.total_seconds - t0,
    )
    return result, streaming
