"""Modified GLU 3.0 baseline (§4.2, Figure 4).

The paper's primary comparison point: symbolic factorization and
levelization run on the multicore host CPU (14 cores x 2 HT), numeric
factorization runs on the GPU in the GLU-heritage *dense* column format.
"Modified" as in the paper: the CPU symbolic phase is extended to record
fill positions (not just counts) so it can feed the GPU numeric phase.

The baseline executes the identical real algorithms — the filled pattern,
levels and factors are bit-for-bit those of the out-of-core pipeline — and
differs only in where each phase's time is charged.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.config import SolverConfig
from ..core.levelize_gpu import levelize_cpu_serial
from ..core.numeric_gpu import numeric_factorize_gpu
from ..core.outofcore import SymbolicResult
from ..core.pipeline import EndToEndResult
from ..gpusim import GPU
from ..graph import build_dependency_graph
from ..preprocess import preprocess
from ..sparse import CSRMatrix
from ..symbolic import symbolic_fill_reference, traversal_edges_per_row


def glu3_symbolic_cpu(
    gpu: GPU, a: CSRMatrix, config: SolverConfig
) -> SymbolicResult:
    """CPU (multithreaded) symbolic factorization with position recording.

    Charges the same real traversal workload to the host cost model, plus
    the transfer shipping the filled matrix to the device for the numeric
    phase.
    """
    n = a.n_rows
    idx, val = config.index_bytes, config.value_bytes
    ledger = gpu.ledger
    t0 = ledger.total_seconds
    with ledger.phase("symbolic"):
        filled = symbolic_fill_reference(a)
        edges = int(traversal_edges_per_row(a, filled).sum())
        # count pass + position pass, as in the two-stage GPU scheme; the
        # CPU version allocates positions directly after counting, so the
        # second pass only pays the write traffic.
        writes = int(filled.nnz)
        ledger.charge(
            gpu.cost.cpu_traversal_seconds(edges + writes, gpu.host),
            "cpu_compute",
        )
        filled_bytes = (n + 1) * idx + filled.nnz * (idx + val)
        device_filled = gpu.malloc(filled_bytes, "factorized matrix (glu3)")
        gpu.h2d(filled_bytes)
    return SymbolicResult(
        filled=filled,
        fill_count=filled.row_nnz().astype(np.int64),
        plans=[],
        split_point=None,
        iterations=1,
        sim_seconds=ledger.total_seconds - t0,
        device_filled=device_filled,
        device_graph=[],
    )


def glu3_factorize(
    a: CSRMatrix, config: SolverConfig | None = None, *, gpu: GPU | None = None
) -> EndToEndResult:
    """Run the modified GLU 3.0 pipeline end to end."""
    cfg = config or SolverConfig()
    cfg = replace(cfg, numeric_format="dense")
    if gpu is None:
        gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)

    pre = preprocess(a)
    work = pre.matrix

    sym = glu3_symbolic_cpu(gpu, work, cfg)
    graph = build_dependency_graph(sym.filled)
    lev = levelize_cpu_serial(gpu, graph)
    num = numeric_factorize_gpu(
        gpu,
        sym.filled.to_csc(),
        sym.filled,
        lev.schedule,
        cfg,
        as_resident=True,
    )
    if sym.device_filled is not None:
        gpu.free(sym.device_filled)

    L, U = num.factors()
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
        label="glu3.0-modified",
    )
