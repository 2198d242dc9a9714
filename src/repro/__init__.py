"""repro — end-to-end sparse LU factorization on (simulated) GPUs.

A from-scratch Python reproduction of *"End-to-End LU Factorization of
Large Matrices on GPUs"* (Xia, Jiang, Agrawal, Ramnath — PPoPP 2023):
out-of-core GPU symbolic factorization, dynamic-parallelism levelization,
and memory-limit-free numeric factorization, executed against a
deterministic V100 execution-model simulator (see DESIGN.md).

Quickstart::

    import numpy as np
    from repro import factorize, SolverConfig
    from repro.workloads import circuit_like

    a = circuit_like(n=500, nnz_per_row=8.0, seed=1)
    res = factorize(a)
    x = res.solve(np.ones(a.n_rows))
    print(res.breakdown(), res.fill_ins)
"""

from .core import (
    EndToEndLU,
    EndToEndResult,
    PhaseBreakdown,
    ReusableAnalysis,
    SolverConfig,
    analyze,
    factorize,
    factorize_btf,
    solve,
)
from .errors import (
    ConfigurationError,
    CycleError,
    DeadlineExceededError,
    DeviceMemoryError,
    HostMemoryError,
    NonFiniteValueError,
    QueueFullError,
    ReproError,
    ServeError,
    ServiceShutdownError,
    SingularMatrixError,
    SparseFormatError,
    StructurallySingularError,
)
from .sparse import COOMatrix, CSCMatrix, CSRMatrix

__version__ = "1.0.0"

__all__ = [
    "factorize",
    "solve",
    "analyze",
    "ReusableAnalysis",
    "factorize_btf",
    "EndToEndLU",
    "EndToEndResult",
    "SolverConfig",
    "PhaseBreakdown",
    "CSRMatrix",
    "CSCMatrix",
    "COOMatrix",
    "ReproError",
    "SparseFormatError",
    "DeviceMemoryError",
    "HostMemoryError",
    "NonFiniteValueError",
    "SingularMatrixError",
    "StructurallySingularError",
    "CycleError",
    "ConfigurationError",
    "ServeError",
    "QueueFullError",
    "ServiceShutdownError",
    "DeadlineExceededError",
    "__version__",
]
