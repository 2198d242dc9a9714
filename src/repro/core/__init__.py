"""The paper's contribution: end-to-end GPU sparse LU factorization.

* :mod:`~repro.core.outofcore` — two-stage out-of-core symbolic
  factorization with dynamic parallelism assignment (Algorithms 3-4);
* :mod:`~repro.core.levelize_gpu` — device-resident Kahn levelization with
  dynamic parallelism (Algorithm 5) plus host-launch / CPU baselines;
* :mod:`~repro.core.numeric_gpu` — numeric factorization with the
  dense-vs-sorted-CSC working format switch (Algorithm 6, §3.4);
* :mod:`~repro.core.pipeline` — the Figure 2 pipeline;
* :mod:`~repro.core.solver` — ``factorize`` / ``solve`` convenience API.
"""

from .config import SCRATCH_ARRAYS_PER_ROW, SolverConfig
from .resilient import (
    RecoveryEvent,
    RecoveryLog,
    RecoveryReport,
    ResilientGPU,
    RetryPolicy,
    SymbolicCheckpoint,
    recovery_log_of,
    run_chunk,
)
from .levelize_gpu import (
    LevelizeResult,
    levelize_cpu_serial,
    levelize_gpu_dynamic,
    levelize_gpu_hostlaunch,
)
from .numeric_outofcore import (
    StreamingStats,
    numeric_factorize_outofcore,
)
from .numeric_gpu import (
    NumericResult,
    choose_format,
    dense_format_max_blocks,
    numeric_factorize_gpu,
)
from .outofcore import (
    ChunkPlan,
    SymbolicResult,
    outofcore_symbolic,
    plan_chunks,
)
from .refactorize import (
    RefactorizeResult,
    ReusableAnalysis,
    analyze,
)
from .incremental import (
    IncrementalReport,
    best_donor,
    incremental_analyze,
    incremental_analyze_pre,
)
from .autotune import AutotuneResult, TuneCandidate, autotune_symbolic
from .multigpu import (
    MultiGpuEndToEndResult,
    MultiGpuSymbolicResult,
    multi_gpu_endtoend,
    multi_gpu_symbolic,
)
from .pipeline import EndToEndLU, EndToEndResult, PhaseBreakdown
from .solver import factorize, solve

__all__ = [
    "SolverConfig",
    "SCRATCH_ARRAYS_PER_ROW",
    "RetryPolicy",
    "RecoveryEvent",
    "RecoveryLog",
    "RecoveryReport",
    "ResilientGPU",
    "SymbolicCheckpoint",
    "run_chunk",
    "recovery_log_of",
    "outofcore_symbolic",
    "plan_chunks",
    "ChunkPlan",
    "analyze",
    "ReusableAnalysis",
    "RefactorizeResult",
    "IncrementalReport",
    "best_donor",
    "incremental_analyze",
    "incremental_analyze_pre",
    "multi_gpu_symbolic",
    "MultiGpuSymbolicResult",
    "multi_gpu_endtoend",
    "MultiGpuEndToEndResult",
    "autotune_symbolic",
    "AutotuneResult",
    "TuneCandidate",
    "SymbolicResult",
    "levelize_gpu_dynamic",
    "levelize_gpu_hostlaunch",
    "levelize_cpu_serial",
    "LevelizeResult",
    "numeric_factorize_gpu",
    "numeric_factorize_outofcore",
    "StreamingStats",
    "choose_format",
    "dense_format_max_blocks",
    "NumericResult",
    "EndToEndLU",
    "EndToEndResult",
    "PhaseBreakdown",
    "factorize",
    "solve",
]
