"""Solver configuration for the end-to-end GPU LU pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Literal

import numpy as np

from ..errors import ConfigurationError
from ..gpusim import (
    CostModel,
    DEFAULT_COST_MODEL,
    DeviceSpec,
    HostSpec,
    V100,
    XEON_E5_2680,
)

SymbolicMode = Literal["outofcore", "unified", "incore"]
NumericFormat = Literal["auto", "dense", "csc"]

#: §3.2 — each in-flight source row needs ``c x n`` scratch; the paper
#: reports c = 6 for this problem (fill stamps, frontier double buffer,
#: per-row output staging).
SCRATCH_ARRAYS_PER_ROW = 6


@dataclass(frozen=True)
class SolverConfig:
    """The knobs of the end-to-end solver that some caller sets.

    A field exists only while a caller outside the tests sets it to a
    non-default value; a choice that every caller leaves at one value is
    a constant of the code instead.  Defaults reproduce the paper's
    primary configuration: explicit out-of-core symbolic factorization
    with dynamic parallelism assignment, GPU levelization via
    device-launched Kahn (Alg. 5), and automatic dense/CSC format
    selection for numeric factorization (§3.4's threshold).
    """

    device: DeviceSpec = V100
    host: HostSpec = XEON_E5_2680
    cost_model: CostModel = DEFAULT_COST_MODEL

    symbolic_mode: SymbolicMode = "outofcore"
    #: Algorithm 4 (two-part chunk sizing) vs Algorithm 3 (single chunk size)
    dynamic_assignment: bool = True
    #: frontier fraction defining the Algorithm 4 split point n1 (paper: 50%)
    split_fraction: float = 0.5
    #: prefetching for the unified-memory symbolic mode (§4.3)
    um_prefetch: bool = True

    #: numeric working-format choice; "auto" applies the §3.4 rule
    numeric_format: NumericFormat = "auto"
    #: supernodal blocked numeric path: amalgamate columns with
    #: (near-)identical L structure into panels and charge dense-block
    #: panel factor / panel-panel update kernels instead of the per-level
    #: scattered ones.  Factors, fill and pivots are bitwise-identical to
    #: the per-column oracle (values are still computed by it); only the
    #: simulated timeline and launch counters change — the same contract
    #: the multi-GPU solver uses.  Off by default: the per-column path is
    #: the paper's configuration.
    supernodal: bool = False

    #: value dtype for device *sizing* (paper evaluates with float32)
    value_dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float32))
    #: dtype the numeric kernels compute in.  float64 by default so factors
    #: verify to machine precision; set float32 to reproduce the paper's
    #: arithmetic (pair with iterative refinement to recover accuracy).
    compute_dtype: np.dtype = field(
        default_factory=lambda: np.dtype(np.float64)
    )
    #: device-side index width (a constant, not a constructor argument)
    index_bytes: ClassVar[int] = 4

    pivot_tolerance: float = 0.0

    #: recovery ladder (op retry, chunk resume, pivot perturbation, with
    #: the budgets of :mod:`repro.core.resilient`); ``False`` keeps the
    #: historical fail-fast behaviour
    resilience: bool = False

    #: transfer/compute overlap: run the out-of-core chunk loops through
    #: the :mod:`repro.streams` copy-engine pipeline (dedicated H2D and
    #: D2H DMA engines beside the compute scheduler).  Results are
    #: bitwise-identical to the serial schedule; only simulated seconds
    #: shrink.  ``False`` keeps the historical serial charging.
    overlap: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.split_fraction <= 1.0):
            raise ConfigurationError("split_fraction must be in (0, 1]")
        if self.symbolic_mode not in ("outofcore", "unified", "incore"):
            raise ConfigurationError(
                f"unknown symbolic_mode {self.symbolic_mode!r}"
            )
        if self.numeric_format not in ("auto", "dense", "csc"):
            raise ConfigurationError(
                f"unknown numeric_format {self.numeric_format!r}"
            )

    @property
    def value_bytes(self) -> int:
        return int(np.dtype(self.value_dtype).itemsize)

    def dense_parallel_columns(self, n: int, free_bytes: int) -> int:
        """§3.4: ``M = L / (n x sizeof(dtype))`` — the dense-format cap on
        concurrently factorized columns."""
        if n <= 0:
            raise ConfigurationError("n must be positive")
        return max(0, free_bytes // (n * self.value_bytes))

    def scratch_bytes_per_row(self, n: int) -> int:
        """§3.2: ``c x n`` scratch per in-flight source row."""
        return SCRATCH_ARRAYS_PER_ROW * n * self.index_bytes
