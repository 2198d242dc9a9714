"""Solver-service runtime: serve streams of solves with analysis reuse.

The paper's motivating workload — circuit simulation (§1) — factorizes
the *same sparsity pattern* thousands of times with changing values.
This package turns the repository's one-shot pipeline into a serving
runtime shaped for that traffic:

* :mod:`~repro.serve.cache` — pattern-keyed, byte-budgeted LRU cache of
  :class:`~repro.core.ReusableAnalysis` objects;
* :mod:`~repro.serve.scheduler` — bounded request queue with
  backpressure, pattern-batched numeric refactorization, deadlines, and
  dispatch across a pool of simulated devices;
* :mod:`~repro.serve.breaker` — per-device circuit breakers
  (closed → open → half-open) that route traffic around failing
  devices, degrading to the CPU reference path when all are open;
* :mod:`~repro.serve.metrics` — counters and exact-percentile latency
  histograms exported as plain dicts;
* :mod:`~repro.serve.service` — the :class:`SolverService` facade
  (``submit`` / ``flush`` / ``solve`` / ``stats`` / ``shutdown``);
* :mod:`~repro.serve.loadgen` — trace synthesis and replay used by the
  ``repro serve-bench`` CLI and the serving benchmarks.

Quickstart::

    from repro.serve import ServeConfig, SolverService

    svc = SolverService(ServeConfig(num_devices=2))
    rid = svc.submit(a, b)           # queue; QueueFullError = backpressure
    resp = svc.flush()[0]            # pattern-batched dispatch
    print(resp.status, resp.latency, svc.stats()["cache"]["hit_rate"])
    svc.shutdown()
"""

from .breaker import BreakerConfig, CircuitBreaker
from .cache import (
    AnalysisCache,
    family_key,
    pattern_key,
    strip_explicit_zeros,
    values_key,
)
from .loadgen import (
    LoadReport,
    TraceRequest,
    cold_baseline_seconds,
    replay,
    restamp,
    run_load,
    synthesize_drift_trace,
    synthesize_trace,
    zipf_weights,
)
from .metrics import Histogram, ServiceMetrics, format_metrics
from .scheduler import (
    BatchScheduler,
    DevicePool,
    SimulatedDevice,
    SolveRequest,
    SolveResponse,
)
from .service import ServeConfig, SolverService

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "AnalysisCache",
    "family_key",
    "pattern_key",
    "strip_explicit_zeros",
    "values_key",
    "Histogram",
    "ServiceMetrics",
    "format_metrics",
    "BatchScheduler",
    "DevicePool",
    "SimulatedDevice",
    "SolveRequest",
    "SolveResponse",
    "ServeConfig",
    "SolverService",
    "TraceRequest",
    "LoadReport",
    "restamp",
    "synthesize_trace",
    "synthesize_drift_trace",
    "replay",
    "cold_baseline_seconds",
    "run_load",
]
