"""Resilient execution: retry policies, the resilient GPU wrapper, and
chunk-level checkpoint/resume.

The recovery *ladder*, bottom to top:

1. **Operation retry** (:class:`ResilientGPU`) — every transfer, kernel
   launch, and allocation is retried with exponential backoff when it
   raises a :class:`~repro.errors.RecoverableError` (injected transfer /
   kernel faults, transient memory pressure).  Backoff time is charged to
   the ledger's ``retry`` category *outside* the phase stack
   (:meth:`~repro.gpusim.ledger.TimeLedger.charge_aside`), so per-phase
   breakdowns stay comparable with a fault-free run.
2. **Chunk checkpoint/resume** (:func:`run_chunk`) — the out-of-core
   symbolic loops treat each chunk as a checkpointed unit: a fault that
   escapes operation retries aborts only the current chunk, which is
   cleaned up and re-executed after a (longer) backoff; completed chunks
   are never re-run.
3. **Pivot recovery** (:mod:`repro.core.numeric_gpu`) — a
   :class:`~repro.errors.SingularMatrixError` triggers static pivot
   perturbation plus post-solve iterative refinement.
4. **Service degradation** (:mod:`repro.serve.breaker`) — per-device
   circuit breakers route around failing devices and fall back to the
   CPU reference path when every device is open.

Everything here is deterministic: backoff delays are *simulated* seconds
and retries re-run deterministic simulated work, so a faulted-and-
recovered run is reproducible from the fault plan's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import RecoverableError
from ..gpusim import GPU, DeviceOp, GPUProxy
from ..graph import LevelSchedule
from ..numeric import RefinementResult, iterative_refinement, make_lu_solver
from ..preprocess import PreprocessResult
from ..sparse import CSCMatrix, CSRMatrix

__all__ = [
    "RetryPolicy",
    "RecoveryEvent",
    "RecoveryLog",
    "RecoveryReport",
    "ResilientGPU",
    "SymbolicCheckpoint",
    "run_chunk",
    "recovery_log_of",
    "refined_solve",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry schedule (delays in simulated seconds)."""

    max_attempts: int = 4
    base_delay_s: float = 1e-4
    backoff: float = 2.0
    max_delay_s: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before re-running attempt ``attempt + 1`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.base_delay_s * self.backoff ** (attempt - 1),
            self.max_delay_s,
        )


#: rung 1 — per-operation retry of transient faults
OP_RETRY = RetryPolicy()
#: rung 2 — per-chunk retry for faults that escape rung 1
CHUNK_RETRY = RetryPolicy(max_attempts=3, base_delay_s=2e-4, backoff=4.0)
#: rung 3 — pivot perturbation magnitude relative to ``max|A|``
#: (SuperLU_DIST uses ``sqrt(eps) * ||A||``; this is the same order)
PIVOT_PERTURBATION_REL = 1.5e-8
#: refinement target and sweep cap of the post-recovery solve
REFINE_THRESHOLD = 1e-8
REFINE_MAX_ITER = 20


def refined_solve(
    source: CSRMatrix,
    L: CSCMatrix,
    U: CSCMatrix,
    pre: PreprocessResult,
    schedule: LevelSchedule,
    b: np.ndarray,
) -> RefinementResult:
    """Rung 3's solve of ``source x = b`` on factors that perturbed
    pivots made inexact: iterative refinement against ``source`` itself,
    to :data:`REFINE_THRESHOLD` in at most :data:`REFINE_MAX_ITER`
    sweeps.  Takes one right-hand side; a block raises
    :class:`ValueError`."""
    solve_fn = make_lu_solver(
        L, U, pre.row_perm, pre.col_perm, schedule=schedule
    )
    return iterative_refinement(
        source, b, solve_fn, max_iter=REFINE_MAX_ITER, tol=REFINE_THRESHOLD
    )


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action (retry, chunk resume, pivot perturbation)."""

    kind: str  # "op-retry" | "chunk-retry" | "pivot-perturb" | "refine"
    where: str  # operation / chunk / phase the action applied to
    attempt: int
    sim_time_s: float
    detail: str = ""

    def key(self) -> tuple:
        return (self.kind, self.where, self.attempt, self.detail)


@dataclass
class RecoveryLog:
    """Ordered record of every recovery action taken during one run."""

    events: list[RecoveryEvent] = field(default_factory=list)

    def record(
        self,
        kind: str,
        where: str,
        attempt: int,
        sim_time_s: float,
        detail: str = "",
    ) -> None:
        self.events.append(
            RecoveryEvent(kind, where, attempt, sim_time_s, detail)
        )

    def count(self, kind: str) -> int:
        return sum(1 for ev in self.events if ev.kind == kind)

    def keys(self) -> list[tuple]:
        """Deterministic identity view (timestamps excluded)."""
        return [ev.key() for ev in self.events]


@dataclass
class RecoveryReport:
    """What the recovery ladder did during one end-to-end run.

    Surfaced on :attr:`repro.core.EndToEndResult.recovery`; the
    refinement fields are filled in by the first recovered
    :meth:`~repro.core.EndToEndResult.solve` call.
    """

    events: list[RecoveryEvent] = field(default_factory=list)
    op_retries: int = 0
    chunk_retries: int = 0
    perturbed_columns: tuple[int, ...] = ()
    refine_iterations: int | None = None
    final_residual: float | None = None

    @property
    def fired(self) -> bool:
        """Did any rung of the ladder take an action?"""
        return bool(
            self.op_retries or self.chunk_retries or self.perturbed_columns
        )

    @property
    def residual_ok(self) -> bool | None:
        """Refined residual below :data:`REFINE_THRESHOLD` (``None``
        before any solve or when no refinement was needed)."""
        if self.final_residual is None:
            return None
        return self.final_residual <= REFINE_THRESHOLD

    def summary(self) -> str:
        parts = [
            f"op retries {self.op_retries}",
            f"chunk retries {self.chunk_retries}",
            f"perturbed columns {len(self.perturbed_columns)}",
        ]
        if self.refine_iterations is not None:
            parts.append(
                f"refined {self.refine_iterations} it -> "
                f"residual {self.final_residual:.3e}"
            )
        return "recovery: " + ", ".join(parts)


class ResilientGPU(GPUProxy):
    """Rung 1 of the ladder: a :class:`GPU` whose individual operations
    retry transient faults with exponential backoff.

    A serial op's backoff is charged aside to the ``retry`` category
    (never to the enclosing phase).  An async op's backoff is booked
    busy-only and pushes its issuing stream, so the makespan charged at
    synchronize carries the wall cost once.  A ``retries`` ledger counter
    is kept either way, so the overhead of surviving faults is exactly
    the ``retry`` bucket.  ``policy`` defaults to :data:`OP_RETRY`.
    """

    def __init__(
        self, inner: GPU | GPUProxy, policy: RetryPolicy | None = None
    ) -> None:
        super().__init__(inner)
        self.policy = policy or OP_RETRY
        self.recovery_log = RecoveryLog()

    def execute(self, op: DeviceOp) -> Any:
        policy = self.policy
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return self.inner.execute(op)
            except RecoverableError as exc:
                if attempt >= policy.max_attempts:
                    raise
                delay = policy.delay(attempt)
                ledger = self.inner.ledger
                if op.stream is not None:
                    op.delay_s += delay
                    ledger.charge_busy(delay, "retry")
                    where = f"async-{op.kind}"
                else:
                    ledger.charge_aside(delay, "retry")
                    label = op.args[1] if op.kind == "malloc" else ""
                    where = f"malloc:{label}" if label else op.kind
                ledger.count("retries")
                self.recovery_log.record(
                    "op-retry",
                    where,
                    attempt,
                    ledger.total_seconds,
                    detail=type(exc).__name__,
                )


def recovery_log_of(gpu: GPU | GPUProxy) -> RecoveryLog | None:
    """The :class:`RecoveryLog` attached anywhere in a proxy stack (a proxy
    resolves unknown attributes on the layer it wraps)."""
    return getattr(gpu, "recovery_log", None)


@dataclass
class SymbolicCheckpoint:
    """Chunk-granularity progress record of the out-of-core loops.

    ``completed`` lists ``(stage, chunk_id)`` pairs in completion order;
    a fault at chunk *k* therefore resumes from *k* — the completed
    prefix is never re-executed (rung 2's guarantee, asserted in tests).
    """

    completed: list[tuple[str, int]] = field(default_factory=list)
    chunk_retries: int = 0

    def done(self, stage: str, chunk_id: int) -> bool:
        return (stage, chunk_id) in self.completed

    def mark(self, stage: str, chunk_id: int) -> None:
        self.completed.append((stage, chunk_id))


def run_chunk(
    gpu: GPU,
    policy: RetryPolicy,
    checkpoint: SymbolicCheckpoint,
    stage: str,
    chunk_id: int,
    body,
):
    """Execute one checkpointed chunk with rung-2 retry semantics.

    ``body`` must be re-runnable (it cleans up its own partial state via
    ``try/finally``).  Completed chunks are skipped outright; failures
    that escape the per-operation retries are backed off (charged aside
    under ``retry``) and the chunk re-runs from its start — never from
    chunk 0.
    """
    if checkpoint.done(stage, chunk_id):
        return
    log = recovery_log_of(gpu)
    where = f"{stage}/chunk{chunk_id}"
    for attempt in range(1, policy.max_attempts + 1):
        try:
            body()
            checkpoint.mark(stage, chunk_id)
            return
        except RecoverableError as exc:
            if attempt >= policy.max_attempts:
                raise
            delay = policy.delay(attempt)
            ledger = gpu.ledger
            ledger.charge_aside(delay, "retry")
            ledger.count("chunk_retries")
            checkpoint.chunk_retries += 1
            if log is not None:
                log.record(
                    "chunk-retry",
                    where,
                    attempt,
                    ledger.total_seconds,
                    detail=type(exc).__name__,
                )
