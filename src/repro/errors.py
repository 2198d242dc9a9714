"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  The GPU simulator raises :class:`DeviceMemoryError` when an
allocation exceeds the simulated device capacity — the condition that
motivates the paper's out-of-core design — and :class:`SingularMatrixError`
when a zero pivot is met during numeric factorization.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class RecoverableError(ReproError):
    """Marker base for *transient* failures that a resilient executor may
    retry (:mod:`repro.core.resilient`).

    Errors deriving from this class describe conditions expected to clear
    on their own — a flaky interconnect dropping a DMA, a kernel hit by an
    injected fault, a temporary memory-pressure episode — as opposed to
    structural problems (singular matrices, genuine capacity limits) that
    no amount of retrying fixes.
    """


class SparseFormatError(ReproError):
    """A sparse container was constructed from or used with invalid data."""


class DeviceMemoryError(ReproError):
    """A simulated device allocation exceeded available device memory."""

    def __init__(self, requested: int, available: int, what: str = "") -> None:
        self.requested = int(requested)
        self.available = int(available)
        self.what = what
        super().__init__(
            f"device OOM: requested {requested} B, {available} B free "
            f"while allocating {what or '<unlabeled>'}"
        )


class MemoryPressureError(DeviceMemoryError, RecoverableError):
    """A device allocation failed only because of a *transient* memory-
    pressure episode (injected by :class:`repro.gpusim.FaultInjector`).

    Unlike a plain :class:`DeviceMemoryError` — a structural condition the
    out-of-core machinery must design around — this failure clears once
    the pressure episode releases, so resilient executors retry it.
    """


class TransferError(RecoverableError):
    """A transient host<->device DMA failure (flaky link / ECC replay).

    Raised by the fault injector *before* any time or counters are
    charged, so a retried transfer leaves the ledger identical to a
    fault-free run plus the retry-category time.
    """

    def __init__(self, direction: str, nbytes: int, op_index: int) -> None:
        self.direction = str(direction)
        self.nbytes = int(nbytes)
        self.op_index = int(op_index)
        super().__init__(
            f"transient {direction} transfer fault "
            f"({nbytes} B, device op #{op_index})"
        )


class KernelFaultError(RecoverableError):
    """A transient kernel-execution fault (injected ECC/launch failure).

    Raised before launch overhead or compute time is charged; the kernel
    never counts as launched.
    """

    def __init__(self, kernel: str, op_index: int) -> None:
        self.kernel = str(kernel)
        self.op_index = int(op_index)
        super().__init__(
            f"transient fault in {kernel} kernel (device op #{op_index})"
        )


class HostMemoryError(ReproError):
    """A simulated host allocation exceeded available host memory."""


class SingularMatrixError(ReproError):
    """A (numerically) zero pivot was encountered during factorization."""

    def __init__(self, column: int, value: float = 0.0) -> None:
        self.column = int(column)
        self.value = float(value)
        super().__init__(f"zero/tiny pivot at column {column}: {value!r}")


class NonFiniteValueError(ReproError):
    """A matrix handed to the solver holds NaN or infinite values.

    Raised before any device work: a non-finite entry would otherwise
    flow through the factorization into a NaN solution.
    """

    def __init__(self, count: int, first: int) -> None:
        self.count = int(count)
        self.first = int(first)
        super().__init__(
            f"matrix has {count} non-finite value(s); the first is "
            f"stored entry {first}"
        )


class StructurallySingularError(ReproError):
    """The matrix has no zero-free diagonal (no perfect bipartite matching)."""


class NotLowerTriangularError(ReproError):
    """A matrix expected to be (unit) lower triangular is not."""


class NotUpperTriangularError(ReproError):
    """A matrix expected to be upper triangular is not."""


class CycleError(ReproError):
    """The dependency graph contains a cycle (not a DAG)."""

    def __init__(self, remaining: int) -> None:
        self.remaining = int(remaining)
        super().__init__(
            f"topological sort failed: {remaining} node(s) remain on a cycle"
        )


class FlopConservationError(ReproError):
    """A supernodal panel schedule charges other flops than the kernel did.

    The panel schedule only re-times the work the per-column kernel
    measured, so the two flop counts must be equal.
    """

    def __init__(self, plan_flops: int, kernel_flops: int) -> None:
        self.plan_flops = int(plan_flops)
        self.kernel_flops = int(kernel_flops)
        super().__init__(
            f"supernodal plan charges {plan_flops} flops, the per-column "
            f"kernel measured {kernel_flops}"
        )


class ConfigurationError(ReproError):
    """An invalid solver / simulator configuration was supplied."""


class ServeError(ReproError):
    """Base class for solver-service (``repro.serve``) runtime errors."""


class QueueFullError(ServeError):
    """The service request queue is at capacity (backpressure signal).

    Callers should drain (``flush``) or retry later; the request that
    triggered this error was **not** enqueued.
    """

    def __init__(self, depth: int, capacity: int) -> None:
        self.depth = int(depth)
        self.capacity = int(capacity)
        super().__init__(
            f"request queue full: {depth}/{capacity} pending — "
            "flush() or retry later"
        )


class ServiceShutdownError(ServeError):
    """An operation was attempted on a solver service after shutdown."""


class DeadlineExceededError(ServeError):
    """A solve's simulated completion time passed its deadline."""

    def __init__(self, request_id: int, deadline: float, finish: float) -> None:
        self.request_id = int(request_id)
        self.deadline = float(deadline)
        self.finish = float(finish)
        super().__init__(
            f"request {request_id} missed deadline "
            f"{deadline:.6f}s (finished {finish:.6f}s)"
        )
