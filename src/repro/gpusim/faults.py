"""Deterministic fault injection for the simulated GPU.

A :class:`FaultPlan` is a *seeded*, declarative description of hostile
conditions — transient transfer failures, kernel faults, and
memory-pressure episodes that temporarily shrink the device pool — and a
:class:`FaultInjector` wraps any :class:`~repro.gpusim.engine.GPU`
(drop-in, delegation-based) and executes the plan while the wrapped
pipeline runs.

Design rules that make recovery *testable*:

* **Determinism** — every injection decision comes from one
  ``numpy`` generator seeded by ``FaultPlan.seed``; re-running the same
  workload with the same plan reproduces the identical event log.
* **Fail before charging** — a faulted operation raises *before* any
  simulated time or counters are booked, so a retried operation leaves
  the ledger exactly as a fault-free run would, plus whatever the
  recovery machinery books under its own ``retry`` category.  This is
  what lets tests assert bitwise-identical factors and identical kernel
  counts across faulted-then-recovered and fault-free runs.
* **Pressure is transient and typed** — a memory-pressure episode parks
  extra ``reserved_bytes`` on the pool for a window of *simulated time*;
  an allocation that fails only because of that reservation raises
  :class:`~repro.errors.MemoryPressureError` (a
  :class:`~repro.errors.RecoverableError`), while a genuinely oversized
  allocation still raises the plain, non-retryable
  :class:`~repro.errors.DeviceMemoryError`.

Injected events are recorded both on :attr:`FaultInjector.events` and as
``injected_*`` counters in the wrapped GPU's
:class:`~repro.gpusim.ledger.TimeLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import (
    ConfigurationError,
    DeviceMemoryError,
    KernelFaultError,
    MemoryPressureError,
    TransferError,
)
from .engine import GPU, DeviceOp, GPUProxy

__all__ = ["FaultPlan", "FaultEvent", "FaultInjector"]


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the faults to inject into one device.

    Rates are per *faultable operation* (transfers, kernel launches,
    allocations); every decision is drawn from a generator seeded with
    ``seed``, so the same plan against the same workload injects the
    same faults at the same operations.
    """

    seed: int = 0
    #: probability that an ``h2d``/``d2h`` raises :class:`TransferError`
    transfer_fault_rate: float = 0.0
    #: probability that a kernel launch raises :class:`KernelFaultError`
    kernel_fault_rate: float = 0.0
    #: probability (per op) that a memory-pressure episode *starts*
    memory_pressure_rate: float = 0.0
    #: fraction of the currently-free pool bytes withheld by an episode
    pressure_fraction: float = 0.75
    #: episode length in simulated seconds (retry backoff outlasts it)
    pressure_duration_s: float = 5e-4
    #: episodes may only *start* after this many operations — lets the
    #: warm-up (uploads, chunk planning) see the true pool, so the storm
    #: hits a schedule that was sized for a healthy device
    pressure_min_op: int = 0
    #: hard cap on total injected faults (``None`` = unlimited)
    max_faults: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "transfer_fault_rate",
            "kernel_fault_rate",
            "memory_pressure_rate",
        ):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if not (0.0 < self.pressure_fraction < 1.0):
            raise ConfigurationError("pressure_fraction must be in (0, 1)")
        if self.pressure_duration_s <= 0:
            raise ConfigurationError("pressure_duration_s must be positive")
        if self.pressure_min_op < 0:
            raise ConfigurationError("pressure_min_op must be >= 0")
        if self.max_faults is not None and self.max_faults < 0:
            raise ConfigurationError("max_faults must be >= 0")

    @property
    def any_faults(self) -> bool:
        return (
            self.transfer_fault_rate > 0
            or self.kernel_fault_rate > 0
            or self.memory_pressure_rate > 0
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded in operation order."""

    op_index: int
    kind: str  # "transfer" | "kernel" | "pressure-start" | "pressure-end"
    op: str  # the GPU operation the fault hit ("h2d", "traversal", ...)
    sim_time_s: float
    detail: str = ""

    def key(self) -> tuple:
        """Identity tuple for determinism comparisons across runs."""
        return (self.op_index, self.kind, self.op, self.detail)


class FaultInjector(GPUProxy):
    """Wraps a :class:`GPU` and injects the faults of a :class:`FaultPlan`.

    Every op except ``hbm`` traffic ticks the operation counter; serial
    and async ops share one seeded draw sequence, so an async enqueue
    faults exactly where its serial twin would.
    """

    def __init__(self, inner: GPU | GPUProxy, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.plan = plan
        self.events: list[FaultEvent] = []
        self.op_index = 0
        self.faults_injected = 0
        self._rng = np.random.default_rng(plan.seed)
        self._pressure_reserved = 0
        self._pressure_until = 0.0

    # -- plan execution ------------------------------------------------
    def _budget_left(self) -> bool:
        cap = self.plan.max_faults
        return cap is None or self.faults_injected < cap

    def _record(self, kind: str, op: str, detail: str = "") -> None:
        self.events.append(
            FaultEvent(
                op_index=self.op_index,
                kind=kind,
                op=op,
                sim_time_s=self.inner.ledger.total_seconds,
                detail=detail,
            )
        )

    def _release_pressure(self, op: str) -> None:
        self.inner.pool.reserved_bytes -= self._pressure_reserved
        self._pressure_reserved = 0
        self._record("pressure-end", op)

    def _tick(self, op: str) -> None:
        """Advance the operation counter and run the pressure state machine."""
        self.op_index += 1
        now = self.inner.ledger.total_seconds
        if self._pressure_reserved and now >= self._pressure_until:
            self._release_pressure(op)
        if (
            not self._pressure_reserved
            and self.plan.memory_pressure_rate > 0
            and self.op_index > self.plan.pressure_min_op
            and self._budget_left()
            and self._rng.random() < self.plan.memory_pressure_rate
        ):
            free = max(0, self.inner.pool.free_bytes)
            withheld = int(free * self.plan.pressure_fraction)
            if withheld > 0:
                self._pressure_reserved = withheld
                self._pressure_until = now + self.plan.pressure_duration_s
                self.inner.pool.reserved_bytes += withheld
                self.faults_injected += 1
                self.inner.ledger.count("injected_memory_pressure")
                self.inner.ledger.count("faults_injected")
                self._record("pressure-start", op, detail=f"{withheld}B")

    def _fault(self, rate: float) -> bool:
        if rate <= 0 or not self._budget_left():
            return False
        if self._rng.random() >= rate:
            return False
        self.faults_injected += 1
        self.inner.ledger.count("faults_injected")
        return True

    # -- the intercepted op --------------------------------------------
    def execute(self, op: DeviceOp) -> Any:
        """Tick, draw, and raise before anything is charged — or pass the
        op on unchanged."""
        kind = op.kind
        if kind == "hbm":
            return self.inner.execute(op)
        self._tick(kind)
        if kind == "malloc":
            return self._malloc(op)
        if kind in ("h2d", "d2h"):
            if self._fault(self.plan.transfer_fault_rate):
                nbytes = int(op.args[0])
                self.inner.ledger.count("injected_transfer_faults")
                self._record("transfer", kind, detail=f"{nbytes}B")
                raise TransferError(kind, nbytes, self.op_index)
        elif self._fault(self.plan.kernel_fault_rate):
            self.inner.ledger.count("injected_kernel_faults")
            self._record("kernel", kind)
            raise KernelFaultError(kind, self.op_index)
        return self.inner.execute(op)

    def _malloc(self, op: DeviceOp) -> Any:
        try:
            return self.inner.execute(op)
        except MemoryPressureError:
            raise
        except DeviceMemoryError as exc:
            nbytes, label = op.args
            if (
                self._pressure_reserved
                and int(nbytes) <= exc.available + self._pressure_reserved
            ):
                # would have fit without the episode's reservation:
                # transient, typed as recoverable for the retry ladder
                self.inner.ledger.count("injected_pressure_oom")
                self._record("pressure-oom", "malloc", detail=label)
                raise MemoryPressureError(
                    exc.requested, exc.available, exc.what
                ) from exc
            raise

    # -- introspection --------------------------------------------------
    def event_log(self) -> list[tuple]:
        """Deterministic identity view of the injected events (for
        comparing two runs; excludes simulated timestamps, which shift
        with recovery backoff)."""
        return [ev.key() for ev in self.events]

    def fault_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ev in self.events:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return counts
