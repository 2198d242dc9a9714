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

import numpy as np

from ..errors import (
    ConfigurationError,
    DeviceMemoryError,
    KernelFaultError,
    MemoryPressureError,
    TransferError,
)
from .engine import GPU

__all__ = ["FaultPlan", "FaultEvent", "FaultInjector", "GPUProxy"]


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
        for name in ("transfer_fault_rate", "kernel_fault_rate",
                     "memory_pressure_rate"):
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


class GPUProxy:
    """Delegating wrapper base: behaves as the wrapped ``GPU`` everywhere.

    Subclasses override the operations they intercept; every other
    attribute (``ledger``, ``pool``, ``spec``, ``free``, ``snapshot`` …)
    resolves on the wrapped instance.  Wrappers therefore stack:
    ``ResilientGPU(FaultInjector(GPU(...)))``.
    """

    def __init__(self, inner: GPU) -> None:
        self.inner = inner

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    @property
    def unwrapped(self) -> GPU:
        """The innermost real :class:`GPU` under any proxy stack."""
        gpu = self.inner
        while isinstance(gpu, GPUProxy):
            gpu = gpu.inner
        return gpu


class FaultInjector(GPUProxy):
    """Wraps a :class:`GPU` and injects the faults of a :class:`FaultPlan`."""

    def __init__(self, inner: GPU, plan: FaultPlan) -> None:
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
            withheld = int(
                max(0, self.inner.pool.free_bytes) * self.plan.pressure_fraction
            )
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

    # -- intercepted operations ----------------------------------------
    def h2d(self, nbytes: int, category: str | None = "transfer") -> None:
        self._tick("h2d")
        if self._fault(self.plan.transfer_fault_rate):
            self.inner.ledger.count("injected_transfer_faults")
            self._record("transfer", "h2d", detail=f"{int(nbytes)}B")
            raise TransferError("h2d", int(nbytes), self.op_index)
        self.inner.h2d(nbytes, category)

    def d2h(self, nbytes: int, category: str | None = "transfer") -> None:
        self._tick("d2h")
        if self._fault(self.plan.transfer_fault_rate):
            self.inner.ledger.count("injected_transfer_faults")
            self._record("transfer", "d2h", detail=f"{int(nbytes)}B")
            raise TransferError("d2h", int(nbytes), self.op_index)
        self.inner.d2h(nbytes, category)

    def _launch(self, kernel: str, fn):
        self._tick(kernel)
        if self._fault(self.plan.kernel_fault_rate):
            self.inner.ledger.count("injected_kernel_faults")
            self._record("kernel", kernel)
            raise KernelFaultError(kernel, self.op_index)
        return fn()

    def launch_traversal(self, edges, avg_degree, blocks, *,
                         from_device=False, compute_derate=1.0):
        return self._launch(
            "traversal",
            lambda: self.inner.launch_traversal(
                edges, avg_degree, blocks,
                from_device=from_device, compute_derate=compute_derate,
            ),
        )

    def launch_numeric(self, flops, blocks, *, concurrency_cap=None,
                       search_steps=0, from_device=False):
        return self._launch(
            "numeric",
            lambda: self.inner.launch_numeric(
                flops, blocks, concurrency_cap=concurrency_cap,
                search_steps=search_steps, from_device=from_device,
            ),
        )

    def launch_panel(self, flops, tiles, *, kind="panel-factor",
                     from_device=False):
        return self._launch(
            "panel",
            lambda: self.inner.launch_panel(
                flops, tiles, kind=kind, from_device=from_device,
            ),
        )

    def launch_utility(self, items, *, from_device=False):
        return self._launch(
            "utility",
            lambda: self.inner.launch_utility(items, from_device=from_device),
        )

    def malloc(self, nbytes: int, label: str = ""):
        self._tick("malloc")
        try:
            return self.inner.malloc(nbytes, label)
        except MemoryPressureError:
            raise
        except DeviceMemoryError as exc:
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

    # -- asynchronous-enqueue gates --------------------------------------
    # The streams subsystem resolves op schedules at enqueue and charges
    # nothing until synchronize, so it cannot route async ops through the
    # intercepted serial methods above.  Instead it calls these gates at
    # enqueue time: same tick / draw / record sequence, same determinism
    # (one RNG consumed in op order), but no delegation to the wrapped
    # serial operation — a passing gate books nothing.

    def transfer_fault_gate(self, op: str, nbytes: int) -> None:
        """Fault decision for an async ``h2d``/``d2h`` enqueue; raises
        :class:`TransferError` exactly as the serial interception would."""
        self._tick(op)
        if self._fault(self.plan.transfer_fault_rate):
            self.inner.ledger.count("injected_transfer_faults")
            self._record("transfer", op, detail=f"{int(nbytes)}B")
            raise TransferError(op, int(nbytes), self.op_index)

    def kernel_fault_gate(self, kernel: str) -> None:
        """Fault decision for an async kernel enqueue; raises
        :class:`KernelFaultError` exactly as the serial interception would."""
        self._tick(kernel)
        if self._fault(self.plan.kernel_fault_rate):
            self.inner.ledger.count("injected_kernel_faults")
            self._record("kernel", kernel)
            raise KernelFaultError(kernel, self.op_index)

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
