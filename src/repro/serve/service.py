"""The synchronous solver-service facade.

:class:`SolverService` is the entry point of the serving subsystem: it
owns the analysis cache, the device pool, the scheduler, and the metrics
registry, and exposes the small surface a load generator (or an
application embedding the solver) needs:

* :meth:`~SolverService.submit` — enqueue a solve, returning a request
  id; raises :class:`~repro.errors.QueueFullError` under backpressure.
* :meth:`~SolverService.flush` — dispatch everything queued and return
  the responses (pattern-batched; see :mod:`repro.serve.scheduler`).
* :meth:`~SolverService.solve` — submit + flush convenience for a single
  request.
* :meth:`~SolverService.stats` — one nested dict with counters, latency
  histograms, per-phase simulated seconds, cache stats, and per-device
  timelines.
* :meth:`~SolverService.shutdown` — drain-or-discard then refuse further
  work with :class:`~repro.errors.ServiceShutdownError`.

The service keeps a virtual clock (:attr:`clock`, simulated seconds).
Callers model request arrival spacing with :meth:`tick`; all latencies
are measured on this clock against the simulated device timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import SolverConfig
from ..errors import ServiceShutdownError
from ..gpusim import FaultPlan
from ..sparse import CSRMatrix
from .breaker import BreakerConfig
from .cache import AnalysisCache
from .metrics import ServiceMetrics, format_metrics
from .scheduler import BatchScheduler, SolveResponse

__all__ = ["ServeConfig", "SolverService"]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving runtime (solver knobs live in ``solver``).

    As for :class:`~repro.core.SolverConfig`, a field exists only while a
    caller outside the tests sets it; the retry budgets are constants of
    :mod:`repro.serve.scheduler`.
    """

    solver: SolverConfig = field(default_factory=SolverConfig)
    #: simulated GPUs in the dispatch pool
    num_devices: int = 1
    #: byte budget for resident :class:`ReusableAnalysis` objects
    cache_capacity_bytes: int = 64 << 20
    #: bounded-queue depth; submits past this raise ``QueueFullError``
    max_queue_depth: int = 64
    #: per-device circuit-breaker knobs (rung 4 of the recovery ladder)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: degrade to the CPU reference path when every device is down
    cpu_fallback: bool = True
    #: device id -> seeded fault plan, wrapped around that device's GPU
    fault_plans: dict[int, FaultPlan] | None = None
    #: when a family-hinted pattern misses the exact-key cache, splice
    #: its delta into a resident family donor instead of analyzing cold
    incremental: bool = True

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.cache_capacity_bytes < 0:
            raise ValueError("cache_capacity_bytes must be >= 0")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.fault_plans is not None:
            for dev in self.fault_plans:
                if not (0 <= dev < self.num_devices):
                    raise ValueError(f"fault plan for unknown device {dev}")


class SolverService:
    """Synchronous sparse-LU solver service over simulated devices."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = ServiceMetrics()
        self.cache = AnalysisCache(self.config.cache_capacity_bytes)
        self.scheduler = BatchScheduler(self.config, self.cache, self.metrics)
        self._clock = 0.0
        self._next_id = 0
        self._closed = False
        self._responses: dict[int, SolveResponse] = {}

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self, *, drain: bool = True) -> list[SolveResponse]:
        """Stop accepting work.  With ``drain=True`` (default) queued
        requests are dispatched and their responses returned; otherwise
        they are discarded (counted as ``discarded``).  Idempotent."""
        if self._closed:
            return []
        self._closed = True
        if drain:
            return self._flush()
        discarded = self.scheduler.pending
        self.scheduler._queue.clear()
        self.metrics.count("discarded", discarded)
        return []

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceShutdownError("solver service is shut down")

    # -- clock ----------------------------------------------------------
    @property
    def clock(self) -> float:
        """Current virtual time (simulated seconds)."""
        return self._clock

    def tick(self, dt: float) -> float:
        """Advance the virtual clock (models request inter-arrival gaps)."""
        if dt < 0:
            raise ValueError("cannot tick backwards")
        self._clock += float(dt)
        return self._clock

    # -- request path ---------------------------------------------------
    def submit(
        self,
        a: CSRMatrix,
        b: np.ndarray,
        *,
        deadline: float | None = None,
        timeout: float | None = None,
        family: str | None = None,
    ) -> int:
        """Enqueue ``A x = b``; returns the request id.

        ``deadline`` is absolute virtual time; ``timeout`` is relative to
        now (at most one may be given; with neither the request has no
        deadline).  ``family`` is an optional pattern-family digest (see
        :func:`~repro.serve.cache.family_key`) enabling incremental
        re-analysis from a cached near-miss donor.  Raises
        :class:`QueueFullError` when the bounded queue is at capacity and
        :class:`ServiceShutdownError` after :meth:`shutdown`.
        """
        self._check_open()
        if deadline is not None and timeout is not None:
            raise ValueError("give either deadline or timeout, not both")
        if timeout is not None:
            deadline = self._clock + float(timeout)
        request = self.scheduler.make_request(
            self._next_id,
            a,
            b,
            arrival=self._clock,
            deadline=deadline,
            family=family,
        )
        self.scheduler.submit(request)  # may raise QueueFullError
        self._next_id += 1
        return request.request_id

    @property
    def pending(self) -> int:
        return self.scheduler.pending

    def flush(self) -> list[SolveResponse]:
        """Dispatch all queued requests; returns responses in id order."""
        self._check_open()
        return self._flush()

    def _flush(self) -> list[SolveResponse]:
        responses = self.scheduler.drain(self._clock)
        for resp in responses:
            self._responses[resp.request_id] = resp
        if responses:
            # the clock follows the latest completion so subsequent
            # arrivals cannot be scheduled in the past
            self._clock = max(self._clock, max(r.finish for r in responses))
        return responses

    def result(self, request_id: int) -> SolveResponse | None:
        """Response for an already-flushed request id (else ``None``)."""
        return self._responses.get(request_id)

    def solve(
        self,
        a: CSRMatrix,
        b: np.ndarray,
        *,
        deadline: float | None = None,
        timeout: float | None = None,
        family: str | None = None,
    ) -> SolveResponse:
        """Submit one request and flush immediately.

        Requests already queued by earlier ``submit`` calls are flushed
        (and batched) together with this one.
        """
        rid = self.submit(
            a, b, deadline=deadline, timeout=timeout, family=family
        )
        self.flush()
        return self._responses[rid]

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        """Counters + histograms + cache + device snapshot, one dict."""
        snap = self.metrics.snapshot()
        snap["cache"] = self.cache.stats()
        snap["devices"] = self.scheduler.pool.snapshot()
        snap["breakers"] = {
            d.device_id: d.breaker.snapshot()
            for d in self.scheduler.pool.devices
        }
        snap["cpu_busy_until"] = self.scheduler.cpu_busy_until
        snap["queue_depth"] = self.scheduler.pending
        snap["clock"] = self._clock
        snap["closed"] = self._closed
        return snap

    def format_stats(self) -> str:
        return format_metrics(self.stats())
