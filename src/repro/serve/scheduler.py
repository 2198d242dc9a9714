"""Request queue + pattern-batched dispatch across simulated devices.

The scheduler turns a stream of :class:`SolveRequest` jobs into batched
work on a pool of simulated GPUs:

* **Bounded queue / backpressure** — ``submit`` refuses work past
  ``max_queue_depth`` with :class:`~repro.errors.QueueFullError`; the
  caller must drain (or shed load) before enqueuing more.
* **Pattern batching** — at drain time, pending requests are grouped by
  sparsity-pattern key.  Each group fetches (or builds) one
  :class:`~repro.core.ReusableAnalysis` and then runs *numeric-only*
  refactorizations, one per distinct value set; requests whose value
  arrays are bit-identical coalesce onto a single refactorization and
  differ only in their triangular solves.
* **Device affinity** — a pattern is pinned to the device that analyzed
  it (the analysis's buffers conceptually live there), so repeat traffic
  for a hot pattern stays local; cold patterns go to the least-loaded
  device.
* **Deadlines** — a request whose simulated completion time passes its
  absolute deadline is reported as ``timeout``; requests already past
  deadline when their batch starts are shed without consuming numeric
  work.
* **Retry-on-eviction** — if a cached analysis turns out not to match
  the batch's pattern (stale or poisoned entry), the entry is
  invalidated, the pattern re-analyzed, and the batch retried once
  (:data:`REFACTORIZE_RETRY`); exhausting that budget surfaces
  per-request ``error`` responses.
* **Value screening** — a request whose matrix holds a NaN or infinite
  value is answered ``error`` at drain time and never reaches a device
  or a batch.
* **Circuit breaking + CPU fallback** — a device whose batch fails with
  a :class:`~repro.errors.RecoverableError` (after the per-operation
  retries of its :class:`~repro.core.ResilientGPU` wrapper are spent)
  records a breaker failure; the batch is rerouted to another device
  within the dispatch retry budget (:data:`DISPATCH_RETRY`).  When
  every device is excluded or breaker-open, the batch degrades to the
  CPU reference path (``preprocess`` → ``symbolic_fill_reference`` →
  ``factorize_leftlooking``), timed by the cost model's CPU constants
  on a separate ``cpu_busy_until`` timeline.

Time is *simulated* throughout: each device advances a ``busy_until``
clock by the simulated seconds its GPU ledger records for the work it
executes, so latencies and throughput are deterministic.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.incremental import best_donor, incremental_analyze_pre
from ..core.refactorize import ReusableAnalysis, analyze
from ..core.resilient import ResilientGPU, RetryPolicy
from ..errors import (
    DeadlineExceededError,
    NonFiniteValueError,
    QueueFullError,
    RecoverableError,
    ReproError,
    ServeError,
    SparseFormatError,
)
from ..gpusim import GPU, FaultInjector
from ..numeric import factorize_leftlooking, lu_solve_permuted, solve_plan
from ..preprocess import preprocess, require_finite
from ..sparse import CSRMatrix
from ..symbolic import symbolic_fill_reference
from .breaker import CircuitBreaker
from .cache import (
    AnalysisCache,
    pattern_key,
    strip_explicit_zeros,
    values_key,
)
from .metrics import ServiceMetrics

if TYPE_CHECKING:
    from .service import ServeConfig

__all__ = [
    "SolveRequest",
    "SolveResponse",
    "SimulatedDevice",
    "DevicePool",
    "BatchScheduler",
]

#: batch reroute budget across devices when one fails recoverably (rung 4)
DISPATCH_RETRY = RetryPolicy(max_attempts=3, base_delay_s=1e-4, backoff=2.0)
#: stale-cache-entry rebuild budget: two attempts with no backoff, i.e.
#: one retry
REFACTORIZE_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0)


@dataclass
class SolveRequest:
    """One queued solve: matrix values ``a``, right-hand side ``b``, and an
    optional absolute simulated-time ``deadline``."""

    request_id: int
    a: CSRMatrix
    b: np.ndarray
    key: str
    arrival: float
    deadline: float | None = None
    #: was the pattern's analysis resident when this request was accepted?
    cached_at_submit: bool = False
    #: explicit pattern-family digest (near-miss donor lookups); ``None``
    #: disables incremental splicing for this request
    family: str | None = None


@dataclass
class SolveResponse:
    """Outcome of one request.  ``status`` is one of ``ok`` / ``timeout`` /
    ``error``; ``x`` is only present for ``ok``."""

    request_id: int
    status: str
    x: np.ndarray | None = None
    finish: float = 0.0
    latency: float = 0.0
    cache_hit: bool = False
    device_id: int = -1
    batch_size: int = 1
    coalesced: bool = False
    retried: bool = False
    #: served by the degraded CPU reference path (all devices down)
    fallback: bool = False
    #: the analysis was spliced from a family donor instead of built cold
    incremental: bool = False
    error: str | None = None
    deadline: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def raise_for_status(self) -> "SolveResponse":
        """Exception-style handling: raise on non-``ok`` responses."""
        if self.status == "timeout":
            raise DeadlineExceededError(
                self.request_id,
                self.deadline if self.deadline is not None else self.finish,
                self.finish,
            )
        if self.status != "ok":
            raise ServeError(
                f"request {self.request_id} failed: {self.error or self.status}"
            )
        return self


@dataclass
class SimulatedDevice:
    """One GPU of the pool plus its position on the virtual timeline."""

    device_id: int
    gpu: GPU
    busy_until: float = 0.0
    batches: int = 0
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    failures: int = 0

    def snapshot(self) -> dict:
        return {
            "device_id": self.device_id,
            "busy_until": self.busy_until,
            "batches": self.batches,
            "failures": self.failures,
            "sim_seconds": self.gpu.ledger.total_seconds,
            "breaker": self.breaker.snapshot(),
        }


class DevicePool:
    """Fixed pool of simulated devices with least-loaded selection.

    Each device GPU is optionally wrapped by a
    :class:`~repro.gpusim.FaultInjector` (per ``config.fault_plans``)
    and — when the solver config turns resilience on — a
    :class:`~repro.core.ResilientGPU`, in that order, so operation
    retries re-execute the injected path.
    """

    def __init__(self, config: ServeConfig) -> None:
        solver = config.solver
        fault_plans = config.fault_plans or {}
        self.devices = []
        for d in range(config.num_devices):
            gpu: GPU = GPU(spec=solver.device, host=solver.host,
                           cost=solver.cost_model)
            plan = fault_plans.get(d)
            if plan is not None:
                gpu = FaultInjector(gpu, plan)
            if solver.resilience:
                gpu = ResilientGPU(gpu)
            self.devices.append(
                SimulatedDevice(
                    device_id=d,
                    gpu=gpu,
                    breaker=CircuitBreaker(config=config.breaker),
                )
            )

    def __len__(self) -> int:
        return len(self.devices)

    def least_loaded(self) -> SimulatedDevice:
        return min(self.devices, key=lambda d: (d.busy_until, d.device_id))

    def snapshot(self) -> list[dict]:
        return [d.snapshot() for d in self.devices]


@dataclass
class _Batch:
    """All pending requests sharing one pattern key."""

    key: str
    requests: list[SolveRequest] = field(default_factory=list)
    family: str | None = None

    @property
    def earliest_arrival(self) -> float:
        return min(r.arrival for r in self.requests)


class BatchScheduler:
    """Bounded request queue + pattern-batched dispatcher."""

    def __init__(
        self,
        config: ServeConfig,
        cache: AnalysisCache,
        metrics: ServiceMetrics,
    ) -> None:
        self.config = config
        self.cache = cache
        self.metrics = metrics
        self.pool = DevicePool(config)
        #: virtual timeline of the degraded CPU path
        self.cpu_busy_until = 0.0
        self._queue: list[SolveRequest] = []
        #: pattern key -> device that holds/built its analysis
        self._affinity: dict[str, int] = {}
        #: optional hook fired when this scheduler *builds* an analysis
        #: (not when it adopts one) — the fleet tier uses it for
        #: write-through publication to the shared L2 cache
        self.on_install: (
            Callable[[str, ReusableAnalysis], None] | None
        ) = None

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return len(self._queue)

    def make_request(
        self,
        request_id: int,
        a: CSRMatrix,
        b: np.ndarray,
        *,
        arrival: float,
        deadline: float | None = None,
        family: str | None = None,
    ) -> SolveRequest:
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        if b.shape[0] != a.n_rows:
            raise ValueError(
                f"rhs length {b.shape[0]} != matrix rows {a.n_rows}"
            )
        # canonicalize away explicitly stored zeros so the analyzed
        # pattern is the one the key describes (an explicit 0.0 is
        # numerically equivalent to an absent entry)
        a = strip_explicit_zeros(a)
        key = pattern_key(a)
        return SolveRequest(
            request_id=request_id,
            a=a,
            b=b,
            key=key,
            arrival=arrival,
            deadline=deadline,
            cached_at_submit=key in self.cache,
            family=family,
        )

    def submit(self, request: SolveRequest) -> None:
        """Enqueue or raise :class:`QueueFullError` (backpressure)."""
        depth = self.config.max_queue_depth
        if len(self._queue) >= depth:
            self.metrics.count("rejected")
            raise QueueFullError(len(self._queue), depth)
        self._queue.append(request)
        self.metrics.count("submitted")
        self.metrics.observe("queue_depth", float(len(self._queue)))

    # ------------------------------------------------------------------
    def drain(self, now: float) -> list[SolveResponse]:
        """Dispatch every queued request; returns responses ordered by
        request id.  ``now`` is the current virtual time — no batch starts
        before it."""
        batches: dict[str, _Batch] = {}
        responses: list[SolveResponse] = []
        for req in self._queue:
            try:
                require_finite(req.a.data)
            except NonFiniteValueError as exc:
                # answered without device work: such values cannot be
                # factorized, and a cold pattern analyzed from them
                # would fail the good requests of its batch too
                self.metrics.count("errors")
                responses.append(self._finish(
                    req, "error", None, now, False, None, 1, False,
                    error=f"{type(exc).__name__}: {exc}"))
                continue
            batch = batches.setdefault(req.key, _Batch(key=req.key))
            batch.requests.append(req)
            if batch.family is None:
                batch.family = req.family
        self._queue.clear()
        # earliest-arrival-first over pattern groups keeps FIFO fairness
        # at batch granularity
        for batch in sorted(batches.values(),
                            key=lambda b: b.earliest_arrival):
            responses.extend(self._dispatch_batch(batch, now))
        responses.sort(key=lambda r: r.request_id)
        return responses

    # ------------------------------------------------------------------
    def _install(self, key: str, analysis: ReusableAnalysis,
                 device_id: int, *, built: bool = True) -> None:
        """Insert an analysis into the cache (surfacing evictions) and
        pin the pattern's affinity to ``device_id``.  ``built`` marks a
        locally constructed analysis (fires :attr:`on_install`) as
        opposed to one adopted from an external tier."""
        evicted = self.cache.put(key, analysis)
        if evicted:
            self.metrics.count("cache_evictions", len(evicted))
            for old in evicted:
                self._affinity.pop(old, None)
        if key in self.cache:  # refused oversized entries stay cold
            self._affinity[key] = device_id
        else:
            self._affinity.pop(key, None)
        if built and self.on_install is not None:
            self.on_install(key, analysis)

    def adopt_analysis(
        self, key: str, analysis: ReusableAnalysis
    ) -> int:
        """Install an externally built analysis (an L2-tier fetch from
        :mod:`repro.fleet`) as if this scheduler had analyzed ``key``
        itself.  The analysis is rebound to the least-loaded device's
        GPU — it is pure pattern state, so only the timeline moves, the
        factors it produces stay bitwise-identical — cached, and the
        pattern's affinity pinned there.  Returns the adopting device
        id."""
        device = self.pool.least_loaded()
        local = copy.copy(analysis)
        local.gpu = device.gpu
        self._install(key, local, device.device_id, built=False)
        self.metrics.count("adopted_analyses")
        return device.device_id

    # ------------------------------------------------------------------
    def _device_for(
        self, batch: _Batch, now: float, exclude: set[int] = frozenset()
    ) -> SimulatedDevice | None:
        """Route a batch: affinity device first (when its analysis is
        resident), else least-loaded — skipping excluded devices and any
        whose circuit breaker refuses traffic.  ``None`` when no device
        will take the batch (degrade to the CPU path)."""
        order = sorted(
            (d for d in self.pool.devices if d.device_id not in exclude),
            key=lambda d: (d.busy_until, d.device_id),
        )
        dev_id = self._affinity.get(batch.key)
        if dev_id is not None and batch.key in self.cache:
            order.sort(key=lambda d: d.device_id != dev_id)  # stable
        for device in order:
            if device.breaker.allow(now):
                return device
        return None

    def _analyze_on(
        self, device: SimulatedDevice, a: CSRMatrix
    ) -> tuple[ReusableAnalysis, float]:
        """Build an analysis on ``device``; returns it plus sim seconds."""
        t0 = device.gpu.ledger.total_seconds
        analysis = analyze(a, self.config.solver, gpu=device.gpu)
        elapsed = device.gpu.ledger.total_seconds - t0
        self.metrics.charge("analysis", elapsed)
        return analysis, elapsed

    def _incremental_on(
        self, device: SimulatedDevice, batch: _Batch
    ) -> tuple[ReusableAnalysis, float] | None:
        """Try to splice the batch's pattern from a resident family donor.

        Probes the family index newest-first (host-side, free in
        simulated time) for a donor whose structural delta fits the
        :func:`~repro.core.best_donor` budget; on success the splice runs
        on ``device`` and its cost is charged to the ``analysis_delta``
        metric.  Returns ``None`` — and counts a fallback when donors
        existed — if no donor qualifies, leaving the cold path to the
        caller.
        """
        if not self.config.incremental or batch.family is None:
            return None
        donors = [
            d
            for k in self.cache.family_members(batch.family)
            if k != batch.key
            and (d := self.cache.peek(k)) is not None
        ]
        if not donors:
            return None
        solver = self.config.solver
        pre = preprocess(batch.requests[0].a)
        pick = best_donor(donors, pre.matrix)
        if pick is None:
            # family members resident but every delta over threshold:
            # the cold oracle runs instead
            self.metrics.count("incremental_fallbacks")
            return None
        donor, delta = pick
        t0 = device.gpu.ledger.total_seconds
        analysis, report = incremental_analyze_pre(
            donor, pre, delta, solver, gpu=device.gpu
        )
        elapsed = device.gpu.ledger.total_seconds - t0
        self.metrics.charge("analysis_delta", elapsed)
        self.metrics.count("incremental_hits")
        self.metrics.observe("delta_size", float(report.delta_size))
        self.metrics.observe(
            "rows_recomputed", float(report.rows_recomputed)
        )
        return analysis, elapsed

    def _dispatch_batch(
        self, batch: _Batch, now: float
    ) -> list[SolveResponse]:
        """Run a batch with rung-4 semantics: device faults trip the
        breaker and reroute the whole batch (it is re-runnable — solves
        are pure) until the dispatch retry budget or the device pool is
        exhausted, then degrade to the CPU reference path."""
        tried: set[int] = set()
        last_error: RecoverableError | None = None
        policy = DISPATCH_RETRY
        for attempt in range(1, policy.max_attempts + 1):
            device = self._device_for(batch, now, exclude=tried)
            if device is None:
                break
            try:
                return self._run_batch_on(device, batch, now)
            except RecoverableError as exc:
                last_error = exc
                tried.add(device.device_id)
                self._device_failed(device, exc, now)
                if attempt < policy.max_attempts:
                    # rerouted batch restarts after a breather
                    now += policy.delay(attempt)
        return self._dispatch_fallback(batch, now, last_error)

    def _device_failed(
        self, device: SimulatedDevice, exc: RecoverableError, now: float
    ) -> None:
        device.failures += 1
        self.metrics.count("device_failures")
        trips_before = device.breaker.trips
        device.breaker.record_failure(now)
        if device.breaker.trips > trips_before:
            self.metrics.count("breaker_trips")

    def _run_batch_on(
        self, device: SimulatedDevice, batch: _Batch, now: float
    ) -> list[SolveResponse]:
        device.batches += 1
        ledger0 = device.gpu.ledger.total_seconds
        try:
            responses = self._execute_batch(device, batch, now)
        except RecoverableError:
            # the device burned simulated time before failing; its
            # timeline advances by exactly the ledger seconds consumed
            device.busy_until = max(device.busy_until, now) + (
                device.gpu.ledger.total_seconds - ledger0
            )
            raise
        device.breaker.record_success(device.busy_until)
        return responses

    def _execute_batch(
        self, device: SimulatedDevice, batch: _Batch, now: float
    ) -> list[SolveResponse]:
        t = max(device.busy_until, now)
        size = len(batch.requests)
        self.metrics.observe("batch_size", float(size))

        analysis = self.cache.get(batch.key)
        hit = analysis is not None
        retried = False
        incremental = False
        if hit:
            # _device_for already routed the batch to the pattern's
            # affinity device when the analysis is resident
            self.metrics.count("cache_hits")
        else:
            self.metrics.count("cache_misses")
            if any(r.cached_at_submit for r in batch.requests):
                # resident at submit, gone at dispatch: evicted in between
                self.metrics.count("evicted_before_dispatch")
            spliced = self._incremental_on(device, batch)
            if spliced is not None:
                analysis, elapsed = spliced
                incremental = True
            else:
                analysis, elapsed = self._analyze_on(
                    device, batch.requests[0].a
                )
            t += elapsed
            analysis.family = batch.family
            self._install(batch.key, analysis, device.device_id)

        # coalesce bit-identical value sets onto one refactorization each
        by_values: dict[str, list[SolveRequest]] = {}
        for req in batch.requests:
            by_values.setdefault(values_key(req.a), []).append(req)

        responses: list[SolveResponse] = []
        for reqs in by_values.values():
            viable = [
                r for r in reqs if r.deadline is None or r.deadline >= t
            ]
            if not viable:
                # every request already past deadline: shed without work
                for r in reqs:
                    self.metrics.count("timeouts")
                    self.metrics.count("shed")
                    responses.append(self._finish(
                        r, "timeout", None, t, hit, device, size, retried,
                        incremental=incremental))
                continue
            try:
                result, numeric_s, retried_now = self._refactorize(
                    device, batch, analysis, viable[0].a)
                retried = retried or retried_now
            except RecoverableError:
                # device fault: handled at batch level (breaker + reroute)
                raise
            except ReproError as exc:
                for r in reqs:
                    self.metrics.count("errors")
                    responses.append(self._finish(
                        r, "error", None, t, hit, device, size, retried,
                        incremental=incremental,
                        error=f"{type(exc).__name__}: {exc}"))
                continue
            if retried:
                analysis = result.analysis
            t += numeric_s
            for i, r in enumerate(reqs):
                t0 = device.gpu.ledger.total_seconds
                x = result.solve(r.b)
                # the two triangular solves stream L and U once each
                device.gpu.launch_utility(result.L.nnz + result.U.nnz)
                solve_s = device.gpu.ledger.total_seconds - t0
                self.metrics.charge("solve", solve_s)
                t += solve_s
                if r.deadline is not None and t > r.deadline:
                    self.metrics.count("timeouts")
                    responses.append(self._finish(
                        r, "timeout", None, t, hit, device, size, retried,
                        incremental=incremental))
                    continue
                if i > 0:
                    self.metrics.count("coalesced")
                self.metrics.count("completed")
                responses.append(self._finish(
                    r, "ok", x, t, hit, device, size, retried,
                    coalesced=i > 0, incremental=incremental))
        device.busy_until = t
        return responses

    def _refactorize(self, device, batch, analysis, a):
        """Numeric-only pass with the retry-on-bad-entry path.

        A stale/poisoned cache entry (``SparseFormatError``) is purged
        and rebuilt under :data:`REFACTORIZE_RETRY`; exhausting it
        propagates the error (surfaced as per-request ``error``
        responses, never an infinite rebuild loop).
        """
        policy = REFACTORIZE_RETRY
        t0 = device.gpu.ledger.total_seconds
        backoff = 0.0
        retried = False
        for attempt in range(1, policy.max_attempts + 1):
            try:
                result = analysis.refactorize(a)
                break
            except SparseFormatError:
                self.cache.invalidate(batch.key)
                if attempt >= policy.max_attempts:
                    raise
                self.metrics.count("retries")
                backoff += policy.delay(attempt)
                analysis, _ = self._analyze_on(device, a)
                analysis.family = batch.family
                self._install(batch.key, analysis, device.device_id)
                retried = True
        numeric_s = device.gpu.ledger.total_seconds - t0 + backoff
        self.metrics.charge("numeric", result.sim_seconds)
        return result, numeric_s, retried

    def _dispatch_fallback(
        self,
        batch: _Batch,
        now: float,
        last_error: RecoverableError | None = None,
    ) -> list[SolveResponse]:
        """Degraded path: every device is tripped or exhausted.

        With ``cpu_fallback`` enabled the batch runs the host reference
        pipeline (``preprocess`` → ``symbolic_fill_reference`` →
        ``factorize_leftlooking``), timed with the cost model's CPU
        constants on the dedicated ``cpu_busy_until`` timeline; responses
        carry ``fallback=True``.  Otherwise the device failure surfaces
        as per-request errors.
        """
        size = len(batch.requests)
        if not self.config.cpu_fallback:
            msg = (
                f"{type(last_error).__name__}: {last_error}"
                if last_error is not None
                else "no device available (all circuit breakers open)"
            )
            responses = []
            for r in batch.requests:
                self.metrics.count("errors")
                responses.append(self._finish(
                    r, "error", None, now, False, None, size, False,
                    error=msg))
            return responses

        self.metrics.count("cpu_fallbacks")
        cfg = self.config.solver
        cost, host = cfg.cost_model, cfg.host
        t = max(self.cpu_busy_until, now)
        responses: list[SolveResponse] = []

        by_values: dict[str, list[SolveRequest]] = {}
        for req in batch.requests:
            by_values.setdefault(values_key(req.a), []).append(req)

        for reqs in by_values.values():
            viable = [
                r for r in reqs if r.deadline is None or r.deadline >= t
            ]
            if not viable:
                for r in reqs:
                    self.metrics.count("timeouts")
                    self.metrics.count("shed")
                    responses.append(self._finish(
                        r, "timeout", None, t, False, None, size, False,
                        fallback=True))
                continue
            try:
                pre = preprocess(viable[0].a)
                filled = symbolic_fill_reference(pre.matrix)
                t += cost.cpu_traversal_seconds(filled.nnz, host)
                L, U = factorize_leftlooking(pre.matrix, filled)
                # update flops bounded by column-of-L x row-of-U products
                lcol = np.diff(L.indptr) - 1  # unit diagonal excluded
                urow = np.bincount(U.indices, minlength=U.n_rows)
                t += cost.cpu_numeric_seconds(
                    2 * int(lcol @ urow), host)
            except RecoverableError:
                raise  # CPU path never raises these; defensive
            except ReproError as exc:
                for r in reqs:
                    self.metrics.count("errors")
                    responses.append(self._finish(
                        r, "error", None, t, False, None, size, False,
                        fallback=True,
                        error=f"{type(exc).__name__}: {exc}"))
                continue
            plan = solve_plan(L, U)
            for i, r in enumerate(reqs):
                x = lu_solve_permuted(
                    L, U, r.b,
                    row_perm=pre.row_perm, col_perm=pre.col_perm,
                    plan=plan,
                )
                # the two triangular sweeps touch each factor entry once
                t += cost.cpu_numeric_seconds(L.nnz + U.nnz, host)
                if r.deadline is not None and t > r.deadline:
                    self.metrics.count("timeouts")
                    responses.append(self._finish(
                        r, "timeout", None, t, False, None, size, False,
                        fallback=True))
                    continue
                if i > 0:
                    self.metrics.count("coalesced")
                self.metrics.count("completed")
                self.metrics.count("fallback_completed")
                responses.append(self._finish(
                    r, "ok", x, t, False, None, size, False,
                    coalesced=i > 0, fallback=True))
        self.cpu_busy_until = t
        return responses

    def _finish(
        self, req, status, x, t, hit, device, size, retried, *,
        coalesced=False, fallback=False, incremental=False, error=None,
    ) -> SolveResponse:
        latency = t - req.arrival
        self.metrics.observe("latency", latency)
        if status == "ok":
            self.metrics.observe("ok_latency", latency)
        return SolveResponse(
            request_id=req.request_id,
            status=status,
            x=x,
            finish=t,
            latency=latency,
            cache_hit=hit,
            device_id=device.device_id if device is not None else -1,
            batch_size=size,
            coalesced=coalesced,
            retried=retried,
            fallback=fallback,
            incremental=incremental,
            error=error,
            deadline=req.deadline,
        )
