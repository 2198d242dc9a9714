"""Load generator: replay a repeated-pattern trace through the service.

This is the measurement harness behind ``repro serve-bench``: it
synthesizes a circuit-simulation-shaped workload (a few distinct sparsity
patterns, many value sets each — Newton iterations / time steps), replays
it through a :class:`~repro.serve.SolverService`, and compares end-to-end
simulated time against the *cold-solve baseline* (every request running
the full analyze-plus-numeric pipeline from scratch on one device).  The
speedup from pattern-keyed analysis reuse is thereby measured, not
asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import SolverConfig
from ..core.refactorize import analyze
from ..errors import QueueFullError
from ..gpusim import GPU
from ..sparse import CSRMatrix
from ..workloads import circuit_like
from .scheduler import SolveResponse
from .service import ServeConfig, SolverService

__all__ = [
    "TraceRequest",
    "LoadReport",
    "restamp",
    "zipf_weights",
    "synthesize_trace",
    "synthesize_drift_trace",
    "replay",
    "cold_baseline_seconds",
    "run_load",
]


@dataclass(frozen=True)
class TraceRequest:
    """One trace event: matrix + rhs arriving ``gap`` after the previous."""

    pattern_id: int
    a: CSRMatrix
    b: np.ndarray
    gap: float = 0.0
    #: pattern-family digest forwarded to ``submit`` (near-miss donor
    #: lookups for drifting patterns); ``None`` = no family hint
    family: str | None = None


def restamp(pattern: CSRMatrix, seed: int) -> CSRMatrix:
    """New diagonally-dominant values on the identical sparsity pattern —
    the per-timestep re-stamp of a circuit simulator."""
    rng = np.random.default_rng(seed)
    out = pattern.copy()
    rows = out.row_ids_of_entries()
    off = rows != out.indices
    out.data[off] = rng.uniform(-1.0, 1.0, int(off.sum()))
    rowsum = np.zeros(out.n_rows)
    np.add.at(rowsum, rows[off], np.abs(out.data[off]))
    out.data[~off] = rowsum[rows[~off]] + 1.0
    return out


def zipf_weights(num_patterns: int, s: float) -> np.ndarray:
    """Normalized zipf popularity ``w_p ∝ 1/(p+1)^s`` over patterns."""
    if s <= 0:
        raise ValueError("zipf exponent must be positive")
    w = 1.0 / np.power(np.arange(1, num_patterns + 1, dtype=np.float64), s)
    return w / w.sum()


def synthesize_trace(
    *,
    num_patterns: int = 3,
    num_requests: int = 60,
    n: int = 200,
    nnz_per_row: float = 7.0,
    seed: int = 0,
    arrival_gap: float = 0.0,
    duplicate_fraction: float = 0.1,
    popularity: str = "roundrobin",
    zipf_s: float = 1.1,
    diurnal_amplitude: float = 0.0,
    diurnal_period: int = 0,
) -> list[TraceRequest]:
    """A repeated-pattern request stream.

    With the default ``popularity="roundrobin"`` patterns rotate (every
    pattern stays warm, like the per-subcircuit matrices of a simulator
    stepping all subcircuits each timestep); ``popularity="zipf"`` draws
    each request's pattern from a zipf distribution with exponent
    ``zipf_s`` (multi-tenant skew: a few hot tenants dominate, a long
    tail stays cold — the traffic shape fleet routing and the two-tier
    cache are built for).  Each request gets freshly re-stamped values
    except a ``duplicate_fraction`` share that reuses the previous value
    set of its pattern (exercising the scheduler's value-coalescing
    path).

    ``diurnal_amplitude`` ∈ [0, 1) with a positive ``diurnal_period``
    modulates the arrival *rate* sinusoidally over the request index —
    one period ≈ one synthetic day — so inter-arrival gaps shrink at
    peak and stretch in the trough:
    ``gap_i = arrival_gap / (1 + A sin(2π i / period))``.  Everything is
    driven by ``seed``; the same arguments always produce a
    byte-identical trace.
    """
    if num_patterns < 1 or num_requests < 1:
        raise ValueError("need at least one pattern and one request")
    if popularity not in ("roundrobin", "zipf"):
        raise ValueError(
            f"popularity must be 'roundrobin' or 'zipf', "
            f"got {popularity!r}"
        )
    if not (0.0 <= diurnal_amplitude < 1.0):
        raise ValueError("diurnal_amplitude must be in [0, 1)")
    if diurnal_amplitude > 0.0 and diurnal_period < 2:
        raise ValueError(
            "diurnal_amplitude needs diurnal_period >= 2"
        )
    rng = np.random.default_rng(seed)
    patterns = [
        circuit_like(n, nnz_per_row, seed=seed + 101 * p)
        for p in range(num_patterns)
    ]
    weights = (
        zipf_weights(num_patterns, zipf_s)
        if popularity == "zipf" else None
    )
    last_stamp: dict[int, CSRMatrix] = {}
    trace: list[TraceRequest] = []
    for i in range(num_requests):
        if weights is None:
            p = i % num_patterns
        else:
            p = int(rng.choice(num_patterns, p=weights))
        if p in last_stamp and rng.random() < duplicate_fraction:
            a = last_stamp[p]
        else:
            a = restamp(patterns[p], seed=seed + 7919 * i)
            last_stamp[p] = a
        b = rng.normal(size=n)
        gap = arrival_gap
        if diurnal_amplitude > 0.0 and gap > 0.0:
            rate = 1.0 + diurnal_amplitude * float(
                np.sin(2.0 * np.pi * i / diurnal_period)
            )
            gap = arrival_gap / rate
        trace.append(TraceRequest(pattern_id=p, a=a, b=b, gap=gap))
    return trace


def synthesize_drift_trace(
    *,
    num_families: int = 2,
    num_requests: int = 60,
    n: int = 400,
    nnz_per_row: float = 7.0,
    seed: int = 0,
    arrival_gap: float = 0.0,
    drift_every: int = 4,
    drift_add: int = 3,
    drift_remove: int = 0,
    drift_bandwidth: int = 8,
    reset_every: int = 0,
    matrix_class: str = "circuit",
) -> list[TraceRequest]:
    """A drifting-pattern request stream (the incremental-reanalysis
    workload).

    Each *family* is one slowly-evolving circuit: requests rotate over
    families round-robin, re-stamping values every event (the
    per-timestep refresh of a simulator), and every ``drift_every``-th
    visit to a family perturbs its sparsity pattern band-locally
    (``drift_add`` insertions / ``drift_remove`` removals within
    ``drift_bandwidth`` of the diagonal — see
    :func:`~repro.workloads.perturb_pattern`).  Every event carries the
    family's :func:`~repro.serve.cache.family_key` digest, so each
    post-drift miss can splice the cached pre-drift analysis instead of
    analyzing cold.

    A positive ``reset_every`` additionally *re-bases* a family to a
    fresh unrelated pattern every that-many visits — modelling topology
    churn large enough that no donor is within the incremental budget,
    which exercises the threshold fallback to the cold oracle.
    ``matrix_class`` selects the base-pattern generator: ``"circuit"``
    (irregular, heavy-tailed rows) or ``"fem"`` (banded symmetric, the
    class where band-local drift stays most contained and splicing pays
    off most).  Deterministic under ``seed``.
    """
    if num_families < 1 or num_requests < 1:
        raise ValueError("need at least one family and one request")
    if drift_every < 2:
        raise ValueError("drift_every must be >= 2")
    from ..workloads import fem_like, perturb_pattern
    from .cache import family_key

    generators = {"circuit": circuit_like, "fem": fem_like}
    if matrix_class not in generators:
        raise ValueError(
            f"matrix_class must be one of {sorted(generators)}, "
            f"got {matrix_class!r}"
        )
    base_of = generators[matrix_class]
    rng = np.random.default_rng(seed)
    current = [
        base_of(n, nnz_per_row, seed=seed + 101 * f)
        for f in range(num_families)
    ]
    families = [
        family_key(current[f], hint=f"fam{f}")
        for f in range(num_families)
    ]
    visits = [0] * num_families
    trace: list[TraceRequest] = []
    for i in range(num_requests):
        f = i % num_families
        visits[f] += 1
        if reset_every and visits[f] % reset_every == 0:
            current[f] = base_of(
                n, nnz_per_row, seed=seed + 101 * f + 9973 * visits[f]
            )
        elif visits[f] % drift_every == 0:
            current[f] = perturb_pattern(
                current[f],
                add=drift_add,
                remove=drift_remove,
                bandwidth=drift_bandwidth,
                seed=seed + 31 * i,
            )
        a = restamp(current[f], seed=seed + 7919 * i)
        b = rng.normal(size=n)
        trace.append(TraceRequest(
            pattern_id=f, a=a, b=b, gap=arrival_gap,
            family=families[f],
        ))
    return trace


@dataclass
class LoadReport:
    """Outcome of one trace replay (all times are simulated seconds)."""

    requests: int
    completed: int
    timeouts: int
    errors: int
    rejected: int
    hit_rate: float
    service_seconds: float
    baseline_seconds: float
    latency_p50: float
    latency_p99: float
    responses: list[SolveResponse] = field(repr=False, default_factory=list)
    #: full :meth:`SolverService.stats` snapshot at shutdown
    stats: dict = field(repr=False, default_factory=dict)

    @property
    def speedup(self) -> float:
        """Cold-solve baseline time over serviced time (higher =
        better).  A zero-duration replay (empty trace, or every request
        shed before touching a device) reports 0.0 rather than a
        meaningless infinity."""
        if self.service_seconds <= 0 or self.baseline_seconds <= 0:
            return 0.0
        return self.baseline_seconds / self.service_seconds

    @property
    def throughput(self) -> float:
        """Completed requests per simulated second (0.0 for
        zero-duration traces)."""
        if self.service_seconds <= 0 or not self.completed:
            return 0.0
        return self.completed / self.service_seconds

    def perf_record(self) -> dict:
        """Machine-readable record for the perf-snapshot suite: exact
        request/cache counters plus tolerance-banded simulated timings.
        Non-finite ratios (empty replays) are recorded as 0.0 so the
        snapshot stays strict-JSON serializable."""
        import math

        cache = self.stats.get("cache", {}) if self.stats else {}
        counters = {
            "requests": int(self.requests),
            "completed": int(self.completed),
            "timeouts": int(self.timeouts),
            "errors": int(self.errors),
            "rejected": int(self.rejected),
            "cache_hits": int(cache.get("hits", 0)),
            "cache_misses": int(cache.get("misses", 0)),
            "cache_evictions": int(cache.get("evictions", 0)),
            "cache_entries": int(cache.get("entries", 0)),
        }

        def _finite(x: float) -> float:
            return float(x) if math.isfinite(x) else 0.0

        timings = {
            "hit_rate": _finite(self.hit_rate),
            "service_seconds": _finite(self.service_seconds),
            "baseline_seconds": _finite(self.baseline_seconds),
            "speedup": _finite(self.speedup),
            "throughput": _finite(self.throughput),
            "latency_p50": _finite(self.latency_p50),
            "latency_p99": _finite(self.latency_p99),
        }
        return {"counters": counters, "timings": timings, "labels": {}}


def replay(
    service: SolverService,
    trace: list[TraceRequest],
    *,
    flush_every: int = 8,
) -> list[SolveResponse]:
    """Feed ``trace`` through ``service``, flushing every ``flush_every``
    submits (and whenever backpressure rejects a submit)."""
    if flush_every < 1:
        raise ValueError("flush_every must be >= 1")
    responses: list[SolveResponse] = []
    for event in trace:
        if event.gap:
            service.tick(event.gap)
        try:
            service.submit(event.a, event.b, family=event.family)
        except QueueFullError:
            responses.extend(service.flush())
            service.submit(event.a, event.b, family=event.family)
        if service.pending >= flush_every:
            responses.extend(service.flush())
    responses.extend(service.flush())
    return responses


def cold_baseline_seconds(
    trace: list[TraceRequest], config: SolverConfig
) -> float:
    """Simulated seconds to serve ``trace`` with no analysis reuse:
    every request runs preprocessing + symbolic + levelization + numeric
    from scratch, sequentially on a single device."""
    gpu = GPU(spec=config.device, host=config.host, cost=config.cost_model)
    total = 0.0
    for event in trace:
        t0 = gpu.ledger.total_seconds
        an = analyze(event.a, config, gpu=gpu)
        res = an.refactorize(event.a)
        res.solve(event.b)
        gpu.launch_utility(res.L.nnz + res.U.nnz)
        total += gpu.ledger.total_seconds - t0
    return total


def run_load(
    trace: list[TraceRequest],
    serve_config: ServeConfig | None = None,
    *,
    flush_every: int = 8,
    baseline: bool = True,
) -> LoadReport:
    """Replay ``trace`` through a fresh service and build a report."""
    cfg = serve_config or ServeConfig()
    service = SolverService(cfg)
    responses = replay(service, trace, flush_every=flush_every)
    service.shutdown()
    snap = service.stats()
    counters = snap["counters"]
    # makespan across the device pool, not the sum: devices run in parallel
    service_seconds = max(
        (d["busy_until"] for d in snap["devices"]), default=0.0
    )
    lat = snap["histograms"].get(
        "ok_latency", {"p50": 0.0, "p99": 0.0}
    )
    base = (
        cold_baseline_seconds(trace, cfg.solver) if baseline
        else float("nan")
    )
    # request-level reuse: the share of requests whose pattern analysis
    # was resident at dispatch (the cache's own hit_rate counts one
    # lookup per *batch*, which understates reuse under heavy batching)
    hit_rate = (
        sum(r.cache_hit for r in responses) / len(responses)
        if responses else 0.0
    )
    return LoadReport(
        requests=len(trace),
        completed=counters.get("completed", 0),
        timeouts=counters.get("timeouts", 0),
        errors=counters.get("errors", 0),
        rejected=counters.get("rejected", 0),
        hit_rate=hit_rate,
        service_seconds=service_seconds,
        baseline_seconds=base,
        latency_p50=lat["p50"],
        latency_p99=lat["p99"],
        responses=responses,
        stats=snap,
    )
