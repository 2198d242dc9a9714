"""Drift bench: amortized analysis cost under incremental re-analysis.

The measurement harness behind ``repro drift-bench`` and the
``serve/drift`` perf scenario.  It replays one seeded drifting-pattern
trace (:func:`~repro.serve.loadgen.synthesize_drift_trace` — families of
slowly-evolving FEM structures, values re-stamped every request,
band-local pattern drift every few visits) through two services that
differ in exactly one knob:

* **on** — the default ``ServeConfig(incremental=True)``: every
  family-hinted miss probes the cache's family index and splices the
  donor's delta (``analysis_delta`` charge) instead of analyzing cold;
* **off** — ``ServeConfig(incremental=False)``: every miss pays the
  full cold ``analyze()`` (``analysis`` charge).

Three gates, asserted by the CLI exit status and the perf baseline:

* **amortized** — total simulated analysis charge *off* over *on*
  (cold ``analysis`` vs ``analysis + analysis_delta``) is at least
  :data:`GATE_AMORTIZED_RATIO`;
* **hit rate** — every post-base miss splices (incremental hits cover
  at least :data:`GATE_HIT_RATE` of the eligible misses);
* **bitwise** — each of the on-replay's solution vectors is
  bitwise-identical to the off-replay's (splicing moves *time*, never
  numerics).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..serve.loadgen import (
    TraceRequest,
    run_load,
    synthesize_drift_trace,
)
from ..serve.service import ServeConfig
from .gates import Gate, GatedReport, ok_solutions, solution_mismatches

__all__ = [
    "GATE_AMORTIZED_RATIO",
    "GATE_HIT_RATE",
    "DriftReport",
    "run_drift_bench",
]

#: minimum off/on amortized simulated analysis-cost ratio
GATE_AMORTIZED_RATIO = 3.0

#: minimum share of eligible misses (misses beyond the per-family cold
#: bases) served by a delta splice
GATE_HIT_RATE = 0.9


@dataclass
class DriftReport(GatedReport):
    """Outcome of one on/off drift replay pair (simulated seconds); its
    perf record is every field and the three derived properties."""

    requests: int
    completed: int
    num_families: int
    incremental_hits: int
    incremental_fallbacks: int
    cache_hits: int
    cache_misses: int
    #: simulated cold-analysis charge with splicing disabled
    analyze_seconds_off: float
    #: simulated ``analysis + analysis_delta`` charge with splicing on
    analyze_seconds_on: float
    bitwise_checked: int
    bitwise_mismatches: int

    title = (
        "drift bench: drifting-pattern replay with incremental "
        "re-analysis on vs off (simulated s)"
    )
    columns = (
        ("requests", "requests"),
        ("completed", "completed"),
        ("families", "num_families"),
        ("exact hits", "cache_hits"),
        ("misses", "cache_misses"),
        ("spliced", "incremental_hits"),
        ("fallbacks", "incremental_fallbacks"),
        ("eligible", "eligible_misses"),
        ("cold analysis s", "analyze_seconds_off"),
        ("incremental analysis s", "analyze_seconds_on"),
    )
    gates = (
        Gate(
            "amortized_ok",
            lambda r: r.amortized_ratio >= GATE_AMORTIZED_RATIO,
            "amortized: cold over incremental analysis charge >= "
            f"{GATE_AMORTIZED_RATIO}x",
            lambda r: f"{r.amortized_ratio:.2f}x",
        ),
        Gate(
            "hit_rate_ok",
            lambda r: r.incremental_hit_rate >= GATE_HIT_RATE,
            f"hit rate: spliced share of eligible misses >= {GATE_HIT_RATE}",
            lambda r: f"{r.incremental_hit_rate:.3f}",
        ),
        Gate(
            "bitwise_ok",
            lambda r: r.bitwise_checked > 0 and r.bitwise_mismatches == 0,
            "bitwise: every spliced solution equal to the cold one",
            lambda r: f"{r.bitwise_mismatches} of {r.bitwise_checked} differ",
        ),
    )
    recorded = ("eligible_misses", "amortized_ratio", "incremental_hit_rate")

    # -- derived ---------------------------------------------------------
    @property
    def amortized_ratio(self) -> float:
        """Cold analysis charge over the incremental run's total
        analysis charge (higher = better; 0.0 for empty replays)."""
        if self.analyze_seconds_on <= 0 or self.analyze_seconds_off <= 0:
            return 0.0
        return self.analyze_seconds_off / self.analyze_seconds_on

    @property
    def eligible_misses(self) -> int:
        """Misses that *could* have spliced: every miss after each
        family's first (the bases are unavoidably cold)."""
        return max(0, self.cache_misses - self.num_families)

    @property
    def incremental_hit_rate(self) -> float:
        if not self.eligible_misses:
            return 0.0
        return self.incremental_hits / self.eligible_misses


def _drift_trace(*, smoke: bool, seed: int) -> list[TraceRequest]:
    n, requests = (400, 48) if smoke else (800, 72)
    return synthesize_drift_trace(
        num_families=2,
        num_requests=requests,
        n=n,
        nnz_per_row=7.0,
        seed=seed,
        drift_every=4,
        drift_add=3,
        drift_bandwidth=8,
        matrix_class="fem",
    )


def run_drift_bench(*, smoke: bool = False, seed: int = 0) -> DriftReport:
    """Replay the drift trace with splicing on vs off and compare.

    Both replays consume the *identical* trace object (same patterns,
    values and right-hand sides), so the only degree of freedom is
    ``ServeConfig.incremental`` — the measured ratio is pure analysis-path
    savings, and the bitwise comparison is exact.
    """
    trace = _drift_trace(smoke=smoke, seed=seed)
    on = run_load(trace, ServeConfig(), baseline=False)
    off = run_load(trace, ServeConfig(incremental=False), baseline=False)

    checked, mismatches = solution_mismatches(
        ok_solutions(on.responses), ok_solutions(off.responses)
    )

    counters = on.stats.get("counters", {})
    phases_on = on.stats.get("phase_seconds", {})
    phases_off = off.stats.get("phase_seconds", {})
    return DriftReport(
        requests=len(trace),
        completed=on.completed,
        num_families=2,
        incremental_hits=int(counters.get("incremental_hits", 0)),
        incremental_fallbacks=int(counters.get("incremental_fallbacks", 0)),
        cache_hits=int(counters.get("cache_hits", 0)),
        cache_misses=int(counters.get("cache_misses", 0)),
        analyze_seconds_off=float(phases_off.get("analysis", 0.0)),
        analyze_seconds_on=float(phases_on.get("analysis", 0.0))
        + float(phases_on.get("analysis_delta", 0.0)),
        bitwise_checked=checked,
        bitwise_mismatches=mismatches,
    )
