"""Serve sweep: analysis reuse measured against cold solves.

The measurement harness behind ``repro serve-bench`` and the
``serve/replay`` perf scenario.  Not a paper figure: it measures the
serving subsystem built on top of the reproduction (:mod:`repro.serve`).
One repeated-pattern trace (the circuit-simulation traffic shape of §1)
is replayed through the solver service at three analysis-cache
capacities.  The headline numbers are the request-level cache hit rate
and the speedup of the serviced makespan over the cold-solve baseline
(full analyze + numeric per request); the zero-capacity row isolates
batching (no analysis reuse across batches).

The gates are the mode's acceptance bar, asserted by the CLI exit
status and the perf baseline.  Smoke mode (a tiny trace, invariants
only): no reuse without a cache, an ample-cache hit rate of at least
:data:`GATE_SMOKE_HIT_RATE`, and an ample-cache speedup above the
cacheless one.  Full mode: an ample-cache hit rate above
:data:`GATE_HIT_RATE`, a speedup of at least :data:`GATE_SPEEDUP`, a
tight budget that thrashes (no reuse at all), and reuse that shows up
in the p50 latency, not just the makespan.

The perf record is the ample-cache replay.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core import SolverConfig
from ..serve import LoadReport, ServeConfig, run_load, synthesize_trace
from ..serve.loadgen import cold_baseline_seconds
from .gates import Gate, GatedReport, Named

__all__ = [
    "GATE_SMOKE_HIT_RATE",
    "GATE_HIT_RATE",
    "GATE_SPEEDUP",
    "ServeSweepReport",
    "run_serve_sweep",
]

#: minimum ample-cache request-level hit rate in smoke mode (24
#: requests: the first 6-request flush is cold, so 18/24 reuse)
GATE_SMOKE_HIT_RATE = 0.7

#: the ample-cache hit rate must exceed this in full mode
GATE_HIT_RATE = 0.9

#: minimum ample-cache speedup over cold solves in full mode
GATE_SPEEDUP = 3.0

#: ``(patterns, requests, n)`` of the trace per mode
SMOKE_TRACE = (2, 24, 120)
FULL_TRACE = (3, 72, 200)

#: dispatch a batch every this many submits
FLUSH_EVERY = 6

#: ``(label, analysis-cache bytes)`` of the three replays, in the order
#: of the report's fields; at ~300 KB per analysis (n=200) the tight
#: budget holds one of the three full-mode patterns at a time, so
#: round-robin traffic evicts continuously
CAPACITIES = (
    ("no cache", 0),
    ("tight cache", 512 << 10),
    ("ample cache", 64 << 20),
)


@dataclass(frozen=True)
class ServeSweepReport(GatedReport):
    """One trace replayed at every capacity of :data:`CAPACITIES`
    (full-mode gates)."""

    patterns: int
    requests: int
    n: int
    no_cache: LoadReport
    tight: LoadReport
    ample: LoadReport

    title = (
        "serve-bench: {r.patterns} patterns x {r.requests} requests "
        "(n={r.n}), solver service vs cold solves (simulated s)"
    )
    columns = (
        ("config", "name"),
        ("hit rate", "point.hit_rate"),
        ("service s", "point.service_seconds"),
        ("cold s", "point.baseline_seconds"),
        ("speedup", "point.speedup"),
        ("p50 s", "point.latency_p50"),
        ("p99 s", "point.latency_p99"),
    )
    gates = (
        Gate(
            "ample_hit_rate_ok",
            lambda r: r.ample.hit_rate > GATE_HIT_RATE,
            f"ample-cache hit rate > {GATE_HIT_RATE}",
        ),
        Gate(
            "ample_speedup_ok",
            lambda r: r.ample.speedup >= GATE_SPEEDUP,
            f"ample-cache speedup >= {GATE_SPEEDUP}x vs cold solves",
        ),
        Gate(
            "tight_hit_rate_ok",
            lambda r: r.tight.hit_rate == 0.0,
            "tight-cache hit rate == 0 (a thrashing budget reuses nothing)",
        ),
        Gate(
            "latency_ok",
            lambda r: r.ample.latency_p50 < r.no_cache.latency_p50,
            "ample-cache p50 latency < no-cache p50 latency",
        ),
    )

    def table_rows(self) -> list[Named]:
        runs = (self.no_cache, self.tight, self.ample)
        return [
            Named(f"{label} ({cap / 2**20:g} MiB)", run)
            for (label, cap), run in zip(CAPACITIES, runs)
        ]

    def perf_record(self) -> dict:
        rec = self.ample.perf_record()
        return {**rec, "labels": {**rec["labels"], **self.gate_labels()}}


class ServeSmokeReport(ServeSweepReport):
    """The smoke-mode sweep: a tiny trace, invariants only."""

    gates = (
        Gate(
            "no_cache_hit_rate_ok",
            lambda r: r.no_cache.hit_rate == 0.0,
            "no-cache hit rate == 0",
        ),
        Gate(
            "ample_hit_rate_ok",
            lambda r: r.ample.hit_rate >= GATE_SMOKE_HIT_RATE,
            f"ample-cache hit rate >= {GATE_SMOKE_HIT_RATE}",
        ),
        Gate(
            "ample_speedup_ok",
            lambda r: r.ample.speedup > r.no_cache.speedup,
            "ample-cache speedup > no-cache speedup",
        ),
    )


def run_serve_sweep(*, smoke: bool = False, seed: int = 0) -> ServeSweepReport:
    """Replay the mode's trace at every declared cache capacity."""
    patterns, requests, n = SMOKE_TRACE if smoke else FULL_TRACE
    trace = synthesize_trace(
        num_patterns=patterns, num_requests=requests, n=n, seed=seed
    )
    # the cold-solve baseline depends only on the trace: price it once
    cold = cold_baseline_seconds(trace, SolverConfig())
    runs = [
        dataclasses.replace(
            run_load(
                trace,
                ServeConfig(cache_capacity_bytes=cap),
                flush_every=FLUSH_EVERY,
                baseline=False,
            ),
            baseline_seconds=cold,
        )
        for _, cap in CAPACITIES
    ]
    report = ServeSmokeReport if smoke else ServeSweepReport
    return report(patterns, requests, n, *runs)
