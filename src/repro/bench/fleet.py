"""Fleet scaling sweep: node counts over a zipf-skewed trace.

The measurement harness behind ``repro fleet-bench`` and the
``fleet/serve`` perf scenario.  Not a paper figure: it measures the
cluster tier built on top of the serving subsystem (:mod:`repro.fleet`).
The same zipf-popularity trace is replayed through fleets of
:data:`NODE_COUNTS` solver nodes, plus one deliberately overloaded
point that must degrade gracefully (typed sheds, no exceptions escaping
the replay).  Per point it reports throughput, makespan, tail latency,
per-node balance and the tier split (L1/L2/cold); the gates read the
largest fleet's makespan speedup over one node and the bitwise
results-identical flag: every admitted ``ok`` response must match a
plain single-:class:`~repro.serve.SolverService` replay of the
identical trace exactly — node count, routing, the L2 tier and shedding
may only move *time*, never numerics.

A named extra point, the perf record, replays a shorter trace over
:data:`TIGHT_NODES` nodes whose L1 budget is held just above one
analysis (~190 KB at n=120; budget :data:`TIGHT_L1_BYTES`), so nodes
owning several patterns lean on the shared L2.

The gates, asserted by the CLI exit status and the perf baseline:
every sweep point bitwise-identical; throughput growing from the
smallest to the largest fleet, with a makespan speedup above
:data:`GATE_SPEEDUP`; no sheds at either end of the sweep; a warm rate
above :data:`GATE_WARM_RATE` on the largest fleet (zipf repeats stay
warm); and an overload point that sheds, accounts for every request
and keeps its admitted responses bitwise-identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..fleet import FleetConfig, FleetReport, run_fleet_load
from ..serve import ServeConfig, synthesize_trace
from ..serve.loadgen import TraceRequest
from .gates import (
    Gate,
    GatedReport,
    Named,
    ok_solutions,
    service_reference,
    solution_mismatches,
)

__all__ = [
    "GATE_SPEEDUP",
    "GATE_WARM_RATE",
    "FleetPoint",
    "FleetBenchReport",
    "run_fleet_bench",
]

#: the largest fleet's makespan speedup over one node must exceed this
GATE_SPEEDUP = 1.5

#: the largest fleet's warm rate must exceed this
GATE_WARM_RATE = 0.8

#: ``(patterns, requests, n)`` of the sweep trace per mode
SMOKE_TRACE = (6, 96, 120)
FULL_TRACE = (8, 192, 160)

NODE_COUNTS = (1, 2, 4, 8)
ZIPF_S = 1.1

#: dispatch the fleet every this many submits
FLUSH_EVERY = 6

#: the overload point: per-node admission queues an order of magnitude
#: tighter than its flush interval, on the largest fleet
OVERLOAD_PENDING = 3
OVERLOAD_FLUSH_EVERY = 32

#: ``(patterns, requests, n)`` of the tight-L1 point's trace per mode
SMOKE_TIGHT_TRACE = (6, 48, 120)
FULL_TIGHT_TRACE = (8, 144, 160)
TIGHT_NODES = 4
TIGHT_L1_BYTES = 256 << 10


@dataclass(frozen=True)
class FleetPoint:
    """One fleet replay of the sweep trace."""

    report: FleetReport
    #: admitted ``ok`` responses bitwise-equal to the single-service run
    identical: bool


def _top(r: FleetBenchReport) -> FleetReport:
    return r.points[-1].report


def _one(r: FleetBenchReport) -> FleetReport:
    return r.points[0].report


def _over(r: FleetBenchReport) -> FleetReport:
    return r.overload.report


@dataclass(frozen=True)
class FleetBenchReport(GatedReport):
    """The node sweep, the overload point and the tight-L1 point."""

    trace: tuple[int, int, int]
    points: tuple[FleetPoint, ...]
    overload: FleetPoint
    tight_trace: tuple[int, int, int]
    tight: FleetReport

    title = (
        f"fleet sweep, zipf s={ZIPF_S} (patterns, requests, n): "
        f"{{r.trace}}, tight L1 ({TIGHT_L1_BYTES >> 10} KiB): "
        "{r.tight_trace} (simulated s)"
    )
    columns = (
        ("point", "name"),
        ("nodes", "point.num_nodes"),
        ("done", "point.completed"),
        ("shed", "point.shed"),
        ("l1", "point.served_l1"),
        ("l2", "point.served_l2"),
        ("cold", "point.served_cold"),
        ("warm", "point.warm_rate"),
        ("l2 hit", "point.l2_hit_rate"),
        ("balance", "point.balance"),
        ("makespan s", "point.makespan_seconds"),
        ("req/s", "point.throughput"),
        ("p99 s", "point.latency_p99"),
    )
    gates = (
        Gate(
            "identical_ok",
            lambda r: all(p.identical for p in r.points),
            "identical: every sweep point bitwise-equal to one service",
            lambda r: f"{sum(p.identical for p in r.points)}/{len(r.points)}",
        ),
        Gate(
            "throughput_ok",
            lambda r: _top(r).throughput > _one(r).throughput,
            "throughput grows from the smallest to the largest fleet",
        ),
        Gate(
            "speedup_ok",
            lambda r: r.speedup(r.points[-1]) > GATE_SPEEDUP,
            f"largest fleet's makespan speedup > {GATE_SPEEDUP}x",
            lambda r: f"{r.speedup(r.points[-1]):.2f}x",
        ),
        Gate(
            "no_shed_ok",
            lambda r: _one(r).shed == 0 and _top(r).shed == 0,
            "no sheds on the smallest or the largest fleet",
        ),
        Gate(
            "warm_rate_ok",
            lambda r: _top(r).warm_rate > GATE_WARM_RATE,
            f"largest fleet's warm rate > {GATE_WARM_RATE}",
        ),
        Gate(
            "overload_shed_ok",
            lambda r: _over(r).shed > 0,
            "overload point sheds (typed, not errors)",
        ),
        Gate(
            "overload_accounted_ok",
            lambda r: _over(r).completed + _over(r).shed == _over(r).requests,
            "overload point: completed + shed == requests",
        ),
        Gate(
            "overload_identical_ok",
            lambda r: r.overload.identical,
            "overload point's admitted responses bitwise-equal",
        ),
    )

    def speedup(self, point: FleetPoint) -> float:
        """The 1-node makespan over ``point``'s makespan."""
        span = point.report.makespan_seconds
        return _one(self).makespan_seconds / span if span > 0 else 0.0

    def table_rows(self) -> list[Named]:
        return [
            *(Named("sweep", p.report) for p in self.points),
            Named("overload", self.overload.report),
            Named("tight L1", self.tight),
        ]

    def perf_record(self) -> dict:
        rec = self.tight.perf_record()
        return {**rec, "labels": {**rec["labels"], **self.gate_labels()}}


def _trace(shape: tuple[int, int, int], seed: int) -> list[TraceRequest]:
    patterns, requests, n = shape
    return synthesize_trace(
        num_patterns=patterns,
        num_requests=requests,
        n=n,
        seed=seed,
        popularity="zipf",
        zipf_s=ZIPF_S,
    )


def _point(
    report: FleetReport, reference: dict[int, np.ndarray]
) -> FleetPoint:
    checked, mismatches = solution_mismatches(
        ok_solutions(report.responses, key="index"), reference
    )
    return FleetPoint(report, checked > 0 and mismatches == 0)


def run_fleet_bench(*, smoke: bool = False, seed: int = 0) -> FleetBenchReport:
    """Run the node sweep, the overload point and the tight-L1 point.

    The trace is zipf-skewed (a few hot patterns dominate), which is
    exactly the traffic consistent-hash routing is built for: every
    pattern has one home node, so adding nodes spreads *distinct*
    patterns without ever splitting a hot pattern's warm cache.
    """
    shape = SMOKE_TRACE if smoke else FULL_TRACE
    trace = _trace(shape, seed)
    base = FleetConfig(num_nodes=1)
    reference = service_reference(trace, base.serve, FLUSH_EVERY)

    points = tuple(
        _point(
            run_fleet_load(
                trace,
                dataclasses.replace(base, num_nodes=count),
                flush_every=FLUSH_EVERY,
            ),
            reference,
        )
        for count in NODE_COUNTS
    )
    overload = run_fleet_load(
        trace,
        dataclasses.replace(
            base,
            num_nodes=max(NODE_COUNTS),
            max_pending_per_node=OVERLOAD_PENDING,
        ),
        flush_every=OVERLOAD_FLUSH_EVERY,
    )
    tight_shape = SMOKE_TIGHT_TRACE if smoke else FULL_TIGHT_TRACE
    tight = run_fleet_load(
        _trace(tight_shape, seed),
        FleetConfig(
            num_nodes=TIGHT_NODES,
            serve=ServeConfig(cache_capacity_bytes=TIGHT_L1_BYTES),
        ),
        flush_every=FLUSH_EVERY,
    )
    return FleetBenchReport(
        trace=shape,
        points=points,
        overload=_point(overload, reference),
        tight_trace=tight_shape,
        tight=tight,
    )
