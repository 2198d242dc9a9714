"""Fleet scaling benchmark: node-count sweep over a zipf-skewed trace.

Not a paper figure — this measures the cluster tier built on top of the
serving subsystem (:mod:`repro.fleet`): the same zipf-popularity trace
replayed through fleets of 1/2/4/8 solver nodes, plus one deliberately
overloaded point that must degrade gracefully (typed sheds, no
exceptions escaping the replay).  Per sweep point it reports aggregate
warm-pattern throughput, the speedup of the fleet makespan over the
single-node point, per-node balance, tier split (L1/L2/cold), and the
bitwise results-identical flag: every admitted ``ok`` response must
match a plain single-:class:`~repro.serve.SolverService` replay of the
identical trace exactly — node count, routing, the L2 tier and
shedding may only move *time*, never numerics.

``repro fleet-bench`` prints the table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..fleet import FleetConfig, FleetReport, run_fleet_load
from ..serve import synthesize_trace
from .gates import ok_solutions, service_reference, solution_mismatches

__all__ = [
    "FleetScalingPoint",
    "FleetBenchReport",
    "run_fleet_bench",
]


@dataclass(frozen=True)
class FleetScalingPoint:
    """One node-count configuration of the sweep."""

    num_nodes: int
    requests: int
    completed: int
    shed: int
    served_l1: int
    served_l2: int
    served_cold: int
    warm_rate: float
    balance: float
    makespan_seconds: float
    throughput: float
    #: fleet makespan of the 1-node point over this point's makespan
    speedup: float
    #: admitted ``ok`` responses bitwise-equal to the single-service run
    results_identical: bool
    overloaded: bool = False


@dataclass(frozen=True)
class FleetBenchReport:
    """The full node sweep (plus the overload point) on one trace."""

    num_patterns: int
    num_requests: int
    n: int
    zipf_s: float
    points: tuple[FleetScalingPoint, ...]

    def point_at(self, num_nodes: int) -> FleetScalingPoint:
        for pt in self.points:
            if pt.num_nodes == num_nodes and not pt.overloaded:
                return pt
        raise KeyError(f"no sweep point for {num_nodes} nodes")

    @property
    def overload_point(self) -> FleetScalingPoint | None:
        for pt in self.points:
            if pt.overloaded:
                return pt
        return None

    @property
    def all_identical(self) -> bool:
        return all(pt.results_identical for pt in self.points)

    def format(self) -> str:
        lines = [
            f"fleet scaling sweep: {self.num_patterns} patterns x "
            f"{self.num_requests} requests (n={self.n}, "
            f"zipf s={self.zipf_s})",
            f"{'nodes':>5s} {'done':>5s} {'shed':>5s} "
            f"{'l1/l2/cold':>12s} {'warm':>5s} {'bal':>5s} "
            f"{'makespan ms':>11s} {'req/s':>8s} {'speedup':>7s} "
            f"{'identical':>9s}",
        ]
        for pt in self.points:
            tier = f"{pt.served_l1}/{pt.served_l2}/{pt.served_cold}"
            tag = "*" if pt.overloaded else " "
            lines.append(
                f"{pt.num_nodes:>4d}{tag} {pt.completed:>5d} "
                f"{pt.shed:>5d} {tier:>12s} {pt.warm_rate:>5.2f} "
                f"{pt.balance:>5.2f} "
                f"{pt.makespan_seconds * 1e3:>11.3f} "
                f"{pt.throughput:>8.0f} {pt.speedup:>6.2f}x "
                f"{'yes' if pt.results_identical else 'NO':>9s}"
            )
        if self.overload_point is not None:
            lines.append(
                "* deliberately overloaded point "
                "(tight admission queues; sheds are typed, not errors)"
            )
        return "\n".join(lines)


def _point(
    report: FleetReport,
    reference: dict[int, np.ndarray],
    base_makespan: float | None,
    *,
    overloaded: bool = False,
) -> FleetScalingPoint:
    base = base_makespan or report.makespan_seconds
    # every admitted ``ok`` response matches the single-service solution
    # for the same trace index bitwise
    checked, mismatches = solution_mismatches(
        ok_solutions(report.responses, key="index"), reference
    )
    return FleetScalingPoint(
        num_nodes=report.num_nodes,
        requests=report.requests,
        completed=report.completed,
        shed=report.shed,
        served_l1=report.served_l1,
        served_l2=report.served_l2,
        served_cold=report.served_cold,
        warm_rate=float(report.warm_rate),
        balance=float(report.balance),
        makespan_seconds=float(report.makespan_seconds),
        throughput=float(report.throughput),
        speedup=float(
            base / report.makespan_seconds
            if report.makespan_seconds > 0 else 0.0
        ),
        results_identical=checked > 0 and mismatches == 0,
        overloaded=overloaded,
    )


def run_fleet_bench(
    *,
    num_patterns: int = 6,
    num_requests: int = 96,
    n: int = 120,
    node_counts: tuple[int, ...] = (1, 2, 4, 8),
    zipf_s: float = 1.1,
    seed: int = 0,
    flush_every: int = 6,
    smoke: bool = True,
) -> FleetBenchReport:
    """Run the node sweep plus the overload point and return the report.

    The trace is zipf-skewed (a few hot patterns dominate), which is
    exactly the traffic consistent-hash routing is built for: every
    pattern has one home node, so adding nodes spreads *distinct*
    patterns without ever splitting a hot pattern's warm cache.  The
    overload point reruns the largest node count with admission queues
    an order of magnitude tighter than the flush interval, forcing
    typed sheds while every admitted response stays bitwise-correct.
    """
    if not smoke:
        num_patterns, num_requests, n = 8, 192, 160
    trace = synthesize_trace(
        num_patterns=num_patterns,
        num_requests=num_requests,
        n=n,
        seed=seed,
        popularity="zipf",
        zipf_s=zipf_s,
    )
    base_cfg = FleetConfig(num_nodes=1)
    reference = service_reference(trace, base_cfg.serve, flush_every)

    points: list[FleetScalingPoint] = []
    base_makespan: float | None = None
    for count in node_counts:
        report = run_fleet_load(
            trace,
            dataclasses.replace(base_cfg, num_nodes=int(count)),
            flush_every=flush_every,
        )
        if base_makespan is None:
            base_makespan = report.makespan_seconds
        points.append(_point(report, reference, base_makespan))

    # overload point: tight per-node admission queues against a long
    # flush interval -> typed sheds, graceful degradation
    overload_cfg = dataclasses.replace(
        base_cfg,
        num_nodes=int(max(node_counts)),
        max_pending_per_node=3,
    )
    overload = run_fleet_load(trace, overload_cfg, flush_every=4 * 8)
    points.append(
        _point(overload, reference, base_makespan, overloaded=True)
    )
    return FleetBenchReport(
        num_patterns=num_patterns,
        num_requests=num_requests,
        n=n,
        zipf_s=zipf_s,
        points=tuple(points),
    )
