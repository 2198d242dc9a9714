"""Fleet trace replay + the :class:`FleetReport` rollup.

Mirrors :mod:`repro.serve.loadgen` one tier up: feed a (possibly
zipf-skewed, diurnal) :func:`~repro.serve.loadgen.synthesize_trace`
stream through a :class:`~repro.fleet.Fleet`, absorb typed
:class:`~repro.fleet.ShedError` rejections (graceful degradation — no
exception escapes the replay), and roll everything up into per-node
balance, tier hit rates, shed rate and exact p50/p99 latency
histograms.  ``repro fleet-bench`` and the ``fleet/serve`` perf
scenario are both thin wrappers over :func:`run_fleet_load`.

Churn-annotated replays (``docs/churn.md``): pass a
:class:`~repro.fleet.churn.ChurnPlan` and :func:`replay_fleet` applies
each membership event the moment the trace's arrival clock (cumulative
gaps) passes its ``t`` — joins, graceful drains and crashes interleave
deterministically with submissions.  :func:`synthesize_churn_trace`
builds the (trace, plan) pair from fractional positions in one seeded
call, byte-identical across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..serve.loadgen import TraceRequest, synthesize_trace
from ..serve.metrics import Histogram
from .admission import ShedError
from .churn import ChurnEvent, ChurnPlan
from .fleet import Fleet, FleetConfig, FleetResponse

__all__ = [
    "FleetReport",
    "replay_fleet",
    "run_fleet_load",
    "churn_plan_for_trace",
    "synthesize_churn_trace",
]


def replay_fleet(
    fleet: Fleet,
    trace: list[TraceRequest],
    *,
    flush_every: int = 8,
    churn: ChurnPlan | None = None,
) -> list[FleetResponse]:
    """Feed ``trace`` through ``fleet``; sheds are absorbed (they are
    already recorded as ``shed`` responses) and never re-raised.

    With a ``churn`` plan, each membership event fires as soon as the
    arrival clock reaches its ``t`` — before the next submission — and
    its :class:`~repro.fleet.churn.ChurnRecord` (in
    ``fleet.churn_log``) is stamped with the trace position.  Crash
    sheds are absorbed exactly like admission sheds: the ``lost``
    responses are already recorded.
    """
    if flush_every < 1:
        raise ValueError("flush_every must be >= 1")
    events = list(churn.events) if churn is not None else []
    cursor = 0
    arrival = 0.0
    for index, event in enumerate(trace):
        if event.gap:
            fleet.tick(event.gap)
            arrival += float(event.gap)
        while cursor < len(events) and events[cursor].t <= arrival:
            record = fleet.apply_churn(events[cursor])
            record.applied_at_index = index
            cursor += 1
        try:
            fleet.submit(event.a, event.b, family=event.family)
        except ShedError:
            continue  # recorded by the fleet; keep replaying
        if fleet.pending >= flush_every:
            fleet.flush()
    fleet.flush()
    # events scripted past the end of the trace still fire, in order
    while cursor < len(events):
        record = fleet.apply_churn(events[cursor])
        record.applied_at_index = len(trace)
        cursor += 1
    return fleet.responses()


def churn_plan_for_trace(
    trace: list[TraceRequest],
    specs: Iterable[Sequence],
) -> ChurnPlan:
    """Pin churn events to fractional positions of a trace's arrival
    window.

    ``specs`` entries are ``(action, node_id, at_fraction)`` or
    ``(action, node_id, at_fraction, graceful)``; ``at_fraction`` in
    ``[0, 1]`` scales against the trace's total arrival time (sum of
    gaps), so the same spec tuple lands at the same relative point of
    any synthesized trace.  Purely arithmetic — byte-identical for a
    byte-identical trace.
    """
    window = sum(float(ev.gap) for ev in trace)
    events = []
    for spec in specs:
        action, node_id, frac = spec[0], spec[1], float(spec[2])
        graceful = bool(spec[3]) if len(spec) > 3 else True
        if not (0.0 <= frac <= 1.0):
            raise ValueError(f"at_fraction must be in [0, 1], got {frac}")
        events.append(
            ChurnEvent(
                t=frac * window, action=str(action),
                node_id=int(node_id), graceful=graceful,
            )
        )
    return ChurnPlan.ordered(events)


def synthesize_churn_trace(
    *,
    churn: Iterable[Sequence],
    num_patterns: int = 4,
    num_requests: int = 64,
    n: int = 96,
    seed: int = 0,
    arrival_gap: float = 2e-4,
    **trace_kw,
) -> tuple[list[TraceRequest], ChurnPlan]:
    """One-call churn-annotated workload: a seeded trace plus the plan
    pinned to it.

    The trace path is exactly :func:`~repro.serve.loadgen.
    synthesize_trace` (the uniform no-churn path is untouched — a
    regression test locks its bytes); the plan is derived from the
    trace's own arrival window, so the pair replays byte-identically
    for a fixed (seed, churn) input.
    """
    if arrival_gap <= 0:
        raise ValueError(
            "churn-annotated traces need arrival_gap > 0 — the plan "
            "fires on the arrival clock"
        )
    trace = synthesize_trace(
        num_patterns=num_patterns, num_requests=num_requests, n=n,
        seed=seed, arrival_gap=arrival_gap, **trace_kw,
    )
    return trace, churn_plan_for_trace(trace, churn)


@dataclass
class FleetReport:
    """Outcome of one fleet replay (all times are simulated seconds)."""

    num_nodes: int
    requests: int
    admitted: int
    completed: int
    shed: int
    errors: int
    timeouts: int
    rerouted: int
    served_l1: int
    served_l2: int
    served_cold: int
    l2_hits: int
    l2_misses: int
    makespan_seconds: float
    latency_p50: float
    latency_p99: float
    #: delta-spliced from a donor already in the node's L1
    served_delta: int = 0
    #: delta-spliced from a donor staged over the node's L2 link
    served_l2_delta: int = 0
    #: admitted requests in flight on a crashed node (churn replays)
    lost: int = 0
    #: admitted requests per node id (live or since-departed)
    per_node: dict[int, int] = field(default_factory=dict)
    responses: list[FleetResponse] = field(
        repr=False, default_factory=list
    )
    #: applied membership events, in order (churn replays)
    churn_records: list = field(repr=False, default_factory=list)
    #: full :meth:`Fleet.stats` snapshot at shutdown
    stats: dict = field(repr=False, default_factory=dict)

    # -- derived ---------------------------------------------------------
    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def l1_hit_rate(self) -> float:
        """Share of admitted requests served from their node's L1."""
        return self.served_l1 / self.admitted if self.admitted else 0.0

    @property
    def l2_hit_rate(self) -> float:
        """L2 store hit rate over its lookups (L1 misses)."""
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0

    @property
    def warm_rate(self) -> float:
        """Share of admitted requests that avoided a *full* cold
        analysis (delta splices count as warm: they paid only the
        structural delta)."""
        if not self.admitted:
            return 0.0
        warm = (
            self.served_l1 + self.served_l2
            + self.served_delta + self.served_l2_delta
        )
        return warm / self.admitted

    @property
    def throughput(self) -> float:
        """Completed requests per simulated second (0 for an empty or
        zero-duration replay)."""
        if self.makespan_seconds <= 0 or not self.completed:
            return 0.0
        return self.completed / self.makespan_seconds

    @property
    def balance(self) -> float:
        """Max-over-mean admitted requests per node (1.0 = perfectly
        even; grows with routing skew)."""
        loaded = list(self.per_node.values())
        if not loaded or not self.admitted:
            return 1.0
        mean = sum(loaded) / len(loaded)
        return max(loaded) / mean if mean else 1.0

    # -- export ----------------------------------------------------------
    def perf_record(self) -> dict:
        """Exact counters + banded timings for the perf-snapshot suite
        (shape of every other ``perf_record`` hook)."""
        counters = {
            "num_nodes": int(self.num_nodes),
            "requests": int(self.requests),
            "admitted": int(self.admitted),
            "completed": int(self.completed),
            "shed": int(self.shed),
            "lost": int(self.lost),
            "errors": int(self.errors),
            "timeouts": int(self.timeouts),
            "rerouted": int(self.rerouted),
            "served_l1": int(self.served_l1),
            "served_l2": int(self.served_l2),
            "served_cold": int(self.served_cold),
            "served_delta": int(self.served_delta),
            "served_l2_delta": int(self.served_l2_delta),
            "l2_hits": int(self.l2_hits),
            "l2_misses": int(self.l2_misses),
            "churn_events": len(self.churn_records),
        }
        timings = {
            "makespan_seconds": float(self.makespan_seconds),
            "throughput": float(self.throughput),
            "latency_p50": float(self.latency_p50),
            "latency_p99": float(self.latency_p99),
            "l1_hit_rate": float(self.l1_hit_rate),
            "l2_hit_rate": float(self.l2_hit_rate),
            "warm_rate": float(self.warm_rate),
            "shed_rate": float(self.shed_rate),
            "balance": float(self.balance),
        }
        labels: dict[str, str] = {}
        admission = self.stats.get("admission", {})
        breakers = admission.get("breakers", {})
        trips = 0
        last_transition = 0.0
        for node_id in sorted(breakers):
            snap = breakers[node_id]
            labels[f"breaker_node{node_id}"] = str(snap["state"])
            trips += int(snap["trips"])
            last_transition = max(
                last_transition, float(snap["last_transition_s"])
            )
        retired = admission.get("retired", {})
        for node_id in sorted(retired):
            snap = retired[node_id]["breaker"]
            labels[f"breaker_node{node_id}"] = "retired"
            trips += int(snap["trips"])
            last_transition = max(
                last_transition, float(snap["last_transition_s"])
            )
        counters["breaker_trips"] = trips
        counters["nodes_retired"] = len(retired)
        timings["breaker_last_transition_s"] = last_transition
        return {"counters": counters, "timings": timings, "labels": labels}


def run_fleet_load(
    trace: list[TraceRequest],
    config: FleetConfig | None = None,
    *,
    flush_every: int = 8,
    node_overrides: dict | None = None,
    churn: ChurnPlan | None = None,
) -> FleetReport:
    """Replay ``trace`` through a fresh fleet and build a report."""
    cfg = config or FleetConfig()
    fleet = Fleet(cfg, node_overrides=node_overrides)
    responses = replay_fleet(
        fleet, trace, flush_every=flush_every, churn=churn
    )
    stats = fleet.stats()
    churn_records = list(fleet.churn_log)
    fleet.shutdown()

    latency = Histogram()
    served = {"l1": 0, "l2": 0, "cold": 0, "delta": 0, "l2-delta": 0}
    shed = lost = errors = timeouts = completed = rerouted = 0
    per_node: dict[int, int] = {i: 0 for i in range(cfg.num_nodes)}
    for r in responses:
        if r.shed:
            shed += 1
            continue
        per_node[r.node_id] = per_node.get(r.node_id, 0) + 1
        if r.rerouted:
            rerouted += 1
        if r.lost:
            lost += 1
            continue
        if r.served in served:
            served[r.served] += 1
        if r.status == "ok":
            completed += 1
            latency.record(r.latency)
        elif r.status == "timeout":
            timeouts += 1
        else:
            errors += 1
    l2_stats = stats["l2"]
    return FleetReport(
        num_nodes=int(stats["num_nodes"]),
        requests=len(responses),
        admitted=len(responses) - shed,
        completed=completed,
        shed=shed,
        lost=lost,
        errors=errors,
        timeouts=timeouts,
        rerouted=rerouted,
        served_l1=served["l1"],
        served_l2=served["l2"],
        served_cold=served["cold"],
        served_delta=served["delta"],
        served_l2_delta=served["l2-delta"],
        l2_hits=int(l2_stats["hits"]),
        l2_misses=int(l2_stats["misses"]),
        makespan_seconds=float(stats["makespan_seconds"]),
        latency_p50=latency.p50,
        latency_p99=latency.p99,
        per_node=per_node,
        responses=responses,
        churn_records=churn_records,
        stats=stats,
    )
