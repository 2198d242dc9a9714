"""Churn drill: scripted join → graceful leave → crash, mid-replay.

The robustness twin of the fleet scaling sweep (:mod:`repro.bench.fleet`)
— instead of sweeping node counts, it replays one registry-workload
trace (Table 2 structures, restamped values) through a 4-node fleet
whose topology churns *while the trace is in flight*:

1. a fifth node **joins** ~30% into the arrival window and pre-warms
   its L1 from the shared L2 for the arcs it now owns;
2. a node **gracefully leaves** ~55% in — its inflight work drains to
   completion and its hot arcs are published to the L2 first;
3. the *joiner* **crashes** ~84% in — its inflight work is shed as
   typed ``lost`` responses, its in-flight publishes roll back, and
   its freshly warmed L1 is gone; survivors re-inherit the arcs via
   the ring's ``preference()`` walk and the L2.

Four gates, all asserted by ``repro churn-drill`` (exit status) and the
``fleet/churn`` perf scenario:

* **remap** — each event's measured remap fraction over the fixed probe
  population is within the ring-theoretical bound (1/N) + 5 points;
* **bitwise** — every non-shed, non-lost response is bitwise-identical
  to a single-:class:`~repro.serve.SolverService` replay of the trace;
* **recovery** — the post-churn p99 latency is within 1.5x of the
  warm pre-churn steady state inside the drill window;
* **determinism** — the whole drill (responses, churn records, exact
  percentiles) is byte-identical across reruns.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..fleet import ChurnRecord, FleetConfig, FleetReport
from ..fleet.loadgen import churn_plan_for_trace, run_fleet_load
from ..serve import restamp
from ..serve.loadgen import TraceRequest
from ..serve.metrics import Histogram
from ..workloads.registry import TABLE2
from .gates import (
    Gate,
    GatedReport,
    ok_solutions,
    service_reference,
    solution_mismatches,
)

__all__ = ["ChurnDrillReport", "run_churn_drill"]

#: the scripted sequence the acceptance criteria name: join a fifth
#: node, gracefully drain node 1, then crash the joiner — fractions of
#: the trace's arrival window
CHURN_SCRIPT = (
    ("join", 4, 0.30),
    ("leave", 1, 0.55),
    ("leave", 4, 0.835, False),
)

#: p99-recovery gate: post-churn tail within this factor of pre-churn
RECOVERY_FACTOR = 1.5


def _registry_trace(
    *,
    abbrs: tuple[str, ...],
    stamps: int,
    n: int,
    seed: int,
    arrival_gap: float,
) -> list[TraceRequest]:
    """Interleaved Table 2 patterns with fresh value stamps and a
    non-zero arrival gap (the churn plan fires on the arrival clock)."""
    rng = np.random.default_rng(seed)
    specs = [s for s in TABLE2 if s.abbr in abbrs]
    if len(specs) != len(abbrs):
        missing = set(abbrs) - {s.abbr for s in specs}
        raise ValueError(f"unknown registry abbrs: {sorted(missing)}")
    patterns = [dataclasses.replace(s, n_scaled=n).generate() for s in specs]
    trace = []
    for stamp in range(stamps):
        for pid, base in enumerate(patterns):
            a = restamp(base, seed=seed + 31 * stamp + 7 * pid)
            b = rng.normal(size=a.n_rows)
            trace.append(
                TraceRequest(pattern_id=pid, a=a, b=b, gap=arrival_gap)
            )
    return trace


def _percentile_split(
    report: FleetReport, first_index: int, last_index: int
) -> tuple[float, float]:
    """Exact p99 of ok-response latencies before the first churn event
    vs. at/after the last one (the steady states the recovery gate
    compares).

    The pre window leaves out ``cold`` responses: the first flush of
    each pattern pays a full analysis, and counting it would measure
    warm-up instead of the steady state a recovery is held to."""
    pre, post = Histogram(), Histogram()
    for resp in report.responses:
        if resp.status != "ok":
            continue
        if resp.index < first_index:
            if resp.served != "cold":
                pre.record(resp.latency)
        elif resp.index >= last_index:
            post.record(resp.latency)
    return pre.p99, post.p99


def _fingerprint(report: FleetReport) -> str:
    """Byte-level identity of one drill run (responses + churn log)."""
    h = hashlib.blake2b(digest_size=16)
    for resp in report.responses:
        h.update(
            f"{resp.index}:{resp.node_id}:{resp.status}:"
            f"{resp.served}:{resp.epoch}".encode()
        )
        if resp.x is not None:
            h.update(np.ascontiguousarray(resp.x, dtype="<f8").tobytes())
        h.update(np.float64(resp.latency).tobytes())
    for rec in report.churn_records:
        h.update(repr(sorted(rec.as_dict().items())).encode())
    h.update(np.float64(report.makespan_seconds).tobytes())
    return h.hexdigest()


@dataclass
class ChurnDrillReport(GatedReport):
    """Outcome of the scripted churn drill + the four gate verdicts."""

    nodes_initial: int
    requests: int
    completed: int
    shed: int
    lost: int
    #: bitwise-checked ok responses and how many diverged
    checked: int
    mismatches: int
    pre_p99: float
    post_p99: float
    makespan_seconds: float
    deterministic: bool
    events: list[ChurnRecord] = field(default_factory=list)

    title = (
        "churn drill: {r.requests} requests through {r.nodes_initial} "
        "nodes (x2 runs for determinism): {r.completed} completed, "
        "{r.shed} shed, {r.lost} lost; warm p99 {r.pre_p99:.3e} s before "
        "the first event, p99 {r.post_p99:.3e} s after the last"
    )
    columns = (
        ("event", "action"),
        ("node", "node_id"),
        ("trace index", "applied_at_index"),
        ("remap", "remap_fraction"),
        ("1/N bound", "theoretical_bound"),
        ("within", "within_bound"),
        ("warmed", "warmed_keys"),
        ("warmed B", "warmed_bytes"),
        ("drained", "drained"),
        ("published", "published_keys"),
        ("lost", "lost"),
        ("rolled back", "aborted_writes"),
    )
    gates = (
        Gate(
            "deterministic",
            lambda r: r.deterministic,
            "determinism: byte-identical across reruns",
        ),
        Gate(
            "remap_ok",
            lambda r: bool(r.events)
            and all(ev.within_bound for ev in r.events),
            "remap: every event within its 1/N bound + 0.05",
        ),
        Gate(
            "bitwise_ok",
            lambda r: r.checked > 0 and r.mismatches == 0,
            "bitwise: every ok response equal to a single-service replay",
            lambda r: f"{r.mismatches} of {r.checked} differ",
        ),
        Gate(
            "recovery_ok",
            lambda r: r.recovery_ratio <= RECOVERY_FACTOR,
            f"recovery: post-churn p99 <= {RECOVERY_FACTOR}x warm "
            "pre-churn p99",
            lambda r: f"{r.recovery_ratio:.2f}x",
        ),
    )

    def table_rows(self) -> list[ChurnRecord]:
        return self.events

    @property
    def recovery_ratio(self) -> float:
        if self.pre_p99 <= 0:
            return 0.0 if self.post_p99 <= 0 else float("inf")
        return self.post_p99 / self.pre_p99

    # -- export ----------------------------------------------------------
    def perf_record(self) -> dict:
        counters: dict = {
            "nodes_initial": int(self.nodes_initial),
            "requests": int(self.requests),
            "completed": int(self.completed),
            "shed": int(self.shed),
            "lost": int(self.lost),
            "bitwise_checked": int(self.checked),
            "bitwise_mismatches": int(self.mismatches),
            "churn_events": len(self.events),
        }
        for key in ("warmed_keys", "published_keys", "aborted_writes"):
            counters[key] = sum(getattr(ev, key) for ev in self.events)
        timings: dict = {
            "pre_p99": float(self.pre_p99),
            "post_p99": float(self.post_p99),
            "recovery_ratio": float(self.recovery_ratio),
            "makespan_seconds": float(self.makespan_seconds),
        }
        labels: dict = self.gate_labels()
        for ev in self.events:
            key = f"{ev.action}_node{ev.node_id}"
            timings[f"{key}_remap_fraction"] = ev.remap_fraction
            timings[f"{key}_bound"] = ev.theoretical_bound
            labels[f"{key}_within_bound"] = str(ev.within_bound).lower()
        return {"counters": counters, "timings": timings, "labels": labels}


def run_churn_drill(*, smoke: bool = False, seed: int = 0) -> ChurnDrillReport:
    """Run the scripted drill twice (determinism check) and gate it.

    The trace interleaves Table 2 registry structures with fresh value
    stamps; the churn script is pinned to fractions of its arrival
    window, so the same events interleave with the same submissions on
    every rerun.
    """
    abbrs = ("RM", "OT2", "CR2", "BMC", "CR1", "BB")
    stamps, n = (8, 64) if smoke else (16, 96)
    # coprime to the 6-pattern rotation, so every pattern cycles
    # through the pending window and the crash finds work in flight
    flush_every = 9

    def _once() -> tuple[FleetReport, list[TraceRequest]]:
        trace = _registry_trace(
            abbrs=abbrs,
            stamps=stamps,
            n=n,
            seed=seed,
            arrival_gap=2e-4,
        )
        plan = churn_plan_for_trace(trace, CHURN_SCRIPT)
        cfg = FleetConfig(num_nodes=4)
        report = run_fleet_load(
            trace, cfg, flush_every=flush_every, churn=plan
        )
        return report, trace

    first, trace = _once()
    second, _ = _once()
    deterministic = _fingerprint(first) == _fingerprint(second)

    # bitwise gate against the single-service ground truth
    checked, mismatches = solution_mismatches(
        ok_solutions(first.responses, key="index"),
        service_reference(trace, FleetConfig().serve, flush_every),
    )

    records = first.churn_records
    first_idx = min((r.applied_at_index for r in records), default=0)
    last_idx = max((r.applied_at_index for r in records), default=0)
    pre_p99, post_p99 = _percentile_split(first, first_idx, last_idx)

    return ChurnDrillReport(
        nodes_initial=4,
        requests=first.requests,
        completed=first.completed,
        shed=first.shed,
        lost=first.lost,
        checked=checked,
        mismatches=mismatches,
        pre_p99=pre_p99,
        post_p99=post_p99,
        makespan_seconds=float(first.makespan_seconds),
        deterministic=deterministic,
        events=list(records),
    )
