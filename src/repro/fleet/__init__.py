"""Cluster-scale serving: N solver nodes, one ring, two cache tiers.

``repro.serve`` amortizes symbolic analysis on one modeled box; this
package scales that amortization to a *fleet*:

* :mod:`~repro.fleet.router` — consistent-hash ring: every sparsity
  pattern has a home node, warm patterns stick, node churn remaps only
  ~K/N keys;
* :mod:`~repro.fleet.l2cache` — modeled shared L2 analysis cache whose
  fetches are charged over an interconnect-style
  :class:`~repro.gpusim.interconnect.LinkSpec` link (an L2 hit beats a
  cold ``analyze()`` but is not free);
* :mod:`~repro.fleet.admission` — bounded per-node queues with typed
  :class:`ShedError` rejections and per-node circuit breakers that
  reroute to ring successors;
* :mod:`~repro.fleet.fleet` — the :class:`Fleet` facade
  (``submit`` / ``flush`` / ``solve`` / ``stats`` / ``shutdown``,
  plus live membership: ``join_node`` / ``leave_node`` /
  ``apply_churn``);
* :mod:`~repro.fleet.churn` — scripted topology churn
  (:class:`ChurnPlan` of join/leave events, :class:`ChurnRecord`
  outcomes, typed :class:`NodeLostError` for crashed-node sheds);
* :mod:`~repro.fleet.loadgen` — trace replay + :class:`FleetReport`
  (balance, tier hit rates, shed rate, exact p50/p99), optionally
  churn-annotated.

Correctness contract: every admitted response is bitwise-identical to a
single-node :class:`~repro.serve.SolverService` replay of the same
trace — the fleet moves time, never numerics.

Quickstart::

    from repro.fleet import Fleet, FleetConfig

    fleet = Fleet(FleetConfig(num_nodes=4))
    idx = fleet.submit(a, b)      # ShedError = overload (recorded)
    resp = fleet.flush()[0]
    print(resp.status, resp.served, fleet.stats()["l2"]["hit_rate"])
    fleet.shutdown()
"""

from .admission import AdmissionController, ShedError
from .churn import (
    ChurnEvent,
    ChurnPlan,
    ChurnRecord,
    NodeLostError,
    probe_keys,
)
from .fleet import Fleet, FleetConfig, FleetResponse
from .l2cache import L2Cache, L2Fetch
from .loadgen import (
    FleetReport,
    churn_plan_for_trace,
    replay_fleet,
    run_fleet_load,
    synthesize_churn_trace,
)
from .router import HashRing, RingMembershipError

__all__ = [
    "AdmissionController",
    "ShedError",
    "ChurnEvent",
    "ChurnPlan",
    "ChurnRecord",
    "NodeLostError",
    "probe_keys",
    "Fleet",
    "FleetConfig",
    "FleetResponse",
    "L2Cache",
    "L2Fetch",
    "FleetReport",
    "churn_plan_for_trace",
    "replay_fleet",
    "run_fleet_load",
    "synthesize_churn_trace",
    "HashRing",
    "RingMembershipError",
]
