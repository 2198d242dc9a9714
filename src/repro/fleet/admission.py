"""Admission control: bounded per-node queues, shedding, node breakers.

Serving "millions of users" means overload is an input, not an error:
past saturation the fleet must shed deterministically instead of growing
queues without bound or letting exceptions escape the service boundary.
Three mechanisms:

* **Bounded per-node admission queues** — each node accepts at most
  ``max_pending_per_node`` undispatched requests.  A request routed to a
  saturated node is refused with a typed :class:`ShedError` (the fleet
  does *not* reroute on overload: spilling a hot pattern to a cold node
  would trade one cheap queued refactorization for a full analysis and
  destroy the warm-routing invariant — shedding is the honest answer).
* **Per-node circuit breakers** — the same three-state
  :class:`~repro.serve.breaker.CircuitBreaker` machine that guards
  devices inside a node (rung 4 of the recovery ladder) is stacked one
  level up: error responses from a node count as failures, tripping the
  breaker and steering that node's arcs to the ring successors
  (:meth:`~repro.fleet.router.HashRing.preference`) until the cooldown
  probe succeeds.  A node that recovers gets its arcs back, because
  routing is by ring position, not by reassignment.
* **Unhealthy-fleet shedding** — when every candidate node's breaker is
  open, admission fails with ``reason="no_healthy_node"`` rather than
  queueing on a known-bad node.

All decisions are functions of the simulated clock, so shed patterns are
byte-identical run to run.

Under live topology churn (``docs/churn.md``) the member set is no
longer fixed at construction: :meth:`AdmissionController.register_node`
creates a queue + breaker for a joiner at runtime and
:meth:`AdmissionController.retire_node` removes a leaver's, archiving
its final breaker snapshot (state + last-transition clock) so the churn
drill can assert retirement after the fact.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import ServeError
from ..serve.breaker import BreakerConfig, CircuitBreaker

__all__ = ["AdmissionController", "ShedError"]

#: trip/recovery knobs of every node breaker (node-level rung of the
#: recovery ladder)
NODE_BREAKER = BreakerConfig()


class ShedError(ServeError):
    """A request was refused at the fleet boundary (load shed).

    ``reason`` is ``"queue_full"`` (the home node's admission queue is
    at capacity) or ``"no_healthy_node"`` (every routable node's breaker
    is open).  The request was **not** enqueued anywhere.
    """

    def __init__(self, node_id: int, depth: int, capacity: int,
                 reason: str = "queue_full") -> None:
        self.node_id = int(node_id)
        self.depth = int(depth)
        self.capacity = int(capacity)
        self.reason = str(reason)
        super().__init__(
            f"request shed ({reason}) at node {node_id}: "
            f"{depth}/{capacity} pending"
        )


class AdmissionController:
    """Pending-count bookkeeping + node breakers for one fleet.

    Each node holds at most ``max_pending_per_node`` undispatched
    requests before shedding.  Internals are keyed by node id (not list
    position) so members may join and retire at runtime with
    non-contiguous ids.
    """

    def __init__(self, nodes: int | Iterable[int],
                 max_pending_per_node: int) -> None:
        node_ids = (
            list(range(nodes)) if isinstance(nodes, int) else
            [int(n) for n in nodes]
        )
        if not node_ids:
            raise ValueError("at least one node is required")
        self.max_pending_per_node = int(max_pending_per_node)
        self.pending: dict[int, int] = {}
        self.breakers: dict[int, CircuitBreaker] = {}
        self.admitted: dict[int, int] = {}
        self.shed_by_node: dict[int, int] = {}
        #: final breaker snapshot + retirement clock of departed nodes
        self.retired: dict[int, dict] = {}
        self.sheds = 0
        self.reroutes = 0
        for node_id in node_ids:
            self.register_node(node_id)

    # -- churn ---------------------------------------------------------
    def register_node(self, node_id: int) -> None:
        """Create the queue and breaker for a node joining the fleet."""
        node_id = int(node_id)
        if node_id in self.pending:
            raise ValueError(f"node {node_id} already registered")
        self.pending[node_id] = 0
        self.breakers[node_id] = CircuitBreaker(config=NODE_BREAKER)
        self.admitted[node_id] = 0
        self.shed_by_node[node_id] = 0
        # a retired id may rejoin; the archived record stays until then
        self.retired.pop(node_id, None)

    def retire_node(self, node_id: int, now: float = 0.0) -> dict:
        """Drop a leaver's queue/breaker; archive and return its final
        breaker snapshot (with the retirement clock) for the drill."""
        node_id = int(node_id)
        if node_id not in self.pending:
            raise ValueError(f"node {node_id} not registered")
        record = {
            "breaker": self.breakers[node_id].snapshot(),
            "retired_at_s": float(now),
            "pending_at_retire": self.pending[node_id],
            "admitted": self.admitted[node_id],
            "shed": self.shed_by_node[node_id],
        }
        del self.pending[node_id]
        del self.breakers[node_id]
        del self.admitted[node_id]
        del self.shed_by_node[node_id]
        self.retired[node_id] = record
        return record

    # ------------------------------------------------------------------
    def allow(self, node_id: int, now: float) -> bool:
        """Breaker verdict for ``node_id`` at virtual time ``now``
        (may transition open → half-open; a half-open node admits one
        probe)."""
        return self.breakers[node_id].allow(now)

    def select(self, preference: list[int], now: float) -> int:
        """First healthy node of a ring-preference walk.

        Raises :class:`ShedError` (``no_healthy_node``) when every
        candidate's breaker refuses; counts a reroute whenever the pick
        is not the home (first) node.
        """
        for node_id in preference:
            if self.allow(node_id, now):
                if node_id != preference[0]:
                    self.reroutes += 1
                return node_id
        self.sheds += 1
        self.shed_by_node[preference[0]] += 1
        raise ShedError(
            preference[0], self.pending[preference[0]],
            self.max_pending_per_node, reason="no_healthy_node",
        )

    def count_shed(self, node_id: int) -> None:
        """Record a shed decided outside the controller (e.g. a node's
        own bounded queue refusing after admission)."""
        self.sheds += 1
        self.shed_by_node[node_id] += 1

    def admit(self, node_id: int) -> None:
        """Claim one admission slot on ``node_id`` or shed."""
        if self.pending[node_id] >= self.max_pending_per_node:
            self.sheds += 1
            self.shed_by_node[node_id] += 1
            raise ShedError(
                node_id, self.pending[node_id], self.max_pending_per_node
            )
        self.pending[node_id] += 1
        self.admitted[node_id] += 1

    def release(self, node_id: int, count: int = 1) -> None:
        """Return dispatched slots (called after a node flush)."""
        self.pending[node_id] = max(0, self.pending[node_id] - int(count))

    # ------------------------------------------------------------------
    def record_result(self, node_id: int, ok: bool, now: float) -> int:
        """Feed one response outcome into the node's breaker; returns
        the number of new trips (0 or 1)."""
        breaker = self.breakers[node_id]
        trips_before = breaker.trips
        if ok:
            breaker.record_success(now)
        else:
            breaker.record_failure(now)
        return breaker.trips - trips_before

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Keyed by node id; ``breakers`` entries carry the breaker's
        state and last-transition clock, ``retired`` the archived
        records of departed nodes."""
        return {
            "pending": dict(self.pending),
            "admitted": dict(self.admitted),
            "shed_by_node": dict(self.shed_by_node),
            "sheds": self.sheds,
            "reroutes": self.reroutes,
            "breakers": {
                node_id: breaker.snapshot()
                for node_id, breaker in self.breakers.items()
            },
            "retired": {
                node_id: dict(record)
                for node_id, record in self.retired.items()
            },
        }
