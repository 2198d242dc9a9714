"""The fleet facade: N solver nodes behind one admission boundary.

A :class:`Fleet` composes everything the serving stack built so far into
one cluster-scale tier:

* each **node** is a full :class:`~repro.serve.SolverService` (device
  pool, L1 analysis cache, batching scheduler, device breakers, CPU
  fallback) — the box PRs 1–5 hardened;
* a consistent-hash **ring** (:mod:`repro.fleet.router`) gives every
  sparsity pattern a home node, so warm patterns always find their L1
  analysis and node churn remaps only ~K/N keys;
* a shared **L2 analysis cache** (:mod:`repro.fleet.l2cache`) catches
  L1 evictions and ring remaps: before a node dispatches a cold
  pattern, the fleet tries the L2 and pays modeled link time instead of
  a full ``analyze()``;
* an **admission controller** (:mod:`repro.fleet.admission`) bounds
  per-node queues, sheds with typed :class:`ShedError` under overload,
  and walks ring successors when a node's breaker is open.

The membership is **live** (``docs/churn.md``): :meth:`Fleet.join_node`
splices a new node into the ring mid-replay and pre-warms its L1 from
the L2 for the arcs it now owns; :meth:`Fleet.leave_node` drains a
graceful leaver to completion (publishing its hot arcs) or sheds a
crashed node's inflight work with a typed
:class:`~repro.fleet.churn.NodeLostError`.  Each event yields a
:class:`~repro.fleet.churn.ChurnRecord` with the measured remap
fraction against the ring-theoretical bound.

Correctness contract (locked by the differential tests): every admitted
response's solution vector is **bitwise-identical** to replaying the
same trace through a single :class:`SolverService` — routing, caching
tier, node count, shedding and topology churn may only move *time*,
never numerics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..errors import QueueFullError, ServiceShutdownError
from ..serve.cache import pattern_key
from ..serve.scheduler import SolveResponse
from ..serve.service import ServeConfig, SolverService
from ..sparse import CSRMatrix
from .admission import AdmissionController, ShedError
from .churn import ChurnEvent, ChurnRecord, NodeLostError, probe_keys
from .l2cache import L2Cache
from .router import HashRing, RingMembershipError

__all__ = ["FleetConfig", "FleetResponse", "Fleet"]


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the cluster tier (per-node knobs live in ``serve``).

    As for :class:`~repro.core.SolverConfig`, a field exists only while a
    caller outside the tests sets it: the L2 capacity and link are
    constants of :mod:`repro.fleet.l2cache`, the node breakers' of
    :mod:`repro.fleet.admission`, and the ring's points per node of
    :class:`~repro.fleet.router.HashRing`.
    """

    #: solver nodes in the fleet
    num_nodes: int = 2
    #: per-node service configuration (cloned for every node)
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: undispatched requests a node may hold before admission sheds
    max_pending_per_node: int = 32

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.max_pending_per_node < 1:
            raise ValueError("max_pending_per_node must be >= 1")


@dataclass
class FleetResponse:
    """Outcome of one fleet submission, in submission order.

    ``status`` extends the service statuses with ``shed`` (refused at
    admission) and ``lost`` (in flight on a crashed node); ``served``
    says which tier produced the analysis the request ran on:
    ``l1`` (home-node hit), ``l2`` (fetched from the shared tier),
    ``cold`` (full analysis), or ``none`` (shed/lost — no work done).
    ``epoch`` is the ring topology version the request was admitted
    under.

    Family-hinted traffic adds two delta tiers: ``delta`` (spliced from
    a donor already resident in the node's L1) and ``l2-delta``
    (spliced from a donor staged over the node's L2 link) — in both the
    full analysis was avoided and only the structural delta was paid.
    """

    index: int
    node_id: int
    key: str
    status: str
    served: str = "none"
    rerouted: bool = False
    response: SolveResponse | None = None
    epoch: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def shed(self) -> bool:
        return self.status == "shed"

    @property
    def lost(self) -> bool:
        return self.status == "lost"

    @property
    def x(self) -> np.ndarray | None:
        return None if self.response is None else self.response.x

    @property
    def latency(self) -> float:
        return 0.0 if self.response is None else self.response.latency

    @property
    def finish(self) -> float:
        return 0.0 if self.response is None else self.response.finish


@dataclass
class _Inflight:
    """One admitted, not-yet-flushed request on a node."""

    index: int
    key: str
    request_id: int
    rerouted: bool
    epoch: int = 0
    family: str | None = None


class Fleet:
    """N modeled solver nodes, one ring, one L2, one admission boundary.

    Synchronous like :class:`SolverService`: :meth:`submit` routes and
    admits (raising :class:`ShedError` on overload — already recorded,
    callers just count it), :meth:`flush` stages L2 fetches and drains
    every node, :meth:`responses` returns everything in submission
    order.
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        *,
        node_overrides: dict[int, ServeConfig] | None = None,
    ) -> None:
        self.config = config or FleetConfig()
        overrides = node_overrides or {}
        for node_id in overrides:
            if not (0 <= node_id < self.config.num_nodes):
                raise ValueError(
                    f"override for unknown node {node_id}"
                )
        #: live members, keyed by node id (ids need not be contiguous
        #: once churn has happened)
        self.nodes: dict[int, SolverService] = {
            i: SolverService(overrides.get(i, self.config.serve))
            for i in range(self.config.num_nodes)
        }
        self.ring = HashRing(tuple(range(self.config.num_nodes)))
        self.l2 = L2Cache(self.config.num_nodes)
        self.admission = AdmissionController(
            range(self.config.num_nodes), self.config.max_pending_per_node
        )
        for node_id, node in self.nodes.items():
            node.scheduler.on_install = self._publisher(node_id)
        self._inflight: dict[int, list[_Inflight]] = {
            i: [] for i in range(self.config.num_nodes)
        }
        self._responses: dict[int, FleetResponse] = {}
        #: applied membership events, in order
        self.churn_log: list[ChurnRecord] = []
        #: final service stats of departed nodes (popped on rejoin)
        self._departed_stats: dict[int, dict] = {}
        #: max busy time ever reached by a departed node
        self._departed_makespan = 0.0
        self._seq = 0
        self._clock = 0.0
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self, *, drain: bool = True) -> list[FleetResponse]:
        """Drain (default) or discard queued work, then refuse more.

        Draining also waits out every node's queued L2 write-behind
        publishes, so the store durably holds each published analysis;
        ``drain=False`` rolls publishes still on the wire back out of
        the store (the discard is clean — no half-written entries).
        """
        if self._closed:
            return []
        out = self.flush() if drain else []
        self._closed = True
        for node_id, node in self.nodes.items():
            if drain:
                done = self.l2.flush_writes(node_id, node.clock)
                if done > node.clock:
                    node.tick(done - node.clock)
            else:
                self.l2.abort_writes(node_id, node.clock)
            node.shutdown(drain=drain)
        return out

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceShutdownError("fleet is shut down")

    # -- clock ----------------------------------------------------------
    @property
    def clock(self) -> float:
        """Fleet virtual time (max over node clocks and explicit ticks)."""
        return max(
            [self._clock] + [n.clock for n in self.nodes.values()]
        )

    def tick(self, dt: float) -> float:
        """Advance every node's arrival clock (shared wall time)."""
        if dt < 0:
            raise ValueError("cannot tick backwards")
        self._clock += float(dt)
        for node in self.nodes.values():
            node.tick(dt)
        return self.clock

    # -- request path ----------------------------------------------------
    @property
    def pending(self) -> int:
        return sum(len(v) for v in self._inflight.values())

    def submit(
        self,
        a: CSRMatrix,
        b: np.ndarray,
        *,
        deadline: float | None = None,
        timeout: float | None = None,
        family: str | None = None,
    ) -> int:
        """Route, admit and enqueue ``A x = b``; returns the fleet
        sequence index.  Raises :class:`ShedError` on overload or an
        unhealthy fleet — the shed is *recorded* (a ``shed``
        :class:`FleetResponse` under the raised error's ``.index``)
        before raising, so no response is ever lost.  ``family`` is the
        optional pattern-family digest enabling delta splicing from
        near-miss donors (L1-resident or staged over the L2 link).
        """
        self._check_open()
        key = pattern_key(a)
        index = self._seq
        self._seq += 1
        preference = self.ring.preference(key)
        now = self.clock
        try:
            node_id = self.admission.select(preference, now)
            self.admission.admit(node_id)
        except ShedError as exc:
            self._responses[index] = FleetResponse(
                index=index, node_id=exc.node_id, key=key,
                status="shed", epoch=self.ring.epoch,
            )
            exc.index = index  # type: ignore[attr-defined]
            raise
        node = self.nodes[node_id]
        try:
            rid = node.submit(
                a, b, deadline=deadline, timeout=timeout, family=family
            )
        except QueueFullError as exc:
            # the node's own bounded queue is the second gate; convert
            # to the fleet's typed shed signal
            self.admission.release(node_id)
            self.admission.count_shed(node_id)
            self._responses[index] = FleetResponse(
                index=index, node_id=node_id, key=key, status="shed",
                epoch=self.ring.epoch,
            )
            shed = ShedError(node_id, exc.depth, exc.capacity)
            shed.index = index  # type: ignore[attr-defined]
            raise shed from exc
        self._inflight[node_id].append(
            _Inflight(
                index=index, key=key, request_id=rid,
                rerouted=node_id != preference[0],
                epoch=self.ring.epoch,
                family=family,
            )
        )
        return index

    # -- dispatch --------------------------------------------------------
    def _publisher(self, node_id: int):
        """Write-through hook for one node's scheduler: every analysis
        the node *builds* is published to the L2 as it is installed
        (write-behind — occupies the node's link, never stalls it)."""

        def publish(key: str, analysis) -> None:
            self.l2.put(node_id, key, analysis, self.nodes[node_id].clock)

        return publish

    def _stage_l2(self, node_id: int) -> tuple[set[str], set[str]]:
        """Pre-dispatch L2 stage for one node: fetch every pending
        pattern missing from the node's L1, stalling the node's clock
        until its link delivers.  A family-hinted pattern that misses
        *both* tiers additionally tries to stage a family donor over
        the same link, so the node's scheduler can splice the delta
        instead of analyzing cold.  Returns
        ``(keys served from L2, keys with an L2-staged family donor)``.
        """
        node = self.nodes[node_id]
        fetched: set[str] = set()
        family_staged: set[str] = set()
        seen: set[str] = set()
        for job in self._inflight[node_id]:
            if job.key in seen:
                continue
            seen.add(job.key)
            if node.scheduler.cache.peek(job.key) is not None:
                continue
            fetch = self.l2.fetch(node_id, job.key, node.clock)
            if not fetch.hit:
                if (
                    job.family is not None
                    and node.scheduler.config.incremental
                    and not node.scheduler.cache.family_members(
                        job.family
                    )
                ):
                    donor = self.l2.fetch_family(
                        node_id, job.family, node.clock,
                        exclude={job.key},
                    )
                    if donor is not None and donor.hit:
                        assert donor.analysis is not None
                        wait = donor.end_s - node.clock
                        if wait > 0:
                            node.tick(wait)
                        node.scheduler.adopt_analysis(
                            donor.key, donor.analysis
                        )
                        if (
                            node.scheduler.cache.peek(donor.key)
                            is not None
                        ):
                            family_staged.add(job.key)
                continue
            assert fetch.analysis is not None
            wait = fetch.end_s - node.clock
            if wait > 0:
                node.tick(wait)
            node.scheduler.adopt_analysis(job.key, fetch.analysis)
            if node.scheduler.cache.peek(job.key) is not None:
                fetched.add(job.key)
            # an entry too large for the node's whole L1 budget could
            # not be adopted; the batch re-analyzes cold (and the
            # labels say so)
        return fetched, family_staged

    def _flush_node(self, node_id: int) -> list[FleetResponse]:
        """Stage + drain one node's inflight work (the per-node body of
        :meth:`flush`; the graceful-leave drain uses it directly)."""
        jobs = self._inflight[node_id]
        if not jobs:
            return []
        node = self.nodes[node_id]
        fetched, family_staged = self._stage_l2(node_id)
        responses = {
            r.request_id: r for r in node.flush()
        }
        self.admission.release(node_id, len(jobs))
        out: list[FleetResponse] = []
        for job in jobs:
            resp = responses.get(job.request_id)
            if resp is None:  # defensive: node dropped the request
                continue
            if job.key in fetched:
                served = "l2"
            elif resp.cache_hit:
                served = "l1"
            elif resp.incremental:
                # the splice's donor either crossed the wire this round
                # or was already resident in the node's L1
                served = (
                    "l2-delta" if job.key in family_staged else "delta"
                )
            else:
                served = "cold"
            self.admission.record_result(
                node_id, resp.status != "error", resp.finish
            )
            fr = FleetResponse(
                index=job.index, node_id=node_id, key=job.key,
                status=resp.status, served=served,
                rerouted=job.rerouted, response=resp,
                epoch=job.epoch,
            )
            self._responses[job.index] = fr
            out.append(fr)
        self._inflight[node_id] = []
        return out

    def flush(self) -> list[FleetResponse]:
        """Stage L2 fetches, drain every node, feed the breakers, and
        return this round's responses in submission order."""
        self._check_open()
        out: list[FleetResponse] = []
        for node_id in list(self._inflight):
            out.extend(self._flush_node(node_id))
        self._clock = max(self._clock, self.clock)
        return sorted(out, key=lambda r: r.index)

    def solve(self, a: CSRMatrix, b: np.ndarray, **kw) -> FleetResponse:
        """Submit one request and flush the whole fleet."""
        index = self.submit(a, b, **kw)
        self.flush()
        return self._responses[index]

    def responses(self) -> list[FleetResponse]:
        """Every recorded outcome (including sheds), submission order."""
        return [self._responses[i] for i in sorted(self._responses)]

    def result(self, index: int) -> FleetResponse | None:
        return self._responses.get(index)

    # -- topology churn --------------------------------------------------
    def route_of(self, a: CSRMatrix) -> int:
        """Home node the ring would pick for ``a``'s pattern."""
        return self.ring.route(pattern_key(a))

    def _measure_remap(self, mutate) -> tuple[float, float]:
        """Run ``mutate()`` (a ring membership change) and return the
        (measured, theoretical-bound) remap fractions over the fixed
        probe population.  The bound denominator counts the churning
        node, so it is taken on whichever side of the mutation has the
        larger ring."""
        probes = probe_keys()
        n_before = len(self.ring)
        before = (
            self.ring.route_table(probes) if n_before else {}
        )
        mutate()
        after = (
            self.ring.route_table(probes) if len(self.ring) else {}
        )
        measured = HashRing.remap_fraction(before, after)
        larger = max(n_before, len(self.ring))
        bound = 1.0 / larger if larger else 1.0
        return measured, bound

    def join_node(
        self,
        node_id: int | None = None,
        *,
        serve: ServeConfig | None = None,
        warm: bool = True,
    ) -> ChurnRecord:
        """Splice a fresh node into the live fleet.

        The joiner starts its virtual clock at the fleet's *now*, gets
        an admission queue/breaker and an L2 link, and (with ``warm``)
        pre-warms its L1 from the L2 for every resident arc key the
        ring now routes to it — each fetch serialized over its
        ``LinkSpec`` FIFO and charged, so warm-up costs modeled wire
        time before the node serves its first request.
        """
        self._check_open()
        if node_id is None:
            node_id = (max(self.nodes) + 1) if self.nodes else 0
        node_id = int(node_id)
        if node_id in self.nodes:
            raise RingMembershipError(node_id, "already in the fleet")
        measured, bound = self._measure_remap(
            lambda: self.ring.add_node(node_id)
        )
        self.admission.register_node(node_id)
        if not self.l2.has_link(node_id):
            self.l2.register_node(node_id)
        # a rejoining id starts as a *new* machine: its old stats stay
        # folded into the departed makespan floor
        self._departed_stats.pop(node_id, None)
        node = SolverService(serve or self.config.serve)
        if self.clock > 0:
            node.tick(self.clock)
        node.scheduler.on_install = self._publisher(node_id)
        self.nodes[node_id] = node
        self._inflight[node_id] = []
        warmed = warmed_bytes = 0
        warm_s = 0.0
        if warm and len(self.l2):
            owned = [
                k for k in self.l2.keys()
                if self.ring.route(k) == node_id
            ]
            start = node.clock
            fetches = self.l2.warm_fetch(node_id, owned, start)
            last_end = start
            for fetch in fetches:
                if not fetch.hit:
                    continue
                assert fetch.analysis is not None
                node.scheduler.adopt_analysis(fetch.key, fetch.analysis)
                if node.scheduler.cache.peek(fetch.key) is not None:
                    warmed += 1
                    warmed_bytes += int(fetch.analysis.nbytes)
                last_end = max(last_end, fetch.end_s)
            if last_end > node.clock:
                node.tick(last_end - node.clock)
            warm_s = last_end - start
        record = ChurnRecord(
            action="join", node_id=node_id, t_s=self.clock,
            epoch=self.ring.epoch, remap_fraction=measured,
            theoretical_bound=bound, warmed_keys=warmed,
            warmed_bytes=warmed_bytes, warm_seconds=warm_s,
        )
        self.churn_log.append(record)
        return record

    def leave_node(
        self, node_id: int, *, graceful: bool = True
    ) -> ChurnRecord:
        """Remove a live node.

        Graceful: drain the leaver's inflight/queued work to completion
        (responses stay bitwise-identical), publish its hot L1 arcs to
        the L2, wait out its write-behind publishes, then take it off
        the ring.  Crash (``graceful=False``): inflight work is
        recorded as ``"lost"`` responses and a
        :class:`NodeLostError` carrying the record is raised after the
        removal; publishes still on the wire are rolled back and the
        node's warm L1 is gone.
        """
        self._check_open()
        node_id = int(node_id)
        if node_id not in self.nodes:
            raise RingMembershipError(node_id, "not in the fleet")
        node = self.nodes[node_id]
        drained = published = 0
        lost_indices: list[int] = []
        aborted = 0
        if graceful:
            drained = len(self._flush_node(node_id))
            # publish hot arcs the store does not already hold, MRU
            # first — the successor inherits them through L2 fetches
            # instead of paying cold analyses
            for key in reversed(node.scheduler.cache.keys()):
                if key in self.l2:
                    continue
                entry = node.scheduler.cache.peek(key)
                if entry is None:
                    continue
                self.l2.put(node_id, key, entry, node.clock)
                published += 1
            done = self.l2.flush_writes(node_id, node.clock)
            if done > node.clock:
                node.tick(done - node.clock)
        else:
            jobs = self._inflight[node_id]
            lost_indices = [job.index for job in jobs]
            for job in jobs:
                self._responses[job.index] = FleetResponse(
                    index=job.index, node_id=node_id, key=job.key,
                    status="lost", rerouted=job.rerouted,
                    epoch=job.epoch,
                    error=(
                        f"node {node_id} lost with request "
                        f"{job.index} in flight"
                    ),
                )
            self.admission.release(node_id, len(jobs))
            self._inflight[node_id] = []
            aborted = len(self.l2.abort_writes(node_id, node.clock))
        measured, bound = self._measure_remap(
            lambda: self.ring.remove_node(node_id)
        )
        final = node.stats()
        for dev in final["devices"]:
            self._departed_makespan = max(
                self._departed_makespan, float(dev["busy_until"])
            )
        self._departed_makespan = max(
            self._departed_makespan, float(final["cpu_busy_until"])
        )
        self._departed_stats[node_id] = final
        self._clock = max(self._clock, node.clock)
        self.admission.retire_node(node_id, self.clock)
        del self.nodes[node_id]
        del self._inflight[node_id]
        node.shutdown(drain=graceful)
        record = ChurnRecord(
            action="leave" if graceful else "crash",
            node_id=node_id, t_s=self.clock, epoch=self.ring.epoch,
            remap_fraction=measured, theoretical_bound=bound,
            drained=drained, published_keys=published,
            lost=len(lost_indices), aborted_writes=aborted,
        )
        self.churn_log.append(record)
        if lost_indices:
            err = NodeLostError(node_id, lost_indices)
            err.record = record
            raise err
        return record

    def apply_churn(self, event: ChurnEvent) -> ChurnRecord:
        """Apply one scripted event; crashes are absorbed into their
        record (the ``lost`` responses are already booked), mirroring
        how ``replay_fleet`` absorbs :class:`ShedError`."""
        if event.action == "join":
            return self.join_node(event.node_id)
        try:
            return self.leave_node(event.node_id, graceful=event.graceful)
        except NodeLostError as exc:
            assert exc.record is not None
            return exc.record

    # -- introspection ---------------------------------------------------
    @property
    def makespan_seconds(self) -> float:
        """Latest busy time across every device of every node — live
        and departed (plus the degraded CPU timelines)."""
        latest = self._departed_makespan
        for node in self.nodes.values():
            snap = node.stats()
            for d in snap["devices"]:
                latest = max(latest, float(d["busy_until"]))
            latest = max(latest, float(snap["cpu_busy_until"]))
        return latest

    def stats(self) -> dict:
        """One nested dict: per-node service stats + ring + L2 +
        admission (+ final stats of departed nodes)."""
        return {
            "num_nodes": len(self.nodes),
            "clock": self.clock,
            "makespan_seconds": self.makespan_seconds,
            "ring": self.ring.snapshot(),
            "l2": self.l2.stats(),
            "admission": self.admission.snapshot(),
            "nodes": {
                node_id: node.stats()
                for node_id, node in self.nodes.items()
            },
            "departed": {
                node_id: snap
                for node_id, snap in self._departed_stats.items()
            },
            "churn_events": len(self.churn_log),
        }


def fleet_config_with_node_devices(
    config: FleetConfig, fault_plans_by_node: dict[int, dict] | None
) -> dict[int, ServeConfig]:
    """Helper: per-node ``ServeConfig`` overrides carrying fault plans
    (used by the fleet drills/tests to break individual nodes)."""
    overrides: dict[int, ServeConfig] = {}
    for node_id, plans in (fault_plans_by_node or {}).items():
        overrides[node_id] = dataclasses.replace(
            config.serve, fault_plans=plans
        )
    return overrides
