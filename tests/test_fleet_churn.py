"""Live topology churn: joins, drains, crashes mid-replay.

The static ring properties (minimal disruption, preference walks) are
locked by test_fleet_router; these tests lock the *operational* layer —
epoch bookkeeping and typed membership errors, the write-behind publish
race (flush vs. abort), warm-up over the L2 link, drain semantics, the
``lost`` response contract of a crash, and the byte-stability of the
churn-annotated trace path.  The smoke churn drill runs at the end as
an end-to-end gate.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.fleet import (
    AdmissionController,
    ChurnEvent,
    ChurnPlan,
    Fleet,
    FleetConfig,
    FleetReport,
    FleetResponse,
    HashRing,
    L2Cache,
    NodeLostError,
    RingMembershipError,
    churn_plan_for_trace,
    probe_keys,
    run_fleet_load,
    synthesize_churn_trace,
)
from repro.fleet.loadgen import replay_fleet
from repro.serve import BreakerConfig, SolveResponse, SolverService
from repro.serve.breaker import CircuitBreaker
from repro.serve.loadgen import replay, restamp, synthesize_trace
from repro.workloads import circuit_like

pytestmark = [pytest.mark.fleet, pytest.mark.churn]


def _events(count, n=48, seed=0, patterns=1):
    """(a, b) pairs cycling over ``patterns`` distinct sparsity keys."""
    bases = [
        circuit_like(n, 6.0, seed=seed + 17 * p) for p in range(patterns)
    ]
    rng = np.random.default_rng(seed)
    return [
        (restamp(bases[i % patterns], seed=seed + i),
         rng.normal(size=n))
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# ring: epochs, typed membership errors, remap helpers
# ---------------------------------------------------------------------------
def test_ring_epoch_tracks_mutations():
    ring = HashRing([0, 1])  # built via add_node, one bump each
    assert ring.epoch == 2
    ring.add_node(2)
    assert ring.epoch == 3
    ring.remove_node(0)
    assert ring.epoch == 4
    assert ring.snapshot()["epoch"] == 4


def test_ring_membership_errors_are_typed():
    ring = HashRing([0, 1])
    with pytest.raises(RingMembershipError) as exc:
        ring.add_node(1)
    assert isinstance(exc.value, ValueError)  # old handlers still work
    assert exc.value.node_id == 1
    assert "node 1" in str(exc.value)
    with pytest.raises(RingMembershipError) as exc:
        ring.remove_node(7)
    assert exc.value.node_id == 7
    assert "not on the ring" in str(exc.value)


def test_ring_remap_fraction_against_bound():
    keys = probe_keys()
    assert len(keys) == 1024 and keys[0] == "arc-probe:0"
    ring = HashRing([0, 1, 2, 3])
    before = ring.route_table(keys)
    ring.add_node(4)
    after = ring.route_table(keys)
    measured = HashRing.remap_fraction(before, after)
    # every moved key must have moved *to* the newcomer …
    moved = {k for k in keys if before[k] != after[k]}
    assert all(after[k] == 4 for k in moved)
    assert measured == pytest.approx(len(moved) / len(keys))
    # … and the fraction sits near 1/5 (vnode spread < 5 points)
    assert ring.theoretical_remap_bound() == pytest.approx(0.2)
    assert abs(measured - 0.2) <= 0.05
    # a key that vanished from the after-table counts as moved
    assert HashRing.remap_fraction({"a": 0}, {}) == 1.0
    assert HashRing.remap_fraction({}, {"a": 0}) == 0.0


# ---------------------------------------------------------------------------
# breaker: last-transition clock
# ---------------------------------------------------------------------------
def test_breaker_records_last_transition_clock():
    br = CircuitBreaker(
        config=BreakerConfig(failure_threshold=2, cooldown_s=1.0)
    )
    assert br.last_transition_s == 0.0
    br.record_failure(1.0)
    assert br.state == "closed"  # below threshold: no transition
    br.record_failure(2.0)
    assert br.state == "open" and br.last_transition_s == 2.0
    assert br.allow(3.5)  # cooldown elapsed: open -> half-open probe
    assert br.state == "half-open" and br.last_transition_s == 3.5
    br.record_success(4.0)
    assert br.state == "closed" and br.last_transition_s == 4.0
    assert br.snapshot()["last_transition_s"] == 4.0


# ---------------------------------------------------------------------------
# admission: runtime register / retire
# ---------------------------------------------------------------------------
def test_admission_register_and_retire_nodes():
    adm = AdmissionController(2, max_pending_per_node=32)
    adm.register_node(5)
    with pytest.raises(ValueError):
        adm.register_node(5)
    adm.admit(5)
    record = adm.retire_node(5, now=2.5)
    assert record["retired_at_s"] == 2.5
    assert record["admitted"] == 1 and record["pending_at_retire"] == 1
    assert record["breaker"]["state"] == "closed"
    with pytest.raises(ValueError):
        adm.retire_node(5)  # already gone
    snap = adm.snapshot()
    assert set(snap["pending"]) == {0, 1}
    assert snap["retired"][5]["admitted"] == 1
    assert all(
        "last_transition_s" in b for b in snap["breakers"].values()
    )
    # a retired id may rejoin as a fresh node; the archive is dropped
    adm.register_node(5)
    assert 5 not in adm.snapshot()["retired"]
    assert adm.pending[5] == 0


# ---------------------------------------------------------------------------
# L2: write-behind race — flush vs. abort — and bulk warm-up
# ---------------------------------------------------------------------------
def _analysis(n=48, seed=0):
    from repro.core.config import SolverConfig
    from repro.core.refactorize import analyze

    return analyze(circuit_like(n, 6.0, seed=seed), SolverConfig())


def test_l2_flush_writes_waits_out_the_wire():
    l2 = L2Cache(num_nodes=1)
    done = l2.put(0, "k", _analysis(), ready_s=0.0)
    assert done > 0.0
    assert l2.stats()["pending_writes"][0] == 1
    landed = l2.flush_writes(0, now=0.0)
    assert landed == pytest.approx(done)
    assert l2.stats()["pending_writes"][0] == 0
    # nothing pending: flush returns the caller's clock
    assert l2.flush_writes(0, now=9.0) == 9.0


def test_l2_abort_writes_rolls_back_inflight_publishes():
    l2 = L2Cache(num_nodes=2)
    an = _analysis()
    done = l2.put(0, "k", an, ready_s=0.0)
    # crash strictly before the write lands: the entry never made it
    aborted = l2.abort_writes(0, now=done / 2)
    assert aborted == ["k"] and "k" not in l2
    assert l2.ledger.get_count("l2_write_aborts") == 1
    # a key another node's publish already landed survives the crash:
    # node 1's write completes at done1, node 0 re-publishes later and
    # crashes with its own copy still on the wire
    done1 = l2.put(1, "shared", an, ready_s=0.0)
    l2.put(0, "shared", an, ready_s=done1)
    assert l2.abort_writes(0, now=done1) == []
    assert "shared" in l2


def test_l2_warm_fetch_serializes_on_the_link():
    l2 = L2Cache(num_nodes=1)
    a1, a2 = _analysis(seed=1), _analysis(seed=2)
    l2.put(0, "a", a1, ready_s=0.0)
    l2.put(0, "b", a2, ready_s=0.0)
    l2.register_node(9)
    with pytest.raises(ValueError):
        l2.register_node(9)
    fetches = l2.warm_fetch(9, ["a", "missing", "b"], ready_s=1.0)
    hits = [f for f in fetches if f.hit]
    assert [f.key for f in hits] == ["a", "b"]
    assert hits[0].start_s == pytest.approx(1.0)
    assert hits[1].start_s == pytest.approx(hits[0].end_s)  # FIFO
    assert not fetches[1].hit and fetches[1].duration_s == 0.0
    assert l2.ledger.get_count("l2_warm_fetches") == 2
    with pytest.raises(ValueError):
        l2.warm_fetch(3, ["a"], ready_s=0.0)  # no such link


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------
def test_churn_event_and_plan_validation():
    with pytest.raises(ValueError):
        ChurnEvent(t=-1.0, action="join", node_id=2)
    with pytest.raises(ValueError):
        ChurnEvent(t=0.0, action="reboot", node_id=2)
    with pytest.raises(ValueError):
        ChurnEvent(t=0.0, action="join", node_id=-1)
    early = ChurnEvent(t=0.1, action="join", node_id=4)
    late = ChurnEvent(t=0.2, action="leave", node_id=1, graceful=False)
    with pytest.raises(ValueError):
        ChurnPlan(events=(late, early))  # out of clock order
    plan = ChurnPlan.ordered([late, early])
    assert [ev.t for ev in plan] == [0.1, 0.2]
    assert len(plan) == 2
    assert "crash node 1" in plan.describe()


def test_churn_plan_for_trace_pins_to_arrival_window():
    trace = synthesize_trace(
        num_patterns=2, num_requests=10, n=48, seed=0,
        arrival_gap=1e-3,
    )
    window = sum(ev.gap for ev in trace)
    plan = churn_plan_for_trace(
        trace, [("leave", 0, 0.5), ("join", 2, 0.25)]
    )
    assert [ev.action for ev in plan] == ["join", "leave"]  # re-sorted
    assert plan.events[1].t == pytest.approx(0.5 * window)
    with pytest.raises(ValueError):
        churn_plan_for_trace(trace, [("join", 2, 1.5)])


# ---------------------------------------------------------------------------
# fleet: join with warm-up, graceful drain, crash
# ---------------------------------------------------------------------------
def test_fleet_join_warms_l1_from_l2():
    fleet = Fleet(FleetConfig(num_nodes=2))
    for a, b in _events(8, patterns=4):
        fleet.solve(a, b)
    resident = set(fleet.l2.keys())
    assert resident  # write-through published the cold builds
    record = fleet.join_node()
    assert record.action == "join" and record.node_id == 2
    assert record.epoch == fleet.ring.epoch
    assert record.within_bound
    owned = [k for k in resident if fleet.ring.route(k) == 2]
    assert record.warmed_keys == len(owned)
    # the joiner's L1 now holds exactly its owned resident arcs …
    node = fleet.nodes[2]
    assert set(node.scheduler.cache.keys()) == set(owned)
    if owned:
        assert record.warmed_bytes > 0 and record.warm_seconds > 0
    # … and rejoining the same id is a typed error
    with pytest.raises(RingMembershipError):
        fleet.join_node(2)
    # post-join traffic still matches the single-service ground truth
    tail = _events(6, seed=3, patterns=3)
    for a, b in tail:
        fleet.solve(a, b)
    service = SolverService(fleet.config.serve)
    for (a, b), resp in zip(tail, fleet.responses()[-6:]):
        ref = service.solve(a, b)
        assert resp.ok and np.array_equal(resp.x, ref.x)
    service.shutdown()
    fleet.shutdown()


def test_fleet_graceful_leave_drains_and_publishes():
    fleet = Fleet(FleetConfig(num_nodes=2))
    # detach the write-through hooks: the L2 only learns what the leaver
    # publishes
    for node in fleet.nodes.values():
        node.scheduler.on_install = None
    events = _events(6, patterns=2)
    home = fleet.route_of(events[0][0])
    for a, b in events:
        fleet.submit(a, b)  # queued, not yet flushed
    assert fleet.pending == len(events)
    warm = len(fleet.nodes[home].scheduler.cache.keys())
    assert warm == 0  # nothing solved yet
    record = fleet.leave_node(home)
    assert record.action == "leave"
    assert record.drained == sum(
        1 for r in fleet.responses() if r.node_id == home
    )
    assert record.drained > 0 and record.lost == 0
    assert record.published_keys == len(
        [k for k in fleet.l2.keys()]
    ) > 0
    assert fleet.l2.stats()["pending_writes"] == {
        i: 0 for i in fleet.l2.stats()["pending_writes"]
    }  # flush_writes cleared the wire
    assert home not in fleet.nodes
    assert home not in fleet.ring.nodes
    # every drained response is ok and the rest of the trace completes
    fleet.flush()
    assert all(r.ok for r in fleet.responses())
    assert fleet.stats()["admission"]["retired"][home]
    fleet.shutdown()


def test_fleet_crash_sheds_inflight_as_lost():
    fleet = Fleet(FleetConfig(num_nodes=3))
    events = _events(9, patterns=3)
    home = fleet.route_of(events[0][0])
    mine = [
        i for i, (a, _) in enumerate(events)
        if fleet.route_of(a) == home
    ]
    assert mine
    for a, b in events:
        fleet.submit(a, b)
    with pytest.raises(NodeLostError) as exc:
        fleet.leave_node(home, graceful=False)
    err = exc.value
    assert err.node_id == home and err.lost_indices == mine
    assert err.record is not None and err.record.action == "crash"
    assert err.record.lost == len(mine)
    assert err.record in fleet.churn_log
    for i in mine:
        resp = fleet.result(i)
        assert resp is not None and resp.lost
        assert resp.status == "lost" and resp.served == "none"
        assert resp.error and f"node {home}" in resp.error
    # the survivors' queued work still completes
    fleet.flush()
    others = [r for r in fleet.responses() if not r.lost]
    assert others and all(r.ok for r in others)
    # crashing a node that is not in the fleet is a typed error
    with pytest.raises(RingMembershipError):
        fleet.leave_node(home, graceful=False)
    fleet.shutdown()


def test_fleet_apply_churn_absorbs_crash():
    fleet = Fleet(FleetConfig(num_nodes=2))
    events = _events(4, patterns=1)
    home = fleet.route_of(events[0][0])
    for a, b in events:
        fleet.submit(a, b)
    record = fleet.apply_churn(
        ChurnEvent(t=0.0, action="leave", node_id=home, graceful=False)
    )
    assert record.action == "crash" and record.lost == len(events)
    assert len(fleet.churn_log) == 1
    fleet.shutdown()


# ---------------------------------------------------------------------------
# shutdown vs. the write-behind race (satellite: drain semantics)
# ---------------------------------------------------------------------------
def test_shutdown_drain_lands_every_queued_publish():
    fleet = Fleet(FleetConfig(num_nodes=2))
    for a, b in _events(6, patterns=3):
        fleet.solve(a, b)
    published = set(fleet.l2.keys())
    assert len(published) == 3  # one publish per cold build
    pending = fleet.l2.stats()["pending_writes"]
    assert sum(pending.values()) > 0  # publishes still on the wire
    fleet.shutdown(drain=True)
    # drain stalls each node past its last publish: all landed, none
    # rolled back
    assert set(fleet.l2.keys()) == published
    assert sum(fleet.l2.stats()["pending_writes"].values()) == 0
    assert fleet.l2.ledger.get_count("l2_write_aborts") == 0


def test_shutdown_discard_rolls_publishes_back(monkeypatch):
    # a glacial link keeps the publishes in flight past the replay
    from repro.gpusim.interconnect import LinkSpec

    slow = LinkSpec(name="dialup", bandwidth=1e3, latency=0.0)
    monkeypatch.setattr("repro.fleet.l2cache.L2_LINK", slow)
    fleet = Fleet(FleetConfig(num_nodes=2))
    for a, b in _events(4, patterns=2):
        fleet.solve(a, b)
    assert len(fleet.l2) == 2
    assert sum(fleet.l2.stats()["pending_writes"].values()) > 0
    fleet.shutdown(drain=False)
    # the discard is clean: in-flight publishes are gone from the store
    assert len(fleet.l2) == 0
    assert fleet.l2.ledger.get_count("l2_write_aborts") == 2
    assert sum(fleet.l2.stats()["pending_writes"].values()) == 0


# ---------------------------------------------------------------------------
# churn-annotated replay: differential + report rollup
# ---------------------------------------------------------------------------
def test_churned_replay_stays_bitwise_identical():
    trace, plan = synthesize_churn_trace(
        churn=[("join", 2, 0.3), ("leave", 0, 0.7)],
        num_patterns=3, num_requests=18, n=64, seed=0,
    )
    cfg = FleetConfig(num_nodes=2)
    service = SolverService(cfg.serve)
    reference = {
        r.request_id: r.x for r in replay(service, trace, flush_every=4)
    }
    service.shutdown()
    report = run_fleet_load(trace, cfg, flush_every=4, churn=plan)
    assert report.shed == 0 and report.lost == 0
    assert report.completed == len(trace)
    assert [r.action for r in report.churn_records] == ["join", "leave"]
    assert all(r.within_bound for r in report.churn_records)
    assert all(
        0 <= r.applied_at_index <= len(trace)
        for r in report.churn_records
    )
    for resp in report.responses:
        assert resp.ok
        assert np.array_equal(resp.x, reference[resp.index])
    rec = report.perf_record()
    assert rec["counters"]["churn_events"] == 2
    assert rec["counters"]["nodes_retired"] == 1
    assert rec["labels"]["breaker_node0"] == "retired"
    assert rec["labels"]["breaker_node2"] == "closed"
    assert "breaker_last_transition_s" in rec["timings"]


def test_replay_applies_trailing_events_after_trace():
    fleet = Fleet(FleetConfig(num_nodes=2))
    trace = synthesize_trace(
        num_patterns=2, num_requests=6, n=48, seed=0,
        arrival_gap=1e-4,
    )
    window = sum(ev.gap for ev in trace)
    plan = ChurnPlan((
        ChurnEvent(t=window * 10, action="join", node_id=2),
    ))
    responses = replay_fleet(fleet, trace, flush_every=3, churn=plan)
    assert all(r.ok for r in responses)
    assert len(fleet.churn_log) == 1
    assert fleet.churn_log[0].applied_at_index == len(trace)
    assert 2 in fleet.nodes
    fleet.shutdown()


# ---------------------------------------------------------------------------
# seed stability (satellite: the no-churn path is untouched)
# ---------------------------------------------------------------------------
def _trace_digest(trace) -> str:
    h = hashlib.blake2b(digest_size=16)
    for ev in trace:
        h.update(np.int64(ev.pattern_id).tobytes())
        h.update(np.float64(ev.gap).tobytes())
        h.update(np.asarray(ev.a.indptr, dtype="<i8").tobytes())
        h.update(np.asarray(ev.a.indices, dtype="<i8").tobytes())
        h.update(np.asarray(ev.a.data, dtype="<f8").tobytes())
        h.update(np.asarray(ev.b, dtype="<f8").tobytes())
    return h.hexdigest()


def test_churn_trace_synthesis_is_byte_stable():
    kw = dict(
        churn=[("join", 4, 0.25), ("leave", 1, 0.75, False)],
        num_patterns=3, num_requests=16, n=64, seed=11,
    )
    t1, p1 = synthesize_churn_trace(**kw)
    t2, p2 = synthesize_churn_trace(**kw)
    assert _trace_digest(t1) == _trace_digest(t2)
    assert p1 == p2
    with pytest.raises(ValueError):
        synthesize_churn_trace(churn=[], arrival_gap=0.0)


def test_no_churn_trace_bytes_unchanged_from_pr6():
    """The uniform (no-churn) synthesis path must not drift: this
    digest was captured on the pre-churn code."""
    trace = synthesize_trace(
        num_patterns=3, num_requests=24, n=64, seed=0
    )
    assert _trace_digest(trace) == "2a70f4e0641111474f60d232bfc648be"


# ---------------------------------------------------------------------------
# the drill itself (smoke) — end-to-end gate
# ---------------------------------------------------------------------------
def test_churn_drill_smoke_passes_all_gates():
    from repro.bench.churn import run_churn_drill

    report = run_churn_drill(smoke=True, seed=0)
    verdicts = report.verdicts()
    assert report.passed
    assert verdicts["remap_ok"] and all(
        ev.within_bound for ev in report.events
    )
    assert verdicts["bitwise_ok"] and report.mismatches == 0
    assert report.checked == report.completed
    assert report.lost > 0  # the scripted crash found work in flight
    assert report.deterministic
    assert verdicts["recovery_ok"]
    assert report.recovery_ratio <= 1.5
    text = str(report)
    assert text.splitlines()[-1] == "  verdict: PASS"
    rec = report.perf_record()
    assert rec["labels"]["passed"] == "true"
    assert rec["counters"]["bitwise_mismatches"] == 0


def test_recovery_gate_compares_against_the_warm_pre_churn_tail():
    """A cold first flush pays a full analysis: it is warm-up, not the
    steady state, so it must not inflate the pre-churn p99 that a
    doubled post-churn tail is measured against."""
    from repro.bench.churn import ChurnDrillReport, _percentile_split

    def ok(index, served, latency):
        return FleetResponse(
            index=index, node_id=0, key="k", status="ok", served=served,
            response=SolveResponse(index, "ok", latency=latency),
        )

    responses = (
        [ok(0, "cold", 5e-3)]
        + [ok(i, "l1", 1e-3) for i in range(1, 10)]
        + [ok(i, "l1", 2e-3) for i in range(10, 20)]
    )
    fleet_report = FleetReport(
        num_nodes=1, requests=20, admitted=20, completed=20, shed=0,
        errors=0, timeouts=0, rerouted=0, served_l1=19, served_l2=0,
        served_cold=1, l2_hits=0, l2_misses=0, makespan_seconds=0.04,
        latency_p50=2e-3, latency_p99=5e-3, responses=responses,
    )
    pre, post = _percentile_split(fleet_report, 10, 10)
    assert (pre, post) == (1e-3, 2e-3)
    drill = ChurnDrillReport(
        nodes_initial=1, requests=20, completed=20, shed=0, lost=0,
        checked=20, mismatches=0, pre_p99=pre, post_p99=post,
        makespan_seconds=0.04, deterministic=True,
    )
    assert drill.recovery_ratio == pytest.approx(2.0)
    assert not drill.verdicts()["recovery_ok"]
