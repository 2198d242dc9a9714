"""Unit tests on the fleet building blocks: L2 cache, admission, fleet.

The differential harness (test_fleet_differential) locks the numerics;
these tests lock the *model*: link-charged L2 fetch timing, write-behind
publishes, bounded-queue shedding, node breakers tripping on error
responses and rerouting along the ring preference order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.refactorize import analyze
from repro.fleet import (
    AdmissionController,
    Fleet,
    FleetConfig,
    L2Cache,
    ShedError,
)
from repro.fleet.fleet import fleet_config_with_node_devices
from repro.gpusim import FaultPlan
from repro.gpusim.interconnect import NVLINK2
from repro.serve import BreakerConfig, ServeConfig
from repro.serve.loadgen import restamp
from repro.workloads import circuit_like

pytestmark = pytest.mark.fleet


def _analysis(n=48, seed=0):
    return analyze(circuit_like(n, 6.0, seed=seed), SolverConfig())


def _node_breaker(monkeypatch, **kw):
    """Give every node breaker built from now on these knobs."""
    monkeypatch.setattr(
        "repro.fleet.admission.NODE_BREAKER", BreakerConfig(**kw)
    )


# ---------------------------------------------------------------------------
# L2 cache: storage + link model
# ---------------------------------------------------------------------------
def test_l2_fetch_charges_link_time(monkeypatch):
    monkeypatch.setattr("repro.fleet.l2cache.L2_LINK", NVLINK2)
    l2 = L2Cache(num_nodes=2)
    an = _analysis()
    done = l2.put(0, "k", an, ready_s=0.0)
    expect = NVLINK2.transfer_seconds(an.nbytes)
    assert done == pytest.approx(expect)

    fetch = l2.fetch(1, "k", ready_s=1.0)
    assert fetch.hit and fetch.analysis is an
    assert fetch.start_s == pytest.approx(1.0)  # node 1's link is idle
    assert fetch.duration_s == pytest.approx(expect)
    assert l2.ledger.get_count("l2_hits") == 1
    assert l2.ledger.get_count("bytes_l2_fetch") == an.nbytes
    assert l2.stats()["links"][1]["busy_seconds"] == pytest.approx(expect)


def test_l2_link_is_fifo_per_node():
    """Two same-instant fetches on one node's link queue back-to-back;
    another node's link is independent — and write-behind publishes
    occupy the publisher's FIFO so its own later fetches queue."""
    l2 = L2Cache(num_nodes=2)
    a1, a2 = _analysis(seed=1), _analysis(seed=2)
    pub_done = l2.put(1, "a", a1, ready_s=0.0)
    l2.put(1, "b", a2, ready_s=0.0)
    f1 = l2.fetch(0, "a", ready_s=0.0)
    f2 = l2.fetch(0, "b", ready_s=0.0)
    assert f1.start_s == pytest.approx(0.0)  # node 0's link was idle
    assert f2.start_s == pytest.approx(f1.end_s)
    # node 1's link is still draining its two publishes
    f3 = l2.fetch(1, "a", ready_s=0.0)
    assert f3.start_s >= pub_done


def test_l2_miss_is_free_and_counted():
    l2 = L2Cache(num_nodes=1)
    fetch = l2.fetch(0, "nope", ready_s=2.0)
    assert not fetch.hit
    assert fetch.duration_s == 0.0
    assert l2.ledger.get_count("l2_misses") == 1
    assert l2.stats()["links"][0]["ops"] == 0


def test_l2_validation():
    with pytest.raises(ValueError):
        L2Cache(num_nodes=0)
    l2 = L2Cache(num_nodes=1)
    with pytest.raises(ValueError):
        l2.fetch(5, "k", 0.0)


# ---------------------------------------------------------------------------
# admission controller
# ---------------------------------------------------------------------------
def test_admission_bounded_queue_sheds():
    adm = AdmissionController(2, max_pending_per_node=2)
    adm.admit(0)
    adm.admit(0)
    with pytest.raises(ShedError) as exc:
        adm.admit(0)
    assert exc.value.reason == "queue_full"
    assert exc.value.node_id == 0
    assert adm.sheds == 1 and adm.shed_by_node == {0: 1, 1: 0}
    adm.release(0, 2)
    adm.admit(0)  # slots returned after a flush
    assert adm.pending == {0: 1, 1: 0}


def test_admission_select_walks_preference_on_open_breaker(monkeypatch):
    _node_breaker(monkeypatch, failure_threshold=1, cooldown_s=10.0)
    adm = AdmissionController(3, max_pending_per_node=32)
    assert adm.select([1, 2, 0], now=0.0) == 1
    adm.record_result(1, ok=False, now=0.0)  # trips node 1 open
    assert adm.select([1, 2, 0], now=0.0) == 2
    assert adm.reroutes == 1
    adm.record_result(2, ok=False, now=0.0)
    adm.record_result(0, ok=False, now=0.0)
    with pytest.raises(ShedError) as exc:
        adm.select([1, 2, 0], now=0.0)
    assert exc.value.reason == "no_healthy_node"


def test_admission_validation():
    with pytest.raises(ValueError):
        AdmissionController(0, max_pending_per_node=32)
    with pytest.raises(ValueError):
        FleetConfig(max_pending_per_node=0)


# ---------------------------------------------------------------------------
# fleet behaviour
# ---------------------------------------------------------------------------
def _one_pattern_trace(count, n=48, seed=0):
    base = circuit_like(n, 6.0, seed=seed)
    rng = np.random.default_rng(seed)
    return [
        (restamp(base, seed=seed + i), rng.normal(size=n))
        for i in range(count)
    ]


def test_fleet_sheds_record_responses_and_raise():
    cfg = FleetConfig(num_nodes=1, max_pending_per_node=1)
    with Fleet(cfg) as fleet:
        events = _one_pattern_trace(3)
        fleet.submit(events[0][0], events[0][1])
        with pytest.raises(ShedError) as exc:
            fleet.submit(events[1][0], events[1][1])
        shed = fleet.result(exc.value.index)
        assert shed is not None and shed.shed
        assert shed.served == "none" and shed.response is None
        fleet.flush()
        ok = fleet.submit(events[2][0], events[2][1])  # slot freed
        fleet.flush()
        assert fleet.result(ok).ok
        report = fleet.responses()
        assert [r.status for r in report] == ["ok", "shed", "ok"]


def test_fleet_reroutes_around_error_node(monkeypatch):
    """A node returning only errors trips its breaker; traffic homed on
    it walks to the ring successor and completes there."""
    _node_breaker(monkeypatch, failure_threshold=2, cooldown_s=1e9)
    cfg = FleetConfig(num_nodes=2)
    events = _one_pattern_trace(8)
    home = Fleet(cfg).route_of(events[0][0])
    overrides = fleet_config_with_node_devices(
        cfg, {home: {0: FaultPlan(kernel_fault_rate=1.0)}}
    )
    overrides[home] = dataclasses.replace(
        overrides[home], cpu_fallback=False
    )
    fleet = Fleet(cfg, node_overrides=overrides)
    for a, b in events:
        fleet.solve(a, b)
    responses = fleet.responses()
    errored = [r for r in responses if r.status == "error"]
    rerouted = [r for r in responses if r.rerouted]
    assert errored and all(r.node_id == home for r in errored)
    assert rerouted, "breaker never redirected traffic"
    assert all(r.node_id != home for r in rerouted)
    assert all(r.ok for r in rerouted)
    snap = fleet.stats()["admission"]
    assert snap["breakers"][home]["state"] == "open"
    assert snap["reroutes"] == len(rerouted)
    fleet.shutdown()


def test_fleet_all_nodes_down_sheds_no_healthy_node(monkeypatch):
    _node_breaker(monkeypatch, failure_threshold=1, cooldown_s=1e9)
    cfg = FleetConfig(num_nodes=2)
    plans = {
        i: {0: FaultPlan(kernel_fault_rate=1.0)} for i in range(2)
    }
    overrides = fleet_config_with_node_devices(cfg, plans)
    for node_id, sc in overrides.items():
        overrides[node_id] = dataclasses.replace(
            sc, cpu_fallback=False
        )
    fleet = Fleet(cfg, node_overrides=overrides)
    events = _one_pattern_trace(6, seed=1)
    seen_shed = None
    for a, b in events:
        try:
            fleet.solve(a, b)
        except ShedError as exc:
            seen_shed = exc
    assert seen_shed is not None
    assert seen_shed.reason == "no_healthy_node"
    statuses = {r.status for r in fleet.responses()}
    assert statuses == {"error", "shed"}
    fleet.shutdown()


def test_fleet_lifecycle_and_validation():
    with pytest.raises(ValueError):
        FleetConfig(num_nodes=0)
    with pytest.raises(ValueError):
        Fleet(FleetConfig(num_nodes=1),
              node_overrides={3: ServeConfig()})
    fleet = Fleet(FleetConfig(num_nodes=2))
    with pytest.raises(ValueError):
        fleet.tick(-1.0)
    fleet.tick(0.5)
    assert fleet.clock == pytest.approx(0.5)
    fleet.shutdown()
    from repro.errors import ServiceShutdownError

    with pytest.raises(ServiceShutdownError):
        fleet.flush()
    assert fleet.shutdown() == []  # idempotent


def test_fleet_stats_shape():
    fleet = Fleet(FleetConfig(num_nodes=3))
    a, b = _one_pattern_trace(1)[0]
    fleet.solve(a, b)
    snap = fleet.stats()
    assert snap["num_nodes"] == 3
    assert snap["ring"]["nodes"] == [0, 1, 2]
    assert len(snap["nodes"]) == 3
    assert {"pending", "admitted", "sheds", "breakers"} <= set(
        snap["admission"]
    )
    assert snap["l2"]["writes"] >= 1  # cold build published
    assert snap["makespan_seconds"] > 0
    fleet.shutdown()
