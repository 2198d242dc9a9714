"""Fleet tier of incremental re-analysis: family-staged donor splicing."""

import dataclasses

import numpy as np
import pytest

from repro.fleet import FleetConfig
from repro.fleet.loadgen import run_fleet_load
from repro.serve import (
    ServeConfig,
    SolverService,
    replay,
    synthesize_drift_trace,
)

pytestmark = [pytest.mark.fleet, pytest.mark.drift]


def _drift_trace(seed=0, n=160, requests=32, families=4):
    """More families than nodes so several land away from their donors
    and must stage over the L2 link."""
    return synthesize_drift_trace(
        num_families=families,
        num_requests=requests,
        n=n,
        seed=seed,
        matrix_class="fem",
    )


@pytest.fixture(scope="module")
def fleet_run():
    trace = _drift_trace()
    report = run_fleet_load(
        trace, FleetConfig(num_nodes=3), flush_every=6
    )
    return trace, report


class TestFleetDeltaTiers:
    def test_delta_tiers_served(self, fleet_run):
        _, report = fleet_run
        assert report.shed == 0 and report.errors == 0
        assert report.served_delta + report.served_l2_delta > 0
        tiers = {r.served for r in report.responses if r.ok}
        assert tiers <= {"l1", "l2", "cold", "delta", "l2-delta"}

    def test_delta_responses_flagged_incremental(self, fleet_run):
        _, report = fleet_run
        for resp in report.responses:
            if resp.served in ("delta", "l2-delta"):
                assert resp.response is not None
                assert resp.response.incremental
            elif resp.ok and resp.response is not None:
                assert not resp.response.incremental

    def test_bitwise_identical_to_single_service(self, fleet_run):
        trace, report = fleet_run
        service = SolverService(ServeConfig())
        reference = {
            r.request_id: r for r in replay(service, trace, flush_every=6)
        }
        service.shutdown()
        assert report.completed == len(trace)
        for resp in report.responses:
            assert resp.ok
            ref = reference[resp.index]
            assert ref.status == "ok"
            np.testing.assert_array_equal(resp.response.x, ref.x)

    def test_l2_family_probe_counters(self, fleet_run):
        """Every ``l2-delta`` response traces back to at least one
        family-staging fetch (one fetch can feed several coalesced
        requests, so hits need not match the response count)."""
        _, report = fleet_run
        l2 = report.stats["l2"]
        if report.served_l2_delta:
            assert l2["family_hits"] > 0
        assert l2["family_misses"] >= 0

    def test_rerun_deterministic(self, fleet_run):
        trace, report = fleet_run
        again = run_fleet_load(
            _drift_trace(), FleetConfig(num_nodes=3), flush_every=6
        )
        assert again.served_delta == report.served_delta
        assert again.served_l2_delta == report.served_l2_delta
        for a, b in zip(report.responses, again.responses):
            assert a.served == b.served
            np.testing.assert_array_equal(a.response.x, b.response.x)


class TestFleetDeltaDisabled:
    def test_disabled_policy_serves_no_delta_tiers(self):
        trace = _drift_trace()
        cfg = FleetConfig(
            num_nodes=3,
            serve=ServeConfig(incremental=False),
        )
        report = run_fleet_load(trace, cfg, flush_every=6)
        assert report.served_delta == 0
        assert report.served_l2_delta == 0
        assert report.stats["l2"]["family_hits"] == 0

    def test_unhinted_trace_serves_no_delta_tiers(self):
        trace = [
            dataclasses.replace(event, family=None)
            for event in _drift_trace()
        ]
        report = run_fleet_load(
            trace, FleetConfig(num_nodes=3), flush_every=6
        )
        assert report.served_delta == 0
        assert report.served_l2_delta == 0
