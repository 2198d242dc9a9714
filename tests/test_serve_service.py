"""Service facade: correctness, shutdown/drain, stats, load replay."""

import numpy as np
import pytest

from repro import factorize
from repro.core import SolverConfig
from repro.errors import ServiceShutdownError
from repro.gpusim import scaled_device, scaled_host
from repro.serve import (
    ServeConfig,
    SolverService,
    format_metrics,
    replay,
    run_load,
    synthesize_trace,
)
from repro.serve.loadgen import restamp
from repro.sparse import residual_norm
from repro.workloads import circuit_like


def solver_cfg(mem=8 << 20):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem))


def service(**kw):
    kw.setdefault("solver", solver_cfg())
    return SolverService(ServeConfig(**kw))


@pytest.fixture
def pattern():
    return circuit_like(120, 6.0, seed=41)


@pytest.fixture
def rhs():
    return np.random.default_rng(1).normal(size=120)


class TestSolveCorrectness:
    def test_served_solution_matches_direct_factorization(
        self, pattern, rhs
    ):
        svc = service()
        a = restamp(pattern, 5)
        resp = svc.solve(a, rhs)
        assert resp.ok
        direct = factorize(a, solver_cfg()).solve(rhs)
        np.testing.assert_allclose(resp.x, direct, rtol=1e-9, atol=1e-12)
        assert residual_norm(a, resp.x, rhs) < 1e-10

    def test_warm_solves_stay_accurate(self, pattern, rhs):
        svc = service()
        for seed in range(3):
            a = restamp(pattern, seed)
            resp = svc.solve(a, rhs)
            assert residual_norm(a, resp.x, rhs) < 1e-10

    def test_result_lookup_by_id(self, pattern, rhs):
        svc = service()
        rid = svc.submit(restamp(pattern, 1), rhs)
        assert svc.result(rid) is None  # not yet flushed
        svc.flush()
        assert svc.result(rid).ok
        assert svc.result(rid + 1000) is None


class TestShutdown:
    def test_shutdown_drains_queued_requests(self, pattern, rhs):
        svc = service()
        ids = [svc.submit(restamp(pattern, s), rhs) for s in range(3)]
        responses = svc.shutdown()
        assert [r.request_id for r in responses] == ids
        assert all(r.ok for r in responses)
        assert svc.pending == 0 and svc.closed

    def test_submit_and_flush_refused_after_shutdown(self, pattern, rhs):
        svc = service()
        svc.shutdown()
        with pytest.raises(ServiceShutdownError):
            svc.submit(pattern, rhs)
        with pytest.raises(ServiceShutdownError):
            svc.flush()

    def test_shutdown_without_drain_discards(self, pattern, rhs):
        svc = service()
        svc.submit(restamp(pattern, 1), rhs)
        svc.submit(restamp(pattern, 2), rhs)
        assert svc.shutdown(drain=False) == []
        assert svc.metrics.get_count("discarded") == 2
        assert svc.metrics.get_count("completed") == 0

    def test_shutdown_idempotent(self, pattern, rhs):
        svc = service()
        svc.submit(restamp(pattern, 1), rhs)
        assert len(svc.shutdown()) == 1
        assert svc.shutdown() == []

    def test_context_manager_shuts_down(self, pattern, rhs):
        with service() as svc:
            svc.submit(restamp(pattern, 1), rhs)
        assert svc.closed
        assert svc.metrics.get_count("completed") == 1


class TestStats:
    def test_stats_schema(self, pattern, rhs):
        svc = service(num_devices=2)
        svc.solve(restamp(pattern, 1), rhs)
        st = svc.stats()
        assert st["counters"]["completed"] == 1
        assert st["cache"]["entries"] == 1
        assert len(st["devices"]) == 2
        assert st["queue_depth"] == 0
        assert st["clock"] > 0
        assert not st["closed"]
        assert {"analysis", "numeric", "solve"} <= set(st["phase_seconds"])
        lat = st["histograms"]["latency"]
        assert lat["count"] == 1 and lat["p50"] == pytest.approx(lat["p99"])

    def test_format_stats_renders_all_sections(self, pattern, rhs):
        svc = service()
        svc.solve(restamp(pattern, 1), rhs)
        text = svc.format_stats()
        for needle in ("counters:", "histograms", "analysis cache:",
                       "devices:", "completed", "hit_rate"):
            assert needle in text
        assert format_metrics({}) == ""

    def test_clock_rejects_backward_tick(self):
        svc = service()
        with pytest.raises(ValueError):
            svc.tick(-1.0)


class TestLoadReplay:
    def test_repeated_pattern_trace_hits_and_speeds_up(self):
        trace = synthesize_trace(
            num_patterns=2, num_requests=24, n=120, seed=3
        )
        # flush_every=2 keeps the cold warm-up to one request per pattern
        report = run_load(
            trace, ServeConfig(solver=solver_cfg()), flush_every=2
        )
        assert report.completed == 24
        assert report.timeouts == 0 and report.errors == 0
        assert report.hit_rate > 0.9
        assert report.speedup >= 3.0
        assert report.latency_p99 >= report.latency_p50 > 0
        assert report.throughput > 0
        # every response solves its own request's system
        for resp in report.responses[:6]:
            ev = trace[resp.request_id]
            assert residual_norm(ev.a, resp.x, ev.b) < 1e-10

    def test_no_cache_baseline_has_zero_hits(self):
        trace = synthesize_trace(
            num_patterns=2, num_requests=8, n=120, seed=3
        )
        report = run_load(
            trace,
            ServeConfig(solver=solver_cfg(), cache_capacity_bytes=0),
            flush_every=4,
        )
        assert report.hit_rate == 0.0
        assert report.completed == 8

    def test_replay_survives_backpressure(self, pattern, rhs):
        svc = service(max_queue_depth=2)
        trace = synthesize_trace(
            num_patterns=1, num_requests=6, n=120, seed=5
        )
        # flush_every larger than the queue: replay must flush on reject
        responses = replay(svc, trace, flush_every=10)
        assert len(responses) == 6
        assert all(r.ok for r in responses)
        assert svc.metrics.get_count("rejected") >= 1

    def test_trace_duplicates_exercise_coalescing(self):
        trace = synthesize_trace(
            num_patterns=1, num_requests=30, n=100, seed=7,
            duplicate_fraction=1.0,
        )
        # with duplicate_fraction=1 every request after the first reuses
        # the previous stamp, so each batch coalesces
        svc = service()
        replay(svc, trace, flush_every=5)
        svc.shutdown()
        assert svc.metrics.get_count("coalesced") > 0

    def test_arrival_gaps_advance_the_clock(self):
        trace = synthesize_trace(
            num_patterns=1, num_requests=3, n=100, seed=9,
            arrival_gap=0.5,
        )
        svc = service()
        replay(svc, trace, flush_every=1)
        assert svc.clock >= 1.5
