"""Scheduler semantics: batching, backpressure, deadlines, retry path."""

import numpy as np
import pytest

from repro.core import SolverConfig, analyze
from repro.errors import QueueFullError
from repro.gpusim import scaled_device, scaled_host
from repro.serve import ServeConfig, SolverService, pattern_key
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
    return circuit_like(120, 6.0, seed=11)


@pytest.fixture
def rhs():
    return np.random.default_rng(0).normal(size=120)


class TestPatternBatching:
    def test_same_pattern_coalesces_into_one_batch(self, pattern, rhs):
        svc = service()
        for seed in range(4):
            svc.submit(restamp(pattern, seed), rhs)
        responses = svc.flush()
        assert [r.batch_size for r in responses] == [4] * 4
        # one analysis for the whole batch: one miss, zero further misses
        assert svc.cache.stats()["misses"] == 1
        assert svc.metrics.get_count("cache_misses") == 1

    def test_identical_values_share_refactorization(self, pattern, rhs):
        svc = service()
        a = restamp(pattern, 1)
        svc.submit(a, rhs)
        svc.submit(a, 2 * rhs)  # same values, different rhs
        r0, r1 = svc.flush()
        assert not r0.coalesced and r1.coalesced
        assert svc.metrics.get_count("coalesced") == 1
        # both solves are correct despite the shared factorization
        assert residual_norm(a, r0.x, rhs) < 1e-10
        assert residual_norm(a, r1.x, 2 * rhs) < 1e-10

    def test_distinct_patterns_form_distinct_batches(self, rhs):
        svc = service()
        a = circuit_like(120, 6.0, seed=21)
        b = circuit_like(120, 6.0, seed=22)
        svc.submit(a, rhs)
        svc.submit(b, rhs)
        responses = svc.flush()
        assert [r.batch_size for r in responses] == [1, 1]
        assert svc.metrics.get_count("cache_misses") == 2

    def test_repeat_traffic_hits_cache(self, pattern, rhs):
        svc = service()
        svc.solve(restamp(pattern, 1), rhs)
        resp = svc.solve(restamp(pattern, 2), rhs)
        assert resp.cache_hit
        assert svc.cache.stats()["hits"] == 1

    def test_pattern_affinity_across_devices(self, rhs):
        svc = service(num_devices=2)
        a = circuit_like(120, 6.0, seed=31)
        b = circuit_like(120, 6.0, seed=32)
        first = {"a": svc.solve(restamp(a, 1), rhs).device_id,
                 "b": svc.solve(restamp(b, 1), rhs).device_id}
        # both devices got one pattern each (cold dispatch is least-loaded)
        assert sorted(first.values()) == [0, 1]
        # warm traffic sticks to the pattern's analyzing device
        assert svc.solve(restamp(a, 2), rhs).device_id == first["a"]
        assert svc.solve(restamp(b, 2), rhs).device_id == first["b"]


class TestBackpressure:
    def test_queue_full_rejects_submit(self, pattern, rhs):
        svc = service(max_queue_depth=2)
        svc.submit(restamp(pattern, 1), rhs)
        svc.submit(restamp(pattern, 2), rhs)
        with pytest.raises(QueueFullError) as ei:
            svc.submit(restamp(pattern, 3), rhs)
        assert ei.value.depth == 2 and ei.value.capacity == 2
        assert svc.pending == 2  # rejected submit did not enqueue
        assert svc.metrics.get_count("rejected") == 1
        # draining reopens the queue
        assert len(svc.flush()) == 2
        svc.submit(restamp(pattern, 3), rhs)
        assert svc.pending == 1

    def test_rejected_request_gets_no_id(self, pattern, rhs):
        svc = service(max_queue_depth=1)
        rid = svc.submit(restamp(pattern, 1), rhs)
        with pytest.raises(QueueFullError):
            svc.submit(restamp(pattern, 2), rhs)
        svc.flush()
        # ids stay dense: the next accepted submit reuses the slot
        assert svc.submit(restamp(pattern, 3), rhs) == rid + 1

    def test_rhs_shape_validated_at_submit(self, pattern):
        svc = service()
        with pytest.raises(ValueError):
            svc.submit(pattern, np.ones(7))


class TestDeadlines:
    def test_timeout_reported_not_raised(self, pattern, rhs):
        svc = service()
        resp = svc.solve(restamp(pattern, 1), rhs, timeout=1e-12)
        assert resp.status == "timeout" and resp.x is None
        assert svc.metrics.get_count("timeouts") == 1

    def test_past_deadline_requests_are_shed(self, pattern, rhs):
        svc = service()
        svc.solve(restamp(pattern, 1), rhs)  # warm the cache
        numeric_before = svc.metrics.phase_seconds["numeric"]
        # the device is busy until the first solve's finish; a deadline
        # before "now" can never start
        svc.tick(1.0)
        resp = svc.solve(restamp(pattern, 2), rhs, deadline=0.5)
        assert resp.status == "timeout"
        assert svc.metrics.get_count("shed") == 1
        # shed requests consume no numeric work
        assert svc.metrics.phase_seconds["numeric"] == numeric_before

    def test_generous_deadline_completes(self, pattern, rhs):
        svc = service()
        resp = svc.solve(restamp(pattern, 1), rhs, timeout=1e6)
        assert resp.ok

    def test_deadline_and_timeout_are_exclusive(self, pattern, rhs):
        svc = service()
        with pytest.raises(ValueError):
            svc.submit(pattern, rhs, deadline=1.0, timeout=1.0)

    def test_raise_for_status(self, pattern, rhs):
        from repro.errors import DeadlineExceededError

        svc = service()
        late = svc.solve(restamp(pattern, 1), rhs, timeout=1e-12)
        with pytest.raises(DeadlineExceededError) as ei:
            late.raise_for_status()
        assert ei.value.request_id == late.request_id
        ok = svc.solve(restamp(pattern, 2), rhs)
        assert ok.raise_for_status() is ok


class TestRetryOnBadEntry:
    def test_poisoned_entry_invalidated_and_retried(self, pattern, rhs):
        svc = service()
        a = restamp(pattern, 1)
        # poison: an analysis of a *different* pattern under a's key
        other = circuit_like(120, 6.0, seed=99)
        svc.cache.put(pattern_key(a), analyze(other, solver_cfg()))
        resp = svc.solve(a, rhs)
        assert resp.ok and resp.retried
        assert residual_norm(a, resp.x, rhs) < 1e-10
        assert svc.metrics.get_count("retries") == 1
        assert svc.cache.stats()["invalidations"] == 1
        # the rebuilt entry is sane: the next solve hits and needs no retry
        again = svc.solve(restamp(pattern, 2), rhs)
        assert again.ok and again.cache_hit and not again.retried

    def test_eviction_between_submit_and_dispatch_counted(self, pattern, rhs):
        svc = service()
        svc.solve(restamp(pattern, 1), rhs)  # resident now
        svc.submit(restamp(pattern, 2), rhs)
        svc.cache.clear()  # evicted while queued
        resp = svc.flush()[0]
        assert resp.ok and not resp.cache_hit
        assert svc.metrics.get_count("evicted_before_dispatch") == 1


class TestSimulatedTimeline:
    def test_latency_and_finish_are_consistent(self, pattern, rhs):
        svc = service()
        svc.tick(0.25)
        resp = svc.solve(restamp(pattern, 1), rhs)
        assert resp.finish > 0.25
        assert resp.latency == pytest.approx(resp.finish - 0.25)

    def test_device_timeline_advances_monotonically(self, pattern, rhs):
        svc = service()
        finishes = [svc.solve(restamp(pattern, s), rhs).finish
                    for s in range(3)]
        assert finishes == sorted(finishes)
        dev = svc.scheduler.pool.devices[0]
        assert dev.busy_until == pytest.approx(finishes[-1])
        assert dev.batches == 3

    def test_cache_hit_latency_beats_cold(self, pattern, rhs):
        svc = service()
        cold = svc.solve(restamp(pattern, 1), rhs)
        warm = svc.solve(restamp(pattern, 2), rhs)
        assert warm.latency < cold.latency
