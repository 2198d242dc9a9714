"""Rung 4: per-device circuit breakers, rerouting, CPU fallback, and the
stale-cache rebuild budget (repro.serve.breaker + scheduler)."""

import numpy as np
import pytest

from repro.core import SolverConfig
from repro.core.refactorize import ReusableAnalysis
from repro.errors import ServeError, SparseFormatError
from repro.gpusim import FaultPlan, scaled_device, scaled_host
from repro.serve import (
    BreakerConfig,
    CircuitBreaker,
    ServeConfig,
    SolverService,
    pattern_key,
)
from repro.serve.loadgen import restamp
from repro.sparse import residual_norm
from repro.workloads import circuit_like


def solver_cfg(mem=8 << 20, *, resilient=True):
    kw = {"device": scaled_device(mem), "host": scaled_host(8 * mem)}
    if resilient:
        kw["resilience"] = True
    return SolverConfig(**kw)


def service(**kw):
    kw.setdefault("solver", solver_cfg())
    return SolverService(ServeConfig(**kw))


@pytest.fixture
def pattern():
    return circuit_like(120, 6.0, seed=11)


@pytest.fixture
def rhs():
    return np.random.default_rng(0).normal(size=120)


class TestBreakerStateMachine:
    def _breaker(self, **kw):
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("cooldown_s", 1.0)
        return CircuitBreaker(config=BreakerConfig(**kw))

    def test_starts_closed_and_allows(self):
        br = self._breaker()
        assert br.state == "closed"
        assert br.allow(0.0)

    def test_below_threshold_stays_closed(self):
        br = self._breaker()
        br.record_failure(0.0)
        br.record_failure(0.0)
        assert br.state == "closed" and br.allow(0.0)

    def test_trips_at_threshold(self):
        br = self._breaker()
        for _ in range(3):
            br.record_failure(1.0)
        assert br.state == "open"
        assert br.trips == 1
        assert not br.allow(1.5)  # cooldown until 2.0

    def test_success_resets_consecutive_count(self):
        br = self._breaker()
        br.record_failure(0.0)
        br.record_failure(0.0)
        br.record_success(0.0)
        br.record_failure(0.0)
        assert br.state == "closed"  # streak broken: 1/3, not 3/3

    def test_half_open_admits_limited_probes(self):
        br = self._breaker(failure_threshold=1)
        br.record_failure(0.0)
        assert br.allow(1.0)  # cooldown elapsed: half-open probe admitted
        assert br.state == "half-open"
        assert not br.allow(1.0)  # only one probe in flight

    def test_half_open_success_closes_and_counts_recovery(self):
        br = self._breaker(failure_threshold=1)
        br.record_failure(0.0)
        assert br.allow(1.0)
        br.record_success(1.1)
        assert br.state == "closed"
        assert br.recoveries == 1
        assert br.allow(1.2)

    def test_half_open_failure_reopens(self):
        br = self._breaker(failure_threshold=1)
        br.record_failure(0.0)
        assert br.allow(1.0)
        br.record_failure(1.1)
        assert br.state == "open"
        assert br.trips == 2
        assert not br.allow(2.0)  # new cooldown from t=1.1
        assert br.allow(2.2)

    @pytest.mark.parametrize("kw", [
        {"failure_threshold": 0},
        {"cooldown_s": -1.0},
    ])
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ValueError):
            BreakerConfig(**kw)


class TestDegradedDispatch:
    def _dead_device_cfg(self, **kw):
        kw.setdefault("solver", solver_cfg())
        kw.setdefault("num_devices", 1)
        kw.setdefault("fault_plans", {0: FaultPlan(kernel_fault_rate=1.0)})
        kw.setdefault(
            "breaker", BreakerConfig(failure_threshold=2, cooldown_s=10.0)
        )
        return ServeConfig(**kw)

    def test_dead_device_degrades_to_cpu_fallback(self, pattern, rhs):
        a = restamp(pattern, 1)
        with SolverService(self._dead_device_cfg()) as svc:
            resp = svc.solve(a, rhs)
            assert resp.ok and resp.fallback and resp.device_id == -1
            assert residual_norm(a, resp.x, rhs) < 1e-10
            # one failure per batch (reroute excludes, doesn't re-probe):
            # the second batch's failure reaches the threshold and trips
            assert svc.stats()["breakers"][0]["state"] == "closed"
            again = svc.solve(restamp(pattern, 2), rhs)
            assert again.ok and again.fallback
            st = svc.stats()
        assert st["breakers"][0]["state"] == "open"
        assert st["counters"]["cpu_fallbacks"] == 2
        assert st["counters"]["fallback_completed"] == 2
        assert st["counters"]["device_failures"] == 2
        assert st["cpu_busy_until"] > 0

    def test_fallback_disabled_surfaces_error(self, pattern, rhs):
        cfg = self._dead_device_cfg(cpu_fallback=False)
        with SolverService(cfg) as svc:
            resp = svc.solve(restamp(pattern, 1), rhs)
            assert resp.status == "error"
            assert "KernelFaultError" in resp.error
            with pytest.raises(ServeError):
                resp.raise_for_status()

    def test_batch_reroutes_to_healthy_device(self, pattern, rhs):
        cfg = ServeConfig(
            solver=solver_cfg(),
            num_devices=2,
            fault_plans={0: FaultPlan(kernel_fault_rate=1.0)},
            breaker=BreakerConfig(failure_threshold=1, cooldown_s=1e6),
        )
        with SolverService(cfg) as svc:
            resp = svc.solve(restamp(pattern, 1), rhs)
            assert resp.ok and not resp.fallback
            assert resp.device_id == 1
            # first solve tripped device 0; later traffic routes around it
            again = svc.solve(restamp(pattern, 2), rhs)
            assert again.ok and again.device_id == 1
            st = svc.stats()
        assert st["breakers"][0]["state"] == "open"
        assert st["counters"]["device_failures"] == 1  # no repeat probing
        assert st["counters"]["breaker_trips"] == 1

    def test_fault_plan_for_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(num_devices=1, fault_plans={3: FaultPlan()})


class TestRefactorizeRetryBudget:
    def test_persistent_failure_surfaces_after_budget(
        self, monkeypatch, pattern, rhs
    ):
        """Unlike a stale entry (rebuilt once, then fine), a *persistently*
        failing refactorization must surface as an error — never loop."""
        svc = service()
        a = restamp(pattern, 1)
        calls = []

        def always_bad(self, values):
            calls.append(1)
            raise SparseFormatError("values do not match analyzed pattern")

        monkeypatch.setattr(ReusableAnalysis, "refactorize", always_bad)
        resp = svc.solve(a, rhs)
        assert resp.status == "error"
        assert "SparseFormatError" in resp.error
        # default budget = historical retry-once: two attempts, one rebuild
        assert len(calls) == 2
        assert svc.metrics.get_count("retries") == 1
        # the poisoned entry does not linger for the next caller
        assert svc.cache.stats()["invalidations"] == 2
        assert svc.cache.get(pattern_key(a)) is None
