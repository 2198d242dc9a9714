"""Family-keyed serve cache + incremental splicing on the request path."""

import numpy as np
import pytest

from repro.bench.drift import run_drift_bench
from repro.core import SolverConfig, analyze
from repro.gpusim import scaled_device, scaled_host
from repro.serve import (
    AnalysisCache,
    ServeConfig,
    SolverService,
    family_key,
    pattern_key,
    replay,
    strip_explicit_zeros,
    synthesize_drift_trace,
)
from repro.sparse import CSRMatrix, residual_norm
from repro.workloads import circuit_like, fem_like, perturb_pattern

pytestmark = [pytest.mark.serve, pytest.mark.drift]


def solver_cfg(mem=8 << 20):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem))


def service(**kw):
    kw.setdefault("solver", solver_cfg())
    return SolverService(ServeConfig(**kw))


# ---------------------------------------------------------------------------
class TestFamilyKey:
    def test_same_hint_and_shape_share_family(self):
        a = circuit_like(100, 5.0, seed=1)
        b = perturb_pattern(a, add=5, seed=2)  # different pattern
        assert pattern_key(a) != pattern_key(b)
        assert family_key(a, "tenant0") == family_key(b, "tenant0")

    def test_different_hint_different_family(self):
        a = circuit_like(100, 5.0, seed=1)
        assert family_key(a, "t0") != family_key(a, "t1")

    def test_different_shape_different_family(self):
        a = circuit_like(100, 5.0, seed=1)
        b = circuit_like(110, 5.0, seed=1)
        assert family_key(a, "t0") != family_key(b, "t0")

    def test_no_hint_is_shape_only(self):
        a = circuit_like(100, 5.0, seed=1)
        b = circuit_like(100, 7.0, seed=9)
        assert family_key(a) == family_key(b)

    def test_values_do_not_matter(self):
        a = circuit_like(100, 5.0, seed=1)
        b = a.copy()
        b.data = b.data * 3.0
        assert family_key(a, "t") == family_key(b, "t")


class TestStripExplicitZeros:
    def _with_zero(self, a: CSRMatrix) -> CSRMatrix:
        b = a.copy()
        # zero out one off-diagonal stored entry (keep the diagonal)
        rows = b.row_ids_of_entries()
        k = int(np.flatnonzero(rows != b.indices)[0])
        b.data[k] = 0.0
        return b

    def test_all_nonzero_fast_path_returns_same_object(self):
        a = circuit_like(80, 5.0, seed=3)
        assert strip_explicit_zeros(a) is a

    def test_strips_stored_zero_and_keeps_values(self):
        a = circuit_like(80, 5.0, seed=3)
        b = self._with_zero(a)
        s = strip_explicit_zeros(b)
        assert s.nnz == a.nnz - 1
        assert (s.data != 0.0).all()
        # surviving entries keep their exact values
        dense_b, dense_s = b.to_dense(), s.to_dense()
        np.testing.assert_array_equal(dense_b, dense_s)

    def test_pattern_key_ignores_stored_zeros(self):
        a = circuit_like(80, 5.0, seed=3)
        b = self._with_zero(a)
        s = strip_explicit_zeros(b)
        assert pattern_key(b) == pattern_key(s)
        assert pattern_key(b) != pattern_key(a)  # entry really absent


# ---------------------------------------------------------------------------
class TestFamilyIndex:
    def _analysis(self, a, fam=None):
        analysis = analyze(a, solver_cfg())
        analysis.family = fam
        return analysis

    def test_put_indexes_family_newest_first(self):
        cache = AnalysisCache()
        a = circuit_like(100, 5.0, seed=1)
        b = perturb_pattern(a, add=3, seed=2)
        fam = family_key(a, "t")
        cache.put(pattern_key(a), self._analysis(a, fam))
        cache.put(pattern_key(b), self._analysis(b, fam))
        members = cache.family_members(fam)
        assert members == [pattern_key(b), pattern_key(a)]

    def test_unfamilied_analysis_not_indexed(self):
        cache = AnalysisCache()
        a = circuit_like(100, 5.0, seed=1)
        cache.put(pattern_key(a), self._analysis(a))
        assert cache.stats()["families"] == 0

    def test_invalidate_removes_from_family(self):
        cache = AnalysisCache()
        a = circuit_like(100, 5.0, seed=1)
        fam = family_key(a, "t")
        cache.put(pattern_key(a), self._analysis(a, fam))
        assert cache.family_members(fam)
        cache.invalidate(pattern_key(a))
        assert cache.family_members(fam) == []
        assert cache.stats()["families"] == 0

    def test_eviction_removes_from_family(self):
        a = circuit_like(100, 5.0, seed=1)
        b = perturb_pattern(a, add=3, seed=2)
        fam = family_key(a, "t")
        first = self._analysis(a, fam)
        second = self._analysis(b, fam)
        cache = AnalysisCache(
            capacity_bytes=first.nbytes + second.nbytes - 1
        )
        cache.put(pattern_key(a), first)
        evicted = cache.put(pattern_key(b), second)
        assert pattern_key(a) in evicted
        assert cache.family_members(fam) == [pattern_key(b)]

    def test_clear_drops_family_index(self):
        cache = AnalysisCache()
        a = circuit_like(100, 5.0, seed=1)
        cache.put(pattern_key(a), self._analysis(a, family_key(a, "t")))
        cache.clear()
        assert cache.stats()["families"] == 0
        assert cache.family_members(family_key(a, "t")) == []


# ---------------------------------------------------------------------------
class TestServiceIncremental:
    def test_family_near_miss_splices(self):
        svc = service()
        a = fem_like(150, 6.0, seed=4)
        fam = family_key(a, "sim0")
        rng = np.random.default_rng(0)
        b_rhs = rng.normal(size=150)
        svc.submit(a, b_rhs, family=fam)
        (cold,) = svc.flush()
        assert not cold.incremental and not cold.cache_hit

        drifted = perturb_pattern(a, add=3, seed=5)
        svc.submit(drifted, b_rhs, family=fam)
        (warm,) = svc.flush()
        assert warm.incremental and not warm.cache_hit
        assert residual_norm(drifted, warm.x, b_rhs) < 1e-8

        # the drifted analysis is now installed: exact repeat is a hit
        svc.submit(drifted, b_rhs, family=fam)
        (hit,) = svc.flush()
        assert hit.cache_hit and not hit.incremental

        stats = svc.stats()
        assert stats["counters"]["incremental_hits"] == 1
        assert stats["phase_seconds"]["analysis_delta"] > 0.0
        assert (
            stats["phase_seconds"]["analysis_delta"]
            < stats["phase_seconds"]["analysis"]
        )
        svc.shutdown()

    def test_no_family_hint_goes_cold(self):
        svc = service()
        a = fem_like(150, 6.0, seed=4)
        rng = np.random.default_rng(0)
        b_rhs = rng.normal(size=150)
        svc.submit(a, b_rhs)
        svc.flush()
        svc.submit(perturb_pattern(a, add=3, seed=5), b_rhs)
        (resp,) = svc.flush()
        assert not resp.incremental
        assert svc.stats()["counters"].get("incremental_hits", 0) == 0
        svc.shutdown()

    def test_spliced_solution_bitwise_equals_cold_service(self):
        trace = synthesize_drift_trace(
            num_families=2,
            num_requests=24,
            n=200,
            seed=3,
            matrix_class="fem",
        )
        svc_on = service()
        on = {r.request_id: r for r in replay(svc_on, trace)}
        assert any(r.incremental for r in on.values())
        svc_on.shutdown()
        svc_off = service(incremental=False)
        off = {r.request_id: r for r in replay(svc_off, trace)}
        assert not any(r.incremental for r in off.values())
        svc_off.shutdown()
        assert on.keys() == off.keys()
        for rid, resp in on.items():
            assert resp.status == "ok"
            np.testing.assert_array_equal(resp.x, off[rid].x)

    def test_over_threshold_rebase_counts_fallback(self, monkeypatch):
        """A re-based family member (delta beyond the splice budget)
        falls back to the cold oracle and counts a fallback."""
        monkeypatch.setattr(
            "repro.core.incremental.MAX_DELTA_FRACTION", 0.001
        )
        svc = service()
        a = fem_like(150, 6.0, seed=4)
        fam = family_key(a, "sim0")
        rng = np.random.default_rng(0)
        b_rhs = rng.normal(size=150)
        svc.submit(a, b_rhs, family=fam)
        svc.flush()
        rebased = fem_like(150, 6.0, seed=99)  # unrelated pattern
        svc.submit(rebased, b_rhs, family=fam)
        (resp,) = svc.flush()
        assert not resp.incremental
        stats = svc.stats()
        assert stats["counters"]["incremental_fallbacks"] == 1
        assert stats["counters"].get("incremental_hits", 0) == 0
        svc.shutdown()


# ---------------------------------------------------------------------------
class TestDriftTrace:
    def test_deterministic_under_seed(self):
        kw = dict(num_families=2, num_requests=16, n=120, seed=7)
        t1 = synthesize_drift_trace(**kw)
        t2 = synthesize_drift_trace(**kw)
        assert len(t1) == len(t2) == 16
        for e1, e2 in zip(t1, t2):
            assert e1.family == e2.family
            np.testing.assert_array_equal(e1.a.indptr, e2.a.indptr)
            np.testing.assert_array_equal(e1.a.indices, e2.a.indices)
            np.testing.assert_array_equal(e1.a.data, e2.a.data)
            np.testing.assert_array_equal(e1.b, e2.b)

    def test_patterns_actually_drift(self):
        trace = synthesize_drift_trace(
            num_families=1, num_requests=12, n=120, seed=1, drift_every=4
        )
        keys = {pattern_key(e.a) for e in trace}
        assert len(keys) > 1
        assert len({e.family for e in trace}) == 1

    def test_families_are_disjoint(self):
        trace = synthesize_drift_trace(
            num_families=3, num_requests=12, n=120, seed=1
        )
        assert len({e.family for e in trace}) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            synthesize_drift_trace(num_families=0)
        with pytest.raises(ValueError, match="drift_every"):
            synthesize_drift_trace(drift_every=1)


# ---------------------------------------------------------------------------
def test_drift_bench_smoke_passes():
    report = run_drift_bench(smoke=True, seed=0)
    verdicts = report.verdicts()
    assert verdicts["bitwise_ok"]
    assert verdicts["hit_rate_ok"]
    assert verdicts["amortized_ok"], (
        f"amortized ratio {report.amortized_ratio:.2f}x under gate"
    )
    assert report.passed
    record = report.perf_record()
    assert record["labels"]["passed"] == "true"
    assert record["counters"]["incremental_hits"] > 0
    assert record["counters"]["bitwise_mismatches"] == 0
