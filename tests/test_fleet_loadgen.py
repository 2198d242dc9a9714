"""Trace synthesis extensions + report rollups for the fleet tier.

Locks the seeded determinism of the new zipf-popularity and diurnal
arrival knobs on :func:`~repro.serve.loadgen.synthesize_trace`, the
unchanged default (round-robin) path, and the division-by-zero guards
on both report types.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import FleetConfig
from repro.fleet.loadgen import (
    FleetReport,
    run_fleet_load,
)
from repro.serve.loadgen import (
    LoadReport,
    synthesize_trace,
    zipf_weights,
)

pytestmark = pytest.mark.fleet


# ---------------------------------------------------------------------------
# zipf popularity
# ---------------------------------------------------------------------------
def test_zipf_weights_shape():
    w = zipf_weights(5, 1.0)
    assert w.sum() == pytest.approx(1.0)
    assert all(w[i] > w[i + 1] for i in range(4))  # strictly skewed
    with pytest.raises(ValueError):
        zipf_weights(5, 0.0)


def test_default_trace_is_roundrobin():
    trace = synthesize_trace(num_patterns=3, num_requests=9, seed=0)
    assert [t.pattern_id for t in trace] == [0, 1, 2] * 3


def test_zipf_trace_skews_toward_hot_patterns():
    trace = synthesize_trace(
        num_patterns=6, num_requests=120, seed=0,
        popularity="zipf", zipf_s=1.2,
    )
    counts = np.bincount(
        [t.pattern_id for t in trace], minlength=6
    )
    assert counts[0] == counts.max()  # pattern 0 is the hottest
    assert counts[0] >= 2 * counts[3:].max()


def test_trace_synthesis_is_deterministic():
    kw = dict(
        num_patterns=4, num_requests=24, n=60, seed=7,
        popularity="zipf", zipf_s=1.1, arrival_gap=1e-4,
        diurnal_amplitude=0.5, diurnal_period=12,
    )
    t1 = synthesize_trace(**kw)
    t2 = synthesize_trace(**kw)
    for a, b in zip(t1, t2):
        assert a.pattern_id == b.pattern_id
        assert a.gap == b.gap
        assert np.array_equal(a.a.data, b.a.data)
        assert np.array_equal(a.b, b.b)


# ---------------------------------------------------------------------------
# diurnal arrival modulation
# ---------------------------------------------------------------------------
def test_diurnal_gaps_oscillate_around_base():
    base = 1e-3
    trace = synthesize_trace(
        num_patterns=2, num_requests=16, seed=0,
        arrival_gap=base, diurnal_amplitude=0.5, diurnal_period=8,
    )
    gaps = np.array([t.gap for t in trace])
    assert gaps.min() < base < gaps.max()  # peak compresses, trough stretches
    assert gaps.min() >= base / 1.5 - 1e-12
    assert gaps[0] == pytest.approx(base)  # sin(0) = 0
    # one full period later the modulation repeats exactly
    assert gaps[1] == pytest.approx(gaps[9])


def test_diurnal_off_keeps_constant_gaps():
    trace = synthesize_trace(
        num_patterns=2, num_requests=8, seed=0, arrival_gap=2e-4
    )
    assert all(t.gap == 2e-4 for t in trace)


def test_trace_validation():
    with pytest.raises(ValueError):
        synthesize_trace(popularity="lru")
    with pytest.raises(ValueError):
        synthesize_trace(diurnal_amplitude=1.0, diurnal_period=8)
    with pytest.raises(ValueError):
        synthesize_trace(diurnal_amplitude=0.5, diurnal_period=1)
    with pytest.raises(ValueError):
        synthesize_trace(num_requests=0)


# ---------------------------------------------------------------------------
# report guards
# ---------------------------------------------------------------------------
def _empty_load_report(**kw):
    base = dict(
        requests=0, completed=0, timeouts=0, errors=0, rejected=0,
        hit_rate=0.0, service_seconds=0.0, baseline_seconds=0.0,
        latency_p50=0.0, latency_p99=0.0,
    )
    base.update(kw)
    return LoadReport(**base)


def test_load_report_zero_duration_guards():
    empty = _empty_load_report()
    assert empty.speedup == 0.0
    assert empty.throughput == 0.0
    # all-shed replay: completed work but no device time booked
    shed_only = _empty_load_report(requests=5, completed=0,
                                   baseline_seconds=1.0)
    assert shed_only.speedup == 0.0
    assert shed_only.throughput == 0.0
    real = _empty_load_report(requests=2, completed=2,
                              service_seconds=0.5, baseline_seconds=1.0)
    assert real.speedup == pytest.approx(2.0)
    assert real.throughput == pytest.approx(4.0)


def test_fleet_report_zero_guards_and_formatting():
    report = FleetReport(
        num_nodes=2, requests=0, admitted=0, completed=0, shed=0,
        errors=0, timeouts=0, rerouted=0, served_l1=0, served_l2=0,
        served_cold=0, l2_hits=0, l2_misses=0, makespan_seconds=0.0,
        latency_p50=0.0, latency_p99=0.0, per_node={0: 0, 1: 0},
    )
    assert report.shed_rate == 0.0
    assert report.l1_hit_rate == 0.0
    assert report.l2_hit_rate == 0.0
    assert report.warm_rate == 0.0
    assert report.throughput == 0.0
    assert report.balance == 1.0
    rec = report.perf_record()
    assert set(rec) == {"counters", "timings", "labels"}


def test_run_fleet_load_end_to_end_report():
    trace = synthesize_trace(
        num_patterns=3, num_requests=18, n=60, seed=1,
        popularity="zipf", zipf_s=1.1,
    )
    report = run_fleet_load(trace, FleetConfig(num_nodes=2),
                            flush_every=6)
    assert report.requests == 18
    assert report.admitted == 18 and report.shed == 0
    assert report.completed == 18
    assert sum(report.per_node.values()) == 18
    assert report.warm_rate > 0.5  # repeats hit a warm tier
    assert report.makespan_seconds > 0
