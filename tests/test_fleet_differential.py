"""Differential harness: fleet responses vs. a single solver service.

The fleet contract mirrors the multi-GPU one a tier up: node count,
consistent-hash routing, the shared L2 analysis tier and admission
control may only move *simulated time*, never numerics.  For a
registry-workload trace and every swept node count, every admitted
``ok`` response's solution vector must be bitwise-identical to
replaying the identical trace through one plain
:class:`~repro.serve.SolverService` — and a rerun of the same sweep
must be byte-identical to itself.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.fleet import FleetConfig
from repro.fleet.loadgen import run_fleet_load
from repro.serve import (
    ServeConfig,
    SolverService,
    replay,
    restamp,
    synthesize_trace,
)
from repro.serve.loadgen import TraceRequest
from repro.workloads.registry import TABLE2

pytestmark = pytest.mark.fleet

_N = 64
NODE_COUNTS = (1, 2, 4, 8)


def _registry_trace(
    abbrs=("RM", "OT2", "CR2", "BMC"), stamps: int = 4, seed: int = 0
) -> list[TraceRequest]:
    """Interleaved registry patterns, several value sets each — the
    repeated-pattern traffic of §1 over real Table 2 structures."""
    rng = np.random.default_rng(seed)
    specs = [s for s in TABLE2 if s.abbr in abbrs]
    assert len(specs) == len(abbrs)
    patterns = [
        dataclasses.replace(s, n_scaled=_N).generate() for s in specs
    ]
    trace = []
    for stamp in range(stamps):
        for pid, base in enumerate(patterns):
            a = restamp(base, seed=seed + 31 * stamp + 7 * pid)
            b = rng.normal(size=a.n_rows)
            trace.append(TraceRequest(pattern_id=pid, a=a, b=b))
    return trace


def _reference(trace, serve: ServeConfig) -> dict[int, np.ndarray]:
    service = SolverService(serve)
    responses = replay(service, trace, flush_every=6)
    service.shutdown()
    assert all(r.status == "ok" for r in responses)
    return {r.request_id: r.x for r in responses}


@pytest.mark.parametrize("num_nodes", NODE_COUNTS)
def test_fleet_bitwise_identical_to_single_service(num_nodes):
    trace = _registry_trace()
    cfg = FleetConfig(num_nodes=num_nodes)
    reference = _reference(trace, cfg.serve)
    report = run_fleet_load(trace, cfg, flush_every=6)
    assert report.shed == 0
    assert report.errors == 0 and report.timeouts == 0
    assert report.completed == len(trace)
    for resp in report.responses:
        assert resp.status == "ok"
        assert np.array_equal(resp.x, reference[resp.index]), (
            f"node {resp.node_id} diverged at index {resp.index}"
        )


def test_fleet_identical_under_l1_thrash_via_l2():
    """Tiny L1s force the shared L2 tier to serve repeats; the fetched
    analyses are rebound to local devices and must not perturb a bit.

    Uniform-size synthetic patterns (~84 KB analysis at n=80) against a
    100 KB L1: each node holds exactly one resident analysis, so any
    node owning two or more patterns thrashes and leans on the L2.
    """
    trace = synthesize_trace(
        num_patterns=6, num_requests=48, n=80, seed=3
    )
    serve = ServeConfig(cache_capacity_bytes=100 << 10)
    cfg = FleetConfig(num_nodes=2, serve=serve)
    reference = _reference(trace, serve)
    report = run_fleet_load(trace, cfg, flush_every=6)
    assert report.served_l2 > 0, "thrash scenario never touched the L2"
    for resp in report.responses:
        assert resp.status == "ok"
        assert np.array_equal(resp.x, reference[resp.index])


def test_fleet_rerun_is_byte_identical():
    """Same trace + same config twice: solutions, routing and the full
    perf record must match byte for byte (the determinism contract the
    perf gate and the CI smoke rely on)."""
    def run():
        trace = _registry_trace()
        report = run_fleet_load(
            trace, FleetConfig(num_nodes=4), flush_every=6
        )
        blob = b"".join(r.x.tobytes() for r in report.responses)
        record = json.dumps(report.perf_record(), sort_keys=True)
        homes = [r.node_id for r in report.responses]
        return blob, record, homes

    assert run() == run()
