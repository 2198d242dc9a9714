"""Self-test of the end-to-end benchmark at ``--smoke`` sizes.

Run from the repository root with ``python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import run as bench
from spans import WRAPPED, resolve

SPEC = bench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def runs() -> dict[str, tuple[dict, dict, dict, object]]:
    """Per workload: two untraced smoke runs, one traced, its tracer."""
    out = {}
    for name in WORKLOADS:
        first, _ = bench.run_workload(name, smoke=True)
        second, _ = bench.run_workload(name, smoke=True)
        traced, tracer = bench.run_workload(name, smoke=True, trace=True)
        out[name] = (first, second, traced, tracer)
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, name):
    first, _, traced, _ = runs[name]
    for metric in SPEC["end_to_end"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
    for metric in SPEC["per_layer"]:
        assert traced["layer_metrics"][metric["name"]]["unit"] == (
            metric["unit"]
        )
    for record in (first, traced):
        line = bench.result_line(record, SPEC)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1
        json.dumps(line, allow_nan=False)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_runs_repeat_exactly(runs, name):
    first, second, traced, _ = runs[name]
    exact = [m for m in first["metrics"]
             if m.startswith("sim_")
             or m in ("backward_error_max", "failed_frac")]
    assert exact
    for metric in exact:
        assert first["metrics"][metric] == second["metrics"][metric]
        if metric.startswith("sim_"):
            assert first["metrics"][metric] == traced["metrics"][metric]


@pytest.mark.parametrize("name", ["serve_hot", "fleet_drift"])
def test_batched_replay_matches_one_replay(name):
    """Feeding the trace one flush batch at a time serves it exactly as
    one library replay call does."""
    bench.prepare_environment()
    from repro.fleet import Fleet, replay_fleet
    from repro.serve import SolverService, replay
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    state = workload.setup(0, True)
    batched = workload.run_round(state, bench.Timer(), True)
    if name == "serve_hot":
        server = SolverService(state["config"])
        responses = replay(server, state["trace"], flush_every=8)
    else:
        server = Fleet(state["config"])
        responses = replay_fleet(server, state["trace"], flush_every=8)
    server.shutdown()
    assert batched.latencies_s == [r.latency for r in responses]
    for x, r in zip(batched.outputs, responses):
        assert np.array_equal(x, r.x)


def test_reference_speed_scales_by_nearby_probes():
    speed = bench.HostSpeed()
    speed.samples = [(0, 1), (4_000_000, 2_000_000),
                     (10_000_000, 4_000_000), (15_000_000, 9_000_000),
                     (10**9, 1)]
    # a 1 ms interval reads the median of the probes within 6 ms of it
    assert speed.at_reference(9_000_000, 10_000_000) == pytest.approx(
        1_000_000 * bench.REFERENCE_PROBE_NS / 4_000_000
    )


def test_wrapped_names_resolve_and_run_where_heavy(runs):
    for spec in WRAPPED:
        resolve(spec.target)
        for name in spec.heavy:
            tracer = runs[name][3]
            assert tracer.calls[spec.target] > 0, (spec.target, name)


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_attributes_nearly_everything(runs, name):
    layers = runs[name][2]["layer_metrics"]
    assert layers["unattributed.host_frac"]["value"] < 0.10
    assert layers["trace.overhead_frac"]["value"] < 0.02
    shares = [v["value"] for k, v in layers.items()
              if k.endswith(".host_frac")]
    assert sum(shares) == pytest.approx(1.0)


def test_tracer_leaves_no_wrapper_behind(runs):
    for spec in WRAPPED:
        owner, attr = resolve(spec.target)
        assert not hasattr(getattr(owner, attr), "__wrapped__"), spec.target


def test_wrong_answer_counts_as_failure(monkeypatch):
    from repro.core import EndToEndResult

    solve = EndToEndResult.solve
    monkeypatch.setattr(
        EndToEndResult, "solve", lambda self, b: solve(self, b) + 1.0
    )
    record, _ = bench.run_workload("cold_factorize", smoke=True)
    assert record["metrics"]["failed_frac"]["value"] > 0
    assert not bench.result_line(record, SPEC)["correct"]


def _start(cwd: Path, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "cold_factorize", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(bench.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        bench.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _start(tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_refuses_scalar_oracle_loops():
    proc = _start(bench.ROOT, dict(os.environ, REPRO_SLOW_HOST_LOOPS="1"))
    assert proc.returncode == 2
    assert "REPRO_SLOW_HOST_LOOPS" in proc.stderr


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert compare.verdict("higher", 0.1, base, base)[0] == "unchanged"
    assert compare.verdict("higher", 0.1, base,
                           [v * 0.8 for v in base])[0] == "worse"
    assert compare.verdict("lower", 0.1, base,
                           [v * 0.8 for v in base])[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert compare.verdict("higher", 0.1, base, noisy)[0] == "unresolved"
    pairs = [10.0 + 0.01 * i for i in range(10)]
    assert compare.claim("higher", pairs,
                         [v * 1.2 for v in pairs]).startswith("gain")
    assert compare.claim("higher", pairs[:5], pairs[:5]) == "-"
