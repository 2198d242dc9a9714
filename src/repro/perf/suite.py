"""The curated perf-snapshot scenario suite.

The scenario families, each seeded and therefore bit-deterministic:

* ``e2e/<abbr>`` — the full pipeline (preprocess → out-of-core symbolic →
  levelize → numeric) on workload-registry matrices, run on a
  :class:`~repro.gpusim.TracingGPU` so the snapshot also captures
  trace-event counts.  Smoke mode shrinks the registry instances so the
  CI gate stays fast; full mode uses the real scaled sizes.
* ``large/e2e`` — the same pipeline on the largest Table 2 instance
  (pre2) at its *real* scaled size in both modes: the paper-scale gate
  the vectorized host loops make affordable.
* ``symbolic/outofcore_chunking`` — the two-stage chunked symbolic phase
  alone on a memory-starved device (chunk plans, iterations, split
  point).
* ``multigpu/symbolic_OT2`` (full mode) — sharded symbolic
  factorization over four devices (makespan, balance, summed ledgers).
* one scenario per entry of :data:`repro.bench.gates.EXPERIMENTS`,
  which runs the entry's sweep or drill and records its counters and
  timings plus one label per gate and ``passed``:

  - ``overlap/e2e_CR2`` — the copy-engine overlap pipeline on the
    transfer-bound out-of-core regime, ``overlap`` off vs on (drop,
    engine utilizations, results-identical flag);
  - ``multigpu/e2e`` — the end-to-end multi-GPU solver over four
    devices;
  - ``serve/replay`` — a repeated-pattern trace through the solver
    service (cache hit rate, latency percentiles, speedup vs. cold
    solves);
  - ``fleet/serve`` — the cluster tier: a zipf trace over a 4-node
    fleet with a deliberately tight L1 (routing balance, L1/L2 tier hit
    rates, shed count, exact latency percentiles);
  - ``faults/drill``, ``fleet/churn``, ``serve/drift``,
    ``supernodal/e2e`` — the gated drills;
  - ``paper/<name>`` and ``ablation/<name>`` — the paper's tables and
    figures and the ablations of its design choices.

``run_suite`` executes them all and returns a
:class:`~repro.perf.snapshot.PerfSnapshot`.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Any, Callable

from ..bench.gates import EXPERIMENTS, Experiment
from ..core import EndToEndLU, SolverConfig
from ..core.outofcore import outofcore_symbolic
from ..gpusim import GPU, TracingGPU, scaled_device, scaled_host
from ..symbolic import symbolic_fill_reference
from ..workloads import circuit_like
from ..workloads.registry import by_abbr
from .snapshot import PerfSnapshot, ScenarioRecord

__all__ = ["SCENARIO_NAMES", "run_scenario", "run_suite", "scenario_names"]

#: Registry abbreviations exercised end-to-end, by mode.  GO (a dense FEM
#: pattern) only runs in full mode: it dominates suite runtime.
_E2E_SMOKE = ("OT2", "R15")
_E2E_FULL = ("OT2", "R15", "GO")

#: Smoke-mode shrink of the registry instances (rows / out-of-core chunk
#: rows).  Full mode uses the registry's real scaled sizes.
_SMOKE_N = 160
_SMOKE_CHUNK_ROWS = 32

#: ``large/e2e`` runs this registry instance at its *real* scaled size in
#: both modes — the scenario exists to prove the vectorized host loops
#: keep paper-scale dimensions CI-affordable (pre2 is the largest Table 2
#: matrix, n_scaled ~ 8 sqrt(659033)).
_LARGE_ABBR = "PR"


def _trace_part(gpu: TracingGPU) -> dict[str, Any]:
    """Fold a :meth:`TracingGPU.trace_summary` into perf-record shape."""
    summary = gpu.trace_summary()
    counters: dict[str, int] = {
        "trace_events_total": int(summary["total_events"]),
    }
    for cat, count in summary["events_by_category"].items():
        counters[f"trace_events_{cat}"] = int(count)
    timings = {
        f"trace_busy_seconds_{cat}": float(sec)
        for cat, sec in summary["busy_seconds_by_category"].items()
    }
    return {"counters": counters, "timings": timings}


def _e2e_scenario(
    abbr: str,
    smoke: bool,
    *,
    name: str | None = None,
    full_size: bool = False,
) -> ScenarioRecord:
    spec = by_abbr(abbr)
    if full_size:
        chunk_rows = 128
    else:
        chunk_rows = _SMOKE_CHUNK_ROWS if smoke else 128
        if smoke:
            spec = dataclasses.replace(spec, n_scaled=_SMOKE_N)
    a = spec.generate()
    filled = symbolic_fill_reference(a)
    device = spec.device_for_symbolic(a, filled.nnz, chunk_rows=chunk_rows)
    cfg = SolverConfig(device=device, host=spec.host_for(device))
    gpu = TracingGPU(GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model))
    res = EndToEndLU(cfg).factorize(a, gpu=gpu)
    split = res.symbolic.split_point
    extra = {
        "counters": {
            "n": int(a.n_rows),
            "split_point": -1 if split is None else int(split),
        },
    }
    return ScenarioRecord.from_parts(
        name or f"e2e/{abbr}",
        res.perf_record(),
        _trace_part(gpu),
        extra,
    )


def _symbolic_scenario(smoke: bool) -> ScenarioRecord:
    n = 220 if smoke else 420
    a = circuit_like(n, 6.0, seed=11)
    need = SolverConfig().scratch_bytes_per_row(n) * n
    device = scaled_device(max(need // 3, 1 << 20))
    cfg = SolverConfig(
        device=device,
        host=scaled_host(8 * device.memory_bytes),
    )
    gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
    sym = outofcore_symbolic(gpu, a, cfg, dynamic=True, keep_on_device=False)
    ledger = gpu.ledger
    split = sym.split_point
    part = {
        "counters": {
            "n": int(n),
            "nnz": int(a.nnz),
            "filled_nnz": int(sym.filled.nnz),
            "iterations": int(sym.iterations),
            "chunk_plans": len(sym.plans),
            "split_point": -1 if split is None else int(split),
            "chunk_size_min": min(p.chunk_size for p in sym.plans),
            "chunk_size_max": max(p.chunk_size for p in sym.plans),
            "kernel_launches": ledger.get_count("kernel_launches"),
            "bytes_h2d": ledger.get_count("bytes_h2d"),
            "bytes_d2h": ledger.get_count("bytes_d2h"),
            "pool_peak_bytes": int(gpu.pool.peak_bytes),
            "pool_total_allocs": int(gpu.pool.total_allocs),
        },
        "timings": {
            "sim_seconds": float(sym.sim_seconds),
            "symbolic_seconds": float(ledger.seconds("symbolic")),
            "pool_peak_utilization": float(gpu.pool.peak_utilization),
        },
    }
    return ScenarioRecord.from_parts("symbolic/outofcore_chunking", part)


def _multigpu_scenario(smoke: bool) -> ScenarioRecord:
    from ..core.multigpu import multi_gpu_symbolic

    spec = by_abbr("OT2")
    if smoke:
        spec = dataclasses.replace(spec, n_scaled=_SMOKE_N)
    a = spec.generate()
    cfg = SolverConfig()
    res = multi_gpu_symbolic(a, cfg, num_devices=4)
    return ScenarioRecord.from_parts(
        "multigpu/symbolic_OT2", res.perf_record()
    )


def _experiment_scenario(exp: Experiment, smoke: bool) -> ScenarioRecord:
    report = exp.run(smoke=smoke, seed=0)
    return ScenarioRecord.from_parts(exp.scenario, report.perf_record())


def _scenarios(smoke: bool) -> dict[str, Callable[[], ScenarioRecord]]:
    """Ordered scenario registry for one mode."""
    runners: dict[str, Callable[[], ScenarioRecord]] = {}
    for abbr in _E2E_SMOKE if smoke else _E2E_FULL:
        runners[f"e2e/{abbr}"] = partial(_e2e_scenario, abbr, smoke)
    runners["large/e2e"] = partial(
        _e2e_scenario, _LARGE_ABBR, smoke,
        name="large/e2e", full_size=True,
    )
    runners["symbolic/outofcore_chunking"] = partial(
        _symbolic_scenario, smoke
    )
    if not smoke:
        runners["multigpu/symbolic_OT2"] = partial(
            _multigpu_scenario, smoke
        )
    for exp in EXPERIMENTS:
        runners[exp.scenario] = partial(_experiment_scenario, exp, smoke)
    return runners


def scenario_names(*, smoke: bool = False) -> tuple[str, ...]:
    return tuple(_scenarios(smoke))


#: The smoke-mode scenario set (what the CI perf gate runs).
SCENARIO_NAMES: tuple[str, ...] = scenario_names(smoke=True)


def run_scenario(name: str, *, smoke: bool = False) -> ScenarioRecord:
    """Run a single scenario by name (mainly for tests)."""
    runners = _scenarios(smoke)
    if name not in runners:
        known = ", ".join(runners)
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    return runners[name]()


def run_suite(
    *,
    smoke: bool = False,
    only: tuple[str, ...] | None = None,
) -> PerfSnapshot:
    """Execute the scenario suite and capture a snapshot.

    ``only`` restricts execution to a subset of scenario names — useful
    interactively, but subset snapshots will fail structural comparison
    against a full baseline.
    """
    runners = _scenarios(smoke)
    if only is not None:
        unknown = [name for name in only if name not in runners]
        if unknown:
            raise KeyError(f"unknown scenarios: {', '.join(unknown)}")
        runners = {k: v for k, v in runners.items() if k in only}
    records = tuple(runner() for runner in runners.values())
    return PerfSnapshot(mode="smoke" if smoke else "full", scenarios=records)
