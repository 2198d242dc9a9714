"""Fault drill: exercise the whole recovery ladder under injected faults.

Four scenarios, each deterministic from its seed:

* **flaky-link** — transient transfer + kernel faults against the
  end-to-end pipeline; rung 1 (operation retry) and rung 2 (chunk
  resume) must absorb them and produce factors bitwise identical to a
  fault-free run.
* **oom-storm** — memory-pressure episodes withhold most of the free
  pool on a memory-starved device; pressure-induced allocation failures
  are retried until the episode passes.
* **singular-workload** — a numerically singular matrix (zero pivot)
  triggers rung 3: static pivot perturbation plus post-solve iterative
  refinement down to the configured residual threshold.
* **dead-device** — a serve-layer device whose every kernel launch
  faults; the circuit breaker trips and traffic degrades to the CPU
  reference path (rung 4).

Every scenario is executed **twice** with identical seeds; the drill
verifies the two runs produce identical fault event logs and ledger
totals (the reproducibility contract of :mod:`repro.gpusim.faults`).

Run via ``repro fault-drill [--smoke]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, cast

import numpy as np

from ..core import EndToEndLU, SolverConfig
from ..core.resilient import REFINE_THRESHOLD
from ..gpusim import GPU, FaultInjector, FaultPlan, scaled_device, scaled_host
from ..serve import BreakerConfig, ServeConfig, SolverService
from ..sparse import residual_norm
from ..workloads import circuit_like
from .gates import Gate, GatedReport, factor_mismatches

__all__ = ["ScenarioResult", "DrillReport", "run_fault_drill"]

#: outcome strings (the drill's contract: one of these, never a traceback)
RECOVERED = "recovered"
DEGRADED = "degraded-to-cpu-fallback"


@dataclass
class ScenarioResult:
    """Outcome of one drill scenario."""

    name: str
    outcome: str  # RECOVERED | DEGRADED
    detail: str
    #: simulated seconds of the faulted run vs. a fault-free twin
    faulted_seconds: float
    baseline_seconds: float
    faults_injected: int
    recovery_actions: int
    #: factors / solution matched the fault-free twin bitwise
    bitwise_match: bool | None = None
    final_residual: float | None = None
    #: identity of the run, for cross-run determinism checks
    fingerprint: tuple = ()

    @property
    def overhead_pct(self) -> float:
        if self.baseline_seconds <= 0:
            return 0.0
        return 100.0 * (self.faulted_seconds / self.baseline_seconds - 1.0)


@dataclass
class DrillReport(GatedReport):
    """All scenario outcomes + the determinism verdict."""

    results: list[ScenarioResult] = field(default_factory=list)
    deterministic: bool = True

    title = "fault drill: 4 scenarios x 2 runs (determinism check)"
    columns = (
        ("scenario", "name"),
        ("outcome", "outcome"),
        ("overhead %", "overhead_pct"),
        ("faults", "faults_injected"),
        ("actions", "recovery_actions"),
        ("detail", "detail"),
    )
    gates = (
        Gate(
            "deterministic",
            lambda r: r.deterministic,
            "determinism: identical event logs and ledger totals across "
            "re-runs",
        ),
        Gate(
            "all_handled",
            lambda r: all(
                x.outcome in (RECOVERED, DEGRADED) for x in r.results
            ),
            "every scenario recovered or degraded",
        ),
    )

    def table_rows(self) -> list[ScenarioResult]:
        return self.results

    def perf_record(self) -> dict:
        """Machine-readable record for the perf-snapshot suite: per-scenario
        fault/recovery counters (exact), simulated seconds (banded) and
        outcome strings (exact labels)."""
        counters: dict = {"scenarios": len(self.results)}
        timings: dict = {}
        labels: dict = self.gate_labels()
        for r in self.results:
            key = r.name.replace("-", "_")
            counters[f"{key}_faults_injected"] = int(r.faults_injected)
            counters[f"{key}_recovery_actions"] = int(r.recovery_actions)
            timings[f"{key}_faulted_seconds"] = float(r.faulted_seconds)
            timings[f"{key}_baseline_seconds"] = float(r.baseline_seconds)
            labels[f"{key}_outcome"] = r.outcome
        return {"counters": counters, "timings": timings, "labels": labels}


def _drill_matrix(n: int, seed: int):
    return circuit_like(n, 5.0, seed=seed)


def _resilient_config(*, device_bytes: int | None = None) -> SolverConfig:
    kw: dict[str, Any] = {"resilience": True}
    if device_bytes is not None:
        kw["device"] = scaled_device(device_bytes)
        kw["host"] = scaled_host(8 * device_bytes)
    return SolverConfig(**kw)


def _run_pipeline(cfg: SolverConfig, a, plan: FaultPlan | None):
    """One end-to-end run; returns (result, injector or None)."""
    gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
    injector = None
    if plan is not None:
        injector = FaultInjector(gpu, plan)
        # the pipeline drives any GPU-shaped proxy stack
        gpu = cast(GPU, injector)
    result = EndToEndLU(cfg).factorize(a, gpu=gpu)
    return result, injector


def _pipeline_scenario(
    name: str, n: int, seed: int, plan: FaultPlan
) -> ScenarioResult:
    """Faulted run vs. fault-free twin on a memory-starved device."""
    a = _drill_matrix(n, seed)
    rng = np.random.default_rng(seed)
    b = rng.random(n)
    need = SolverConfig().scratch_bytes_per_row(n) * n
    cfg = _resilient_config(device_bytes=max(need // 3, 1 << 20))
    base, _ = _run_pipeline(cfg, a, None)
    res, injector = _run_pipeline(cfg, a, plan)
    rec = res.recovery
    x_base = base.solve(b)
    x = res.solve(b)
    match = factor_mismatches(base, res) == 0 and np.array_equal(x_base, x)
    residual = residual_norm(a, x, b)
    actions = len(rec.events) if rec is not None else 0
    outcome = RECOVERED
    detail = (
        f"{injector.faults_injected} faults absorbed, "
        f"{actions} recovery actions, factors "
        f"{'bitwise identical' if match else 'DIVERGED'}"
    )
    return ScenarioResult(
        name=name,
        outcome=outcome,
        detail=detail,
        faulted_seconds=res.sim_seconds,
        baseline_seconds=base.sim_seconds,
        faults_injected=injector.faults_injected,
        recovery_actions=actions,
        bitwise_match=match,
        final_residual=residual,
        fingerprint=(
            tuple(injector.event_log()),
            tuple(ev.key() for ev in rec.events) if rec is not None else (),
        ),
    )


def _scenario_flaky_link(n: int, seed: int) -> ScenarioResult:
    plan = FaultPlan(
        seed=seed, transfer_fault_rate=0.08, kernel_fault_rate=0.03
    )
    return _pipeline_scenario("flaky-link", n, seed, plan)


def _scenario_oom_storm(n: int, seed: int) -> ScenarioResult:
    plan = FaultPlan(
        seed=seed,
        memory_pressure_rate=0.15,
        pressure_fraction=0.95,
        # let the warm-up (uploads + chunk planning) see the true pool:
        # the storm then hits a chunk schedule sized for a healthy device
        pressure_min_op=8,
    )
    return _pipeline_scenario("oom-storm", n, seed, plan)


def _scenario_singular(n: int, seed: int) -> ScenarioResult:
    a = _drill_matrix(n, seed)
    # zero out the first diagonal value: numerically singular leading
    # pivot, structurally intact (rung 3's territory)
    s, e = int(a.indptr[0]), int(a.indptr[1])
    for p in range(s, e):
        if int(a.indices[p]) == 0:
            a.data[p] = 0.0
    rng = np.random.default_rng(seed)
    b = rng.random(n)
    cfg = _resilient_config()
    res, _ = _run_pipeline(cfg, a, None)
    rec = res.recovery
    x = res.solve(b)
    residual = residual_norm(a, x, b)
    ok = rec.residual_ok
    outcome = RECOVERED if (rec.perturbed_columns and ok) else "FAILED"
    detail = (
        f"{len(rec.perturbed_columns)} pivot(s) perturbed, refinement "
        f"{rec.refine_iterations} sweeps -> residual {residual:.3e} "
        f"({'<=' if ok else '>'} threshold {REFINE_THRESHOLD:.0e})"
    )
    return ScenarioResult(
        name="singular-workload",
        outcome=outcome,
        detail=detail,
        faulted_seconds=res.sim_seconds,
        baseline_seconds=res.sim_seconds,
        faults_injected=0,
        recovery_actions=len(rec.events) + len(rec.perturbed_columns),
        final_residual=residual,
        fingerprint=(
            tuple(rec.perturbed_columns),
            rec.refine_iterations,
        ),
    )


def _scenario_dead_device(n: int, seed: int) -> ScenarioResult:
    a = _drill_matrix(n, seed)
    rng = np.random.default_rng(seed)
    b = rng.random(n)
    cfg = ServeConfig(
        solver=SolverConfig(resilience=True),
        num_devices=1,
        fault_plans={0: FaultPlan(seed=seed, kernel_fault_rate=1.0)},
        breaker=BreakerConfig(failure_threshold=2, cooldown_s=10.0),
        cpu_fallback=True,
    )
    with SolverService(cfg) as svc:
        resp = svc.solve(a, b)
        resp.raise_for_status()
        assert resp.x is not None
        residual = residual_norm(a, resp.x, b)
        st = svc.stats()
    breaker = st["breakers"][0]
    outcome = DEGRADED if resp.fallback else RECOVERED
    detail = (
        f"device 0 breaker {breaker['state']} "
        f"({st['counters'].get('device_failures', 0)} failures, "
        f"{breaker['trips']} trip(s)); served by CPU reference path, "
        f"residual {residual:.3e}"
    )
    return ScenarioResult(
        name="dead-device",
        outcome=outcome,
        detail=detail,
        faulted_seconds=resp.finish,
        baseline_seconds=resp.finish,
        faults_injected=st["counters"].get("device_failures", 0),
        recovery_actions=st["counters"].get("cpu_fallbacks", 0),
        final_residual=residual,
        fingerprint=(
            resp.status,
            resp.fallback,
            breaker["state"],
            st["counters"].get("device_failures", 0),
        ),
    )


_SCENARIOS = (
    _scenario_flaky_link,
    _scenario_oom_storm,
    _scenario_singular,
    _scenario_dead_device,
)


def run_fault_drill(*, smoke: bool = False, seed: int = 0) -> DrillReport:
    """Run all four scenarios (twice each, for the determinism check)."""
    n = 80 if smoke else 200
    report = DrillReport()
    for scenario in _SCENARIOS:
        first = scenario(n, seed)
        second = scenario(n, seed)
        if first.fingerprint != second.fingerprint or (
            first.faulted_seconds != second.faulted_seconds
        ):
            report.deterministic = False
        report.results.append(first)
    return report
