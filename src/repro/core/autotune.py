"""Simulation-guided autotuning of the out-of-core symbolic knobs.

The simulator is cheap to query, which enables a workflow real deployments
can't do on hardware: *dry-run* every candidate configuration and pick the
winner before committing.  ``autotune_symbolic`` sweeps Algorithm 4's two
knobs — the split fraction and the number of parts — on the target device
and returns the fastest configuration (ties broken toward the paper's
defaults: two parts, 50 % split).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..gpusim import GPU
from ..preprocess import preprocess
from ..sparse import CSRMatrix
from .config import SolverConfig
from .outofcore import outofcore_symbolic


@dataclass(frozen=True)
class TuneCandidate:
    num_parts: int
    split_fraction: float
    symbolic_seconds: float
    iterations: int


@dataclass
class AutotuneResult:
    candidates: list[TuneCandidate]
    best: TuneCandidate
    baseline_seconds: float  # naive Algorithm 3 on the same device

    @property
    def gain_over_naive(self) -> float:
        return 1.0 - self.best.symbolic_seconds / self.baseline_seconds

    def best_config(self, base: SolverConfig) -> SolverConfig:
        """``base`` with the winning knobs applied."""
        return replace(
            base,
            dynamic_assignment=self.best.num_parts >= 2,
            split_fraction=self.best.split_fraction,
        )


def autotune_symbolic(
    a: CSRMatrix,
    config: SolverConfig,
    *,
    parts: tuple[int, ...] = (1, 2, 3, 4),
    fractions: tuple[float, ...] = (0.25, 0.5, 0.75),
) -> AutotuneResult:
    """Dry-run the knob grid on the configured (simulated) device.

    Every candidate runs the real out-of-core symbolic phase on a fresh
    simulated GPU; structures are identical by construction, so only
    simulated time differs.  Returns every candidate plus the winner.
    """
    pre = preprocess(a)
    work = pre.matrix

    def run(num_parts: int, fraction: float) -> TuneCandidate:
        cfg = replace(config, split_fraction=fraction)
        gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
        sym = outofcore_symbolic(gpu, work, cfg, num_parts=num_parts)
        return TuneCandidate(
            num_parts=num_parts,
            split_fraction=fraction,
            symbolic_seconds=sym.sim_seconds,
            iterations=sym.iterations,
        )

    baseline = run(1, 0.5)
    candidates = [baseline]
    for k in parts:
        if k == 1:
            continue
        for f in fractions:
            candidates.append(run(k, f))

    # prefer the paper's defaults among near-ties (within 1%)
    def key(c: TuneCandidate):
        near_default = (c.num_parts == 2 and abs(c.split_fraction - 0.5) < 1e-9)
        return (c.symbolic_seconds, 0 if near_default else 1, c.num_parts)

    best = min(candidates, key=key)
    # a within-1% default-knob candidate wins ties explicitly
    for c in candidates:
        if (
            c.num_parts == 2
            and abs(c.split_fraction - 0.5) < 1e-9
            and c.symbolic_seconds <= best.symbolic_seconds * 1.01
        ):
            best = c
            break
    return AutotuneResult(
        candidates=candidates,
        best=best,
        baseline_seconds=baseline.symbolic_seconds,
    )
