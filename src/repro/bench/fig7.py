"""Figure 7: dynamic parallelism assignment vs the naive out-of-core scheme.

Compares symbolic-phase times of Algorithm 4 (two-part chunk sizing) and
Algorithm 3 (single conservative chunk size) on the two large Fig. 3/7
matrices.  Paper result: the dynamic implementation is up to ~10 % faster —
the low-frontier prefix runs with larger chunks (higher block occupancy),
while the improvement is bounded because the high-frontier suffix still
needs the conservative chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fig3 import FULL, SMOKE
from .gates import Claim, PaperReport, span
from .runner import prepare, run_symbolic_only


@dataclass(frozen=True)
class Fig7Row:
    abbr: str
    naive_seconds: float
    dynamic_seconds: float
    naive_iterations: int
    dynamic_iterations: int
    split_point: int | None

    @property
    def improvement(self) -> float:
        """Fractional gain of dynamic over naive (paper: up to ~0.10)."""
        return 1.0 - self.dynamic_seconds / self.naive_seconds

    @property
    def gain_pct(self) -> float:
        return 100.0 * self.improvement


def _gain_ok(r: Fig7Result) -> bool:
    gains = [x.improvement for x in r.rows]
    return all(0.0 < g <= 0.15 for g in gains) and max(gains) >= 0.05


@dataclass
class Fig7Result(PaperReport):
    rows: list[Fig7Row]

    title = (
        "Figure 7 — symbolic factorization: dynamic parallelism "
        "assignment vs naive out-of-core"
    )
    columns = (
        ("matrix", "abbr"),
        ("naive (s)", "naive_seconds"),
        ("dynamic (s)", "dynamic_seconds"),
        ("iters naive", "naive_iterations"),
        ("iters dyn", "dynamic_iterations"),
        ("gain %", "gain_pct"),
    )
    gates = (
        Claim(
            "gain_ok",
            _gain_ok,
            "every gain in (0, 15%], the largest >= 5%",
            lambda r: span((x.gain_pct for x in r.rows), ".1f", "%"),
            "up to ~10% over naive out-of-core",
        ),
        Claim(
            "two_part_plan_ok",
            lambda r: all(
                x.dynamic_iterations < x.naive_iterations
                and x.split_point is not None
                for x in r.rows
            ),
            "dynamic splits the plan and runs fewer iterations",
            lambda r: ", ".join(
                f"{x.abbr} {x.naive_iterations}->{x.dynamic_iterations}"
                for x in r.rows
            ),
            "a low-frontier prefix with larger chunks (Algorithm 4)",
        ),
    )


def run_fig7(*, smoke: bool = False, seed: int = 0) -> Fig7Result:
    """Regenerate Figure 7 on the two Fig. 3 matrices at the smoke or
    full point."""
    rows = []
    for spec in SMOKE if smoke else FULL:
        art = prepare(spec, seed=seed)
        naive, _ = run_symbolic_only(art, mode="outofcore", dynamic=False)
        dyn, _ = run_symbolic_only(art, mode="outofcore", dynamic=True)
        rows.append(
            Fig7Row(
                abbr=spec.abbr,
                naive_seconds=naive.sim_seconds,
                dynamic_seconds=dyn.sim_seconds,
                naive_iterations=naive.iterations,
                dynamic_iterations=dyn.iterations,
                split_point=dyn.split_point,
            )
        )
    return Fig7Result(rows)
