"""Figure 3: frontier size per out-of-core iteration.

Plots (as a data series) the aggregate frontier population per out-of-core
iteration for the two Fig. 3 matrices (pre2-like and audikw_1-like).
Paper shape: frontier requirements grow with the source-row id — a
consequence of Theorem 1 (larger sources admit more intermediates) — and
are "usually large for the last few iterations, and small otherwise".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from ..symbolic import (
    FrontierProfile,
    frontier_profile,
    symbolic_fill_reference,
)
from ..workloads import FIG3_SPECS
from .gates import Claim, PaperReport
from .report import format_series
from .runner import prepare

#: both Fig. 3 matrices (pre2, audikw_1); the smoke point shrinks them
FULL = FIG3_SPECS
SMOKE = tuple(replace(s, n_scaled=2500) for s in FIG3_SPECS)

#: rows per out-of-core iteration of the profile
CHUNK_ROWS = 144


@dataclass
class Fig3Series:
    abbr: str
    profile: FrontierProfile

    def tail_is_large(
        self, *, tail_iters: int = 3, factor: float = 2.0
    ) -> bool:
        """Paper claim: the last few iterations see the largest frontiers."""
        m = self.profile.max_frontier
        if len(m) <= tail_iters:
            return True
        tail = m[-tail_iters:].max()
        body = m[:-tail_iters].mean()
        return bool(tail >= factor * max(body, 1.0))

    def tail_grows(self) -> bool:
        """The last iteration's frontier tops every one of the first half
        (growth with the source-row id)."""
        m = self.profile.max_frontier
        return bool(m[-1] > m[: len(m) // 2].max())

    def __str__(self) -> str:
        return format_series(
            f"Figure 3 [{self.abbr}] max frontier per iteration",
            self.profile.chunk_starts,
            self.profile.max_frontier,
        )


def _holding(r: Fig3Result, claim: Callable[[Fig3Series], bool]) -> list[str]:
    """The matrices whose series satisfies ``claim``."""
    return [s.abbr for s in r.series if claim(s)]


@dataclass
class Fig3Result(PaperReport):
    series: list[Fig3Series]

    gates = (
        Claim(
            "tail_spike_ok",
            lambda r: _holding(r, Fig3Series.tail_is_large) == ["PR", "AK"],
            "on PR and AK, the last 3 iterations' max >= 2x the mean before",
            lambda r: "/".join(_holding(r, Fig3Series.tail_is_large)),
            "frontiers large in the last few iterations, small otherwise",
        ),
        Claim(
            "tail_growth_ok",
            lambda r: _holding(r, Fig3Series.tail_grows) == ["PR", "AK"],
            "on PR and AK, the last frontier > every one of the first half",
            lambda r: "/".join(_holding(r, Fig3Series.tail_grows)),
            "frontiers grow with the source-row id (Theorem 1)",
        ),
    )

    def perf_record(self) -> dict[str, Any]:
        counters: dict[str, int] = {}
        timings: dict[str, float] = {}
        for s in self.series:
            m, mean = s.profile.max_frontier, s.profile.mean_frontier
            counters[f"{s.abbr}_iterations"] = len(m)
            counters[f"{s.abbr}_max_frontier"] = int(m.max())
            counters[f"{s.abbr}_last_frontier"] = int(m[-1])
            timings[f"{s.abbr}_mean_frontier"] = float(mean.mean())
        labels = self.gate_labels()
        return {"counters": counters, "timings": timings, "labels": labels}

    def table(self) -> str:
        return "\n".join(str(s) for s in self.series)


def run_fig3(*, smoke: bool = False, seed: int = 0) -> Fig3Result:
    """Regenerate Figure 3's series at the smoke or full point."""
    out = []
    for spec in SMOKE if smoke else FULL:
        filled = symbolic_fill_reference(prepare(spec, seed=seed).a)
        profile = frontier_profile(filled, CHUNK_ROWS)
        out.append(Fig3Series(spec.abbr, profile))
    return Fig3Result(out)
