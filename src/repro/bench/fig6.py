"""Figure 6: symbolic-phase times — out-of-core vs unified memory with and
without prefetching.

Paper result: without prefetching, unified memory is strictly worse; the gap
widens for low-density matrices (R15, OT2) where there is little computation
to amortize the page faults against.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads import by_abbr, unified_memory_specs
from .gates import Claim, PaperReport
from .runner import prepare, run_symbolic_only

#: the smoke point holds the two sparsest and the two densest matrices
#: of the UM subset, which the density-trend claim compares; the full
#: point is the whole subset
SMOKE = tuple(map(by_abbr, ("OT2", "R15", "MI", "WI")))
FULL = unified_memory_specs()


@dataclass(frozen=True)
class Fig6Row:
    abbr: str
    density: float
    ooc: float  # out-of-core symbolic seconds
    um_prefetch: float
    um_no_prefetch: float

    @property
    def speedup_vs_prefetch(self) -> float:
        return self.um_prefetch / self.ooc

    @property
    def speedup_vs_no_prefetch(self) -> float:
        return self.um_no_prefetch / self.ooc

    @property
    def ordered(self) -> bool:
        return self.ooc < self.um_prefetch < self.um_no_prefetch


def _gap(r: Fig6Result, abbr: str) -> float:
    return r.value(abbr, "speedup_vs_no_prefetch")


def _gap_widens(r: Fig6Result) -> bool:
    return _gap(r, "OT2") > _gap(r, "WI") and _gap(r, "R15") > _gap(r, "MI")


@dataclass
class Fig6Result(PaperReport):
    rows: list[Fig6Row]

    title = "Figure 6 — symbolic-phase times (simulated s)"
    columns = (
        ("matrix", "abbr"),
        ("nnz/n", "density"),
        ("ooc", "ooc"),
        ("um w/ p", "um_prefetch"),
        ("um w/o p", "um_no_prefetch"),
        ("S vs w/p", "speedup_vs_prefetch"),
        ("S vs w/o p", "speedup_vs_no_prefetch"),
    )
    gates = (
        Claim(
            "ordering_ok",
            lambda r: all(x.ordered for x in r.rows),
            "ooc < UM w/ p < UM w/o p on every matrix",
            lambda r: f"{sum(x.ordered for x in r.rows)} of {len(r.rows)}",
            "ooc < UM w/p < UM w/o p",
        ),
        Claim(
            "sparse_gap_ok",
            _gap_widens,
            "speedup vs UM w/o p: OT2 > WI and R15 > MI",
            lambda r: ", ".join(
                f"{a} {_gap(r, a):.2f}x" for a in ("OT2", "WI", "R15", "MI")
            ),
            "the gap widens for sparse matrices (R15, OT2)",
        ),
    )


def run_fig6(*, smoke: bool = False, seed: int = 0) -> Fig6Result:
    """Regenerate Figure 6 (symbolic-only comparison, 3 implementations)
    at the smoke or full point."""
    rows = []
    for spec in SMOKE if smoke else FULL:
        art = prepare(spec, seed=seed)
        ooc, _ = run_symbolic_only(art, mode="outofcore")
        um_p, _ = run_symbolic_only(art, mode="unified", prefetch=True)
        um_np, _ = run_symbolic_only(art, mode="unified", prefetch=False)
        rows.append(
            Fig6Row(
                abbr=spec.abbr,
                density=spec.paper_density,
                ooc=ooc.sim_seconds,
                um_prefetch=um_p.sim_seconds,
                um_no_prefetch=um_np.sim_seconds,
            )
        )
    return Fig6Result(rows)
