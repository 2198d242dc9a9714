"""Figure 5: out-of-core vs unified-memory (with prefetching), end to end.

Runs the 7 smallest-n Table 2 matrices — the ones whose symbolic
intermediates fit (scaled) host memory but not device memory, the paper's
§4.3 selection rule.  Paper result: the out-of-core implementation is
1.06-2.22x faster, with unified memory most competitive on the densest
matrices (WI, MI) and weakest on the sparsest (R15, OT2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads import by_abbr, unified_memory_specs
from .gates import Claim, PaperReport, span
from .runner import prepare, run_outofcore, run_unified

#: the smoke point is the two sparsest matrices of the UM subset, where
#: the out-of-core gain peaks; the full point is the whole subset
SMOKE = tuple(map(by_abbr, ("OT2", "R15")))
FULL = unified_memory_specs()


@dataclass(frozen=True)
class Fig5Row:
    abbr: str
    density: float
    ooc_symbolic: float
    ooc_numeric: float
    ooc_total: float
    um_symbolic: float
    um_numeric: float
    um_total: float

    @property
    def speedup(self) -> float:
        """out-of-core speedup over the prefetch-enabled UM solver."""
        return self.um_total / self.ooc_total


def _top(r: Fig5Result) -> str:
    """The matrix that gains most."""
    return max(r.rows, key=lambda x: x.speedup).abbr


@dataclass
class Fig5Result(PaperReport):
    rows: list[Fig5Row]

    title = (
        "Figure 5 — end-to-end times (simulated s): out-of-core "
        "vs unified memory (prefetch enabled)"
    )
    columns = (
        ("matrix", "abbr"),
        ("nnz/n", "density"),
        ("ooc sym", "ooc_symbolic"),
        ("ooc num", "ooc_numeric"),
        ("um sym", "um_symbolic"),
        ("um num", "um_numeric"),
        ("ooc speedup", "speedup"),
    )
    gates = (
        Claim(
            "speedup_range_ok",
            lambda r: all(1.0 < s < 2.5 for s in r.speedups),
            "every speedup in (1.0, 2.5)",
            lambda r: span(r.speedups),
            "1.06-2.22x over UM w/ prefetch (abstract: 1.2-2.2x)",
        ),
        Claim(
            "sparsest_gains_most_ok",
            lambda r: _top(r) == "OT2",
            "OT2 gains most",
            lambda r: f"{_top(r)} gains most",
            "UM weakest on the sparsest matrices (R15, OT2)",
        ),
    )


def run_fig5(*, smoke: bool = False, seed: int = 0) -> Fig5Result:
    """Regenerate Figure 5 at the smoke or full point."""
    rows = []
    for spec in SMOKE if smoke else FULL:
        art = prepare(spec, seed=seed)
        assert spec.um_intermediates_fit_host(art.host), (
            f"{spec.abbr}: UM subset member must fit host memory"
        )
        ob = run_outofcore(art).breakdown()
        ub = run_unified(art, prefetch=True).breakdown()
        ooc = (ob.symbolic, ob.total - ob.symbolic, ob.total)
        um = (ub.symbolic, ub.total - ub.symbolic, ub.total)
        rows.append(Fig5Row(spec.abbr, spec.paper_density, *ooc, *um))
    return Fig5Result(rows)
