"""Figure 4: out-of-core GPU pipeline vs the modified GLU 3.0 baseline.

For every Table 2 matrix, runs both solvers end to end and reports
normalized execution times split into symbolic and numeric phases, plus the
speedup.  Paper result: speedups 1.13-32.65, larger for higher ``nnz/n``
("GPUs become more efficient as computations get dense"), and the gap is
the symbolic phase (§4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..workloads import TABLE2, by_abbr
from .gates import Claim, PaperReport, span
from .runner import prepare, run_glu3, run_outofcore

#: the smoke point spans the density range: the sparsest matrix (the low
#: end), OT2 and CR1 (the high end); the full point is all of Table 2
SMOKE = tuple(map(by_abbr, ("AP", "OT2", "CR1")))
FULL = TABLE2


@dataclass(frozen=True)
class Fig4Row:
    abbr: str
    density: float  # paper nnz/n
    glu3_symbolic: float
    glu3_numeric: float
    glu3_total: float
    ooc_symbolic: float
    ooc_numeric: float
    ooc_total: float

    @property
    def speedup(self) -> float:
        return self.glu3_total / self.ooc_total

    def normalized(self) -> tuple[float, float, float, float]:
        """(glu3 sym, glu3 num, ooc sym, ooc num) normalized to glu3 total,
        the stacked-bar encoding of the figure."""
        t = self.glu3_total
        return (
            self.glu3_symbolic / t,
            self.glu3_numeric / t,
            self.ooc_symbolic / t,
            self.ooc_numeric / t,
        )


def _in_range(r: Fig4Result) -> bool:
    lo, hi = r.speedup_range()
    return 0.8 <= lo <= 2.0 and 20.0 <= hi <= 45.0


def _extremes(r: Fig4Result) -> tuple[float, float]:
    """Speedups of the sparsest and the densest matrix."""
    by_density = sorted(r.rows, key=lambda x: x.density)
    return by_density[0].speedup, by_density[-1].speedup


def _extremes_ok(r: Fig4Result) -> bool:
    lo, hi = r.speedup_range()
    return _extremes(r) == (lo, hi) and lo > 1.0


def _symbolic_ratio(r: Fig4Result) -> float:
    """Smallest GLU 3.0 symbolic/numeric ratio where speedup >= 3."""
    ratios = [x.glu3_symbolic / x.glu3_numeric for x in r.rows]
    big = [q for q, x in zip(ratios, r.rows) if x.speedup >= 3]
    return min(big, default=math.inf)


@dataclass
class Fig4Result(PaperReport):
    rows: list[Fig4Row]

    title = (
        "Figure 4 — end-to-end times (simulated s): "
        "out-of-core GPU vs modified GLU 3.0"
    )
    columns = (
        ("matrix", "abbr"),
        ("nnz/n", "density"),
        ("glu3 sym", "glu3_symbolic"),
        ("glu3 num", "glu3_numeric"),
        ("ooc sym", "ooc_symbolic"),
        ("ooc num", "ooc_numeric"),
        ("speedup", "speedup"),
    )
    gates = (
        Claim(
            "speedup_range_ok",
            _in_range,
            "speedups from [0.8, 2.0] to [20, 45]",
            lambda r: span(r.speedups),
            "1.13-32.65x over modified GLU 3.0",
        ),
        Claim(
            "density_trend_ok",
            lambda r: r.density_speedup_correlation() > 0.9,
            "Spearman rho(nnz/n, speedup) > 0.9",
            lambda r: f"rho = {r.density_speedup_correlation():.3f}",
            "speedups grow with nnz/n",
        ),
        Claim(
            "extremes_ok",
            _extremes_ok,
            "sparsest gains least but > 1x, densest gains most",
            lambda r: "sparsest {:.2f}x, densest {:.2f}x".format(
                *_extremes(r)
            ),
            "sparsest near parity, densest largest",
        ),
        Claim(
            "symbolic_gap_ok",
            lambda r: _symbolic_ratio(r) > 5.0,
            "GLU 3.0 symbolic > 5x its numeric wherever speedup >= 3",
            lambda r: f"min ratio {_symbolic_ratio(r):.1f}x",
            "the gap comes mainly from the symbolic phase",
        ),
    )

    def density_speedup_correlation(self) -> float:
        """Spearman rank correlation between nnz/n and speedup — the
        paper's qualitative claim is a positive association."""
        d = np.array([r.density for r in self.rows])
        s = np.array(self.speedups)
        rd = np.argsort(np.argsort(d)).astype(float)
        rs = np.argsort(np.argsort(s)).astype(float)
        rd -= rd.mean()
        rs -= rs.mean()
        denom = float(np.sqrt((rd**2).sum() * (rs**2).sum()))
        return float((rd * rs).sum() / denom) if denom else 0.0


def fig4_row(spec, seed: int = 0, **overrides) -> Fig4Row:
    """Run both solvers end to end on one matrix, ``overrides`` applied
    to both solvers' configuration."""
    art = prepare(spec, seed=seed)
    gb = run_glu3(art, **overrides).breakdown()
    ob = run_outofcore(art, **overrides).breakdown()
    # two-way split as in the paper's stacked bars: everything that is
    # not symbolic (levelization, numeric, factor download) counts as
    # the numeric-side bar segment
    glu3 = (gb.symbolic, gb.total - gb.symbolic, gb.total)
    ooc = (ob.symbolic, ob.total - ob.symbolic, ob.total)
    return Fig4Row(spec.abbr, spec.paper_density, *glu3, *ooc)


def run_fig4(*, smoke: bool = False, seed: int = 0) -> Fig4Result:
    """Regenerate Figure 4 at the smoke or full point."""
    return Fig4Result([fig4_row(s, seed) for s in (SMOKE if smoke else FULL)])
