"""Table 2: the 18 evaluation matrices and their defining property.

Each scaled instance keeps its matrix's structural class and the paper's
``nnz/n``, and its scaled device cannot hold the ``c x n`` per-row
symbolic scratch of all rows at once (§4.1): symbolic factorization
needs out-of-core execution or unified memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads import TABLE2, by_abbr
from .gates import Claim, PaperReport, span
from .runner import prepare

#: the smoke point spans the density range and both structural classes;
#: the full point is all of Table 2
SMOKE = tuple(map(by_abbr, ("AP", "OT2", "R15", "MI", "WI", "CR1")))
FULL = TABLE2

#: largest relative deviation of a scaled instance's nnz/n from the paper's
DENSITY_TOLERANCE = 0.35


@dataclass(frozen=True)
class Table2Row:
    name: str
    abbr: str
    kind: str
    paper_n: int
    paper_density: float
    scaled_n: int
    scaled_nnz: int
    device_bytes: int
    scratch_bytes: int  # c x n per-row scratch of all rows

    @property
    def density(self) -> float:
        return self.scaled_nnz / self.scaled_n

    @property
    def density_error(self) -> float:
        return abs(self.density - self.paper_density) / self.paper_density


def _worst_density(r: Table2Result) -> float:
    return max(x.density_error for x in r.rows)


def _headroom(r: Table2Result) -> str:
    ratios = (x.scratch_bytes / x.device_bytes for x in r.rows)
    return "scratch/device " + span(ratios, ".1f")


@dataclass
class Table2Result(PaperReport):
    rows: list[Table2Row]

    title = (
        "Table 2 — evaluation matrices: symbolic scratch of all rows "
        "vs scaled device memory"
    )
    columns = (
        ("matrix", "name"),
        ("abbr", "abbr"),
        ("kind", "kind"),
        ("paper n", "paper_n"),
        ("paper nnz/n", "paper_density"),
        ("scaled n", "scaled_n"),
        ("scaled nnz/n", "density"),
        ("device B", "device_bytes"),
        ("scratch B", "scratch_bytes"),
    )
    gates = (
        Claim(
            "density_ok",
            lambda r: _worst_density(r) < DENSITY_TOLERANCE,
            f"scaled nnz/n within {DENSITY_TOLERANCE:.0%} of the paper's",
            lambda r: f"max deviation {_worst_density(r):.1%}",
            "each matrix's nnz/n as in Table 2",
        ),
        Claim(
            "out_of_core_ok",
            lambda r: all(
                0 < x.device_bytes < x.scratch_bytes for x in r.rows
            ),
            "all-rows scratch > device memory on every matrix",
            _headroom,
            "symbolic intermediates exceed GPU memory",
        ),
    )


def run_table2(*, smoke: bool = False, seed: int = 0) -> Table2Result:
    """Regenerate Table 2 at the smoke or full point."""
    rows = []
    for spec in SMOKE if smoke else FULL:
        art = prepare(spec, seed=seed)
        rows.append(
            Table2Row(
                name=spec.name,
                abbr=spec.abbr,
                kind=spec.kind,
                paper_n=spec.paper_n,
                paper_density=spec.paper_density,
                scaled_n=art.a.n_rows,
                scaled_nnz=art.a.nnz,
                device_bytes=art.device.memory_bytes,
                scratch_bytes=spec.scratch_all_rows_bytes(),
            )
        )
    return Table2Result(rows)
