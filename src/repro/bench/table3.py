"""Table 3: page-fault groups and fault-service time percentages.

For each UM-subset matrix, reports the number of GPU fault groups with and
without prefetching, the percentage of (symbolic) time spent servicing the
faults, and the out-of-core implementation's data-movement percentage.

Paper shapes: prefetching cuts fault groups ~3-4x; fault-service share is
33-86 % without prefetch, 19-65 % with; the out-of-core version spends
well under 1 % moving data — and the shares shrink as density grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim import GPU
from ..workloads import by_abbr, unified_memory_specs
from .gates import Claim, PaperReport, span
from .runner import prepare, run_symbolic_only

#: the smoke point holds the two sparsest and the two densest matrices
#: of the UM subset; the full point is the whole subset
SMOKE = tuple(map(by_abbr, ("OT2", "R15", "MI", "WI")))
FULL = unified_memory_specs()


@dataclass(frozen=True)
class Table3Row:
    abbr: str
    density: float
    fault_groups_no_prefetch: int
    fault_groups_prefetch: int
    pct_fault_no_prefetch: float  # % of UM symbolic time servicing faults
    pct_fault_prefetch: float
    pct_transfer_ooc: float  # % of OOC symbolic time moving data

    @property
    def group_reduction(self) -> float:
        if self.fault_groups_prefetch == 0:
            return float("inf")
        return self.fault_groups_no_prefetch / self.fault_groups_prefetch

    @property
    def shares_ok(self) -> bool:
        return (
            10.0 < self.pct_fault_no_prefetch < 90.0
            and self.pct_fault_prefetch < self.pct_fault_no_prefetch
            and self.pct_transfer_ooc < 1.0
        )


def _share(r: Table3Result, abbr: str) -> float:
    return r.value(abbr, "pct_fault_no_prefetch")


def _shares(r: Table3Result) -> str:
    no_p = span((x.pct_fault_no_prefetch for x in r.rows), ".0f", "%")
    p = span((x.pct_fault_prefetch for x in r.rows), ".0f", "%")
    ooc = max(x.pct_transfer_ooc for x in r.rows)
    return f"wo p {no_p}, w p {p}, ooc <= {ooc:.2f}%"


@dataclass
class Table3Result(PaperReport):
    rows: list[Table3Row]

    title = "Table 3 — GPU page-fault groups and service-time shares"
    columns = (
        ("matrix", "abbr"),
        ("groups wo p", "fault_groups_no_prefetch"),
        ("groups w p", "fault_groups_prefetch"),
        ("pc. wo p(%)", "pct_fault_no_prefetch"),
        ("pc. w p(%)", "pct_fault_prefetch"),
        ("pc. ooc(%)", "pct_transfer_ooc"),
    )
    gates = (
        Claim(
            "fault_reduction_ok",
            lambda r: all(2.5 <= x.group_reduction <= 6.0 for x in r.rows),
            "prefetch cuts fault groups 2.5-6x on every matrix",
            lambda r: span((x.group_reduction for x in r.rows), ".1f"),
            "prefetch cuts fault groups ~3.5-4x",
        ),
        Claim(
            "service_share_ok",
            lambda r: all(x.shares_ok for x in r.rows),
            "10% < wo p < 90%, w p < wo p, ooc < 1% on every matrix",
            _shares,
            "wo p 33-86%, w p 19-65%, ooc <1%",
        ),
        Claim(
            "density_trend_ok",
            lambda r: _share(r, "OT2") > _share(r, "WI"),
            "wo p service share: OT2 > WI",
            lambda r: "OT2 {:.0f}% vs WI {:.0f}%".format(
                _share(r, "OT2"), _share(r, "WI")
            ),
            "the shares shrink as density grows (OT2 78% vs WI 33%)",
        ),
    )


def _pct(gpu: GPU, bucket: str) -> float:
    """``bucket``'s share of the symbolic phase, in percent."""
    sym = gpu.ledger.seconds("symbolic")
    return 100.0 * gpu.ledger.seconds(bucket) / sym if sym > 0 else 0.0


def run_table3(*, smoke: bool = False, seed: int = 0) -> Table3Result:
    """Regenerate Table 3 at the smoke or full point."""
    rows = []
    for spec in SMOKE if smoke else FULL:
        art = prepare(spec, seed=seed)
        _, gpu_np = run_symbolic_only(art, mode="unified", prefetch=False)
        _, gpu_p = run_symbolic_only(art, mode="unified", prefetch=True)
        _, gpu_ooc = run_symbolic_only(art, mode="outofcore")
        rows.append(
            Table3Row(
                abbr=spec.abbr,
                density=spec.paper_density,
                fault_groups_no_prefetch=gpu_np.ledger.get_count(
                    "um_fault_groups"
                ),
                fault_groups_prefetch=gpu_p.ledger.get_count(
                    "um_fault_groups"
                ),
                pct_fault_no_prefetch=_pct(gpu_np, "fault_service"),
                pct_fault_prefetch=_pct(gpu_p, "fault_service"),
                pct_transfer_ooc=_pct(gpu_ooc, "transfer"),
            )
        )
    return Table3Result(rows)
