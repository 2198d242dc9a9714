"""Table 4: very large matrices and the dense format's parallelism cap.

For each Table 4 mesh matrix reports ``M = L / (n x sizeof(dtype))`` — the
maximal number of parallel thread blocks the dense-format numeric kernel can
sustain.  The registry scales each device so the quotient reproduces the
paper's value exactly (124 / 119 / 109 / 102), all below ``TB_max = 160``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core import dense_format_max_blocks
from ..workloads import TABLE4
from .gates import Claim, PaperReport
from .runner import prepare, resident_replica

#: the smoke point is the first two Table 4 matrices; the full point all
SMOKE = TABLE4[:2]
FULL = TABLE4


@dataclass(frozen=True)
class Table4Row:
    name: str
    abbr: str
    paper_n: int
    paper_nnz: int
    scaled_n: int
    scaled_nnz: int
    max_blocks: int
    paper_max_blocks: int
    tb_max: int

    @property
    def under_occupied(self) -> bool:
        """The §3.4 condition: dense format cannot fill the device."""
        return self.max_blocks < self.tb_max

    @property
    def occupancy(self) -> float:
        """The dense format's share of the device's block slots."""
        return self.max_blocks / self.tb_max


@dataclass
class Table4Result(PaperReport):
    rows: list[Table4Row]

    title = (
        "Table 4 — large matrices and the dense-format "
        "parallel-block cap (TB_max = 160)"
    )
    columns = (
        ("matrix", "name"),
        ("paper n", "paper_n"),
        ("paper nnz", "paper_nnz"),
        ("scaled n", "scaled_n"),
        ("max #blocks", "max_blocks"),
        ("paper max #blocks", "paper_max_blocks"),
    )
    gates = (
        Claim(
            "max_blocks_ok",
            lambda r: all(
                x.max_blocks == x.paper_max_blocks
                and x.under_occupied
                and x.tb_max == 160
                for x in r.rows
            ),
            "max #blocks == the paper's, < TB_max 160",
            lambda r: "/".join(str(x.max_blocks) for x in r.rows),
            "124 / 119 / 109 / 102 (< TB_max 160)",
        ),
    )

    def perf_record(self) -> dict[str, Any]:
        record = super().perf_record()
        for x in self.rows:
            record["timings"][f"{x.abbr}_occupancy"] = x.occupancy
        return record


def run_table4(*, smoke: bool = False, seed: int = 0) -> Table4Result:
    """Regenerate Table 4 (matrix specs + max parallel blocks) at the smoke
    or full point."""
    rows = []
    for spec in SMOKE if smoke else FULL:
        art = prepare(spec, seed=seed, for_numeric=True)
        # the dense buffers compete with the resident graph + factorized
        # matrix, exactly as in the numeric executor
        n = art.a.n_rows
        m = dense_format_max_blocks(resident_replica(art), n, art.config())
        rows.append(
            Table4Row(
                name=spec.name,
                abbr=spec.abbr,
                paper_n=spec.paper_n,
                paper_nnz=spec.paper_nnz,
                scaled_n=n,
                scaled_nnz=art.a.nnz,
                max_blocks=m,
                paper_max_blocks=spec.paper_max_blocks or 0,
                tb_max=art.device.max_concurrent_blocks,
            )
        )
    return Table4Result(rows)
