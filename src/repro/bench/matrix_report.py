"""Table 2-style structural reports for arbitrary matrix sets.

``matrix_report`` computes, per matrix: the paper's Table 2 columns
(n, nnz, nnz/n), fill statistics, scheduling statistics (levels, etree
height), supernode formation, and the out-of-core requirement under a
given device — everything the repository derives from a pattern, in one
table.  Used by the CLI's ``analyze`` command family and as a research
convenience.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import SolverConfig
from ..graph import (
    build_dependency_graph,
    detect_supernodes,
    etree_height,
    kahn_levels,
)
from ..sparse import CSRMatrix, pattern_stats
from ..symbolic import symbolic_fill_reference
from .report import format_table


@dataclass(frozen=True)
class MatrixReportRow:
    name: str
    n: int
    nnz: int
    density: float
    symmetry: float
    fill_nnz: int
    fill_ratio: float
    levels: int
    etree_levels: int
    supernode_mean: float
    needs_out_of_core: bool


@dataclass
class MatrixReport:
    rows: list[MatrixReportRow]

    def __str__(self) -> str:
        return format_table(
            ["matrix", "n", "nnz", "nnz/n", "sym", "fill nnz", "fill x",
             "levels", "etree", "snode", "ooc?"],
            [
                (r.name, r.n, r.nnz, r.density, r.symmetry, r.fill_nnz,
                 r.fill_ratio, r.levels, r.etree_levels, r.supernode_mean,
                 r.needs_out_of_core)
                for r in self.rows
            ],
            title="Matrix structural report",
        )


def matrix_report(
    matrices: dict[str, CSRMatrix], config: SolverConfig | None = None
) -> MatrixReport:
    """Build a :class:`MatrixReport` for named matrices."""
    cfg = config or SolverConfig()
    rows = []
    for name, a in matrices.items():
        st = pattern_stats(a)
        filled = symbolic_fill_reference(a)
        sched = kahn_levels(build_dependency_graph(filled))
        part = detect_supernodes(filled)
        scratch = cfg.scratch_bytes_per_row(a.n_rows) * a.n_rows
        rows.append(
            MatrixReportRow(
                name=name,
                n=st.n,
                nnz=st.nnz,
                density=st.nnz_per_row,
                symmetry=st.structural_symmetry,
                fill_nnz=filled.nnz,
                fill_ratio=filled.nnz / max(st.nnz, 1),
                levels=sched.num_levels,
                etree_levels=etree_height(filled),
                supernode_mean=part.mean_size(),
                needs_out_of_core=scratch > cfg.device.memory_bytes,
            )
        )
    return MatrixReport(rows)
